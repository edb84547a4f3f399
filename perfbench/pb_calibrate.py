"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same code runs at speeds that differ by 20-40% from
one minute to the next, as neighbours load the physical cores.  The timed
runs therefore interleave a few milliseconds of a fixed kernel, which uses
no starfn code, between ops and scale their times by

    REFERENCE_S[kind] / median(kernel time over the run),

that is, to seconds at the speed the host had when the reference times were
measured.  Each workload names the kernel that resembles its own work:
``numpy`` (vector log, sort, cumsum, as in the circle kernel) or ``python``
(interpreter-bound Horner loops and ``np.roots`` on a small polynomial, as
in the single-slice path).  A change to starfn moves the op times and not
the kernel, so it moves the scaled times by the same factor as the raw ones.
"""

from __future__ import annotations

import cmath
import statistics
import time

import numpy as np

# Median kernel times on the 2-core machine baseline.json was recorded on.
REFERENCE_S = {"numpy": 1.9e-3, "python": 1.2e-3}
# Kernel runs per burst, and the least time between bursts.
BURST = 3
INTERVAL_S = 0.2


class Calibration:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.samples: list[float] = []
        self._last = -float("inf")
        if kind == "numpy":
            data = rng.standard_normal((1000, 192)) + 1j * rng.standard_normal((1000, 192))
            values = np.empty(data.shape)
            sums = np.empty(data.shape)

            # Writes into the same buffers every time, so that its cost does
            # not depend on how much heap the process happens to hold.
            def kernel():
                np.abs(data, out=values)
                np.log(values, out=values)
                values.sort(axis=1)
                np.cumsum(values, axis=1, out=sums)
        elif kind == "python":
            coeffs = [complex(*rng.standard_normal(2)) for _ in range(5)]
            points = [cmath.exp(2j * cmath.pi * k / 256) for k in range(256)]

            def kernel():
                for _ in range(8):
                    values = []
                    for z in points:
                        acc = 0j
                        for c in coeffs:
                            acc = acc * z + c
                        values.append(abs(acc))
                    values.sort()
                    np.roots(coeffs)
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self._kernel = kernel

    def burst(self) -> None:
        """Time a few kernel runs, unless the last burst was very recent.

        The first run is not timed: it refills the caches the op evicted.
        """
        if time.perf_counter() - self._last < INTERVAL_S:
            return
        self._kernel()
        for _ in range(BURST):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    @property
    def seconds(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a time measured in this run by this to scale it."""
        return REFERENCE_S[self.kind] / self.seconds
