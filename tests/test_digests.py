"""sha256 digests of fixed outputs, checked against ``digests.json``.

Each case below computes one output from inline inputs: T* rows of the
sphere kernel at M = 192, 1024 and 4096, counting and Lelong estimates, the
mean-value differences of the harmonic-slice test, and the single-slice
route's circle samples, stars, levels and totals.  The digests must hold at
STARFN_THREADS 1 and 2, so a change that claims to keep its outputs' bits is
checked here rather than re-derived.

The bits depend on the build: the circle values are BLAS gemm products and
the roots LAPACK eigenvalues, and OpenBLAS picks its kernels by CPU.  So
``digests.json`` records the numpy version, the BLAS and LAPACK builds and
the CPU's SIMD extensions, as ``np.show_config`` gives them, and the check
skips, with both builds in its reason, on any other build.  After a change
meant to move bits, rewrite the file on the recorded build with

    PYTHONPATH=src python tests/test_digests.py

which prints each case's old digest, its new one and whether it moved.
"""

import hashlib
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from starfn.funcdef import parse_function
from starfn.slicing import Direction, make_slice, slice_divisor
from starfn.sphere import counting_several, lelong_number, mean_value_differences, sample_directions
from starfn.starcore import (
    circle_log_samples, level_threshold, slice_star_total, star_rearranged, star_rings, star_rows,
    star_thresholded,
)

CORPUS_PATH = Path(__file__).with_name("digests.json")

# degrees 3/4, 6/6 (a 13-term circle polynomial) and 4/4 in three variables
F_34 = parse_function("(1 + z1 - 0.5*z2^2 + 0.3*z1^2*z2) / (1 - 0.4*z1*z2 + 0.2*z1^3 - 0.1*z2^4)", 2)
F_66 = parse_function(
    "(1 + z1 - 0.5*z2^2 + 0.3*z1^3*z2 + 0.2*z2^6) / (1 - 0.4*z1*z2 + 0.1*z1^6 - 0.2*z2^5)", 2
)
F_N3 = parse_function("(1 + z1*z2 - 0.7*z3^2 + 0.2*z1^4) / (1 - 0.5*z2 + 0.3*z1*z3^2 + 0.1*z2^4)", 3)
# P(Z.eta) with P = (1 + u/2)^2 and eta = (1, 2): every slice is harmonic
F_RAY = parse_function("1 + z1 + 2*z2 + 0.25*z1^2 + z1*z2 + z2^2", 2)
THETAS = [0.4, math.pi / 2, 2.9]
# THETAS and the theta just below pi, whose rank is M at M = 23
INTERIOR = [*THETAS, math.nextafter(math.pi, 0)]


def _star(F, count, seed, r, thetas, M):
    batch = sample_directions(F.n, count, seed).slices(F)
    return star_rows(batch.g_coef, batch.h_coef, batch.h_logroots, r, thetas, M)


def _estimates(query, pairs):
    sample = sample_directions(3, 3000, seed=34)
    ests = [query(F_N3, x, a, sample) for x, a in pairs]
    return np.array([(e.mean, e.stderr, e.count_used) for e in ests])


def _harmonic_differences():
    zeta = Direction.of((0.6 + 0.2j, -0.5 + 0.6j))
    poles, s = slice_divisor(F_RAY, zeta).logroots(math.inf), make_slice(F_RAY, zeta)

    def totals(rings):
        return [star_rings(s.g, s.h, poles, rings, 1024)[:, None]]

    r_values, theta_values = np.linspace(0.6, 1.6, 5), np.linspace(0.4, math.pi - 0.4, 5)
    return mean_value_differences(r_values, theta_values, None, 8, totals)


def _single_slice_route():
    slices = [
        (F_34, Direction.of((0.6 + 0.2j, -0.5 + 0.6j))),
        (F_66, Direction.of((0.3 - 0.8j, 0.5 + 0.1j))),
    ]
    thetas = [0.0, *INTERIOR, math.pi]
    out = []
    for F, zeta in slices:
        for r in (0.7, 1.3):
            for M in (23, 1024, 8192):
                samples = circle_log_samples(F, zeta, r, M)
                out.append(samples.values)
                out.append([star_rearranged(samples, th) for th in thetas])
                out.append([level_threshold(samples, th) for th in INTERIOR])
                out.append([star_thresholded(samples, th) for th in INTERIOR])
                out.append([slice_star_total(F, zeta, r, th, M).total for th in thetas])
    return np.concatenate(out)


# each sphere case spans more than one block, so STARFN_THREADS=2 runs threads
CASES = {
    "star_rows_M192": lambda: _star(F_34, 1200, 31, 1.1, list(np.linspace(0.1, 3.0, 16)), 192),
    "star_rows_M1024": lambda: _star(F_66, 250, 32, 0.9, THETAS, 1024),
    "star_rows_M4096": lambda: _star(F_34, 60, 33, 1.7, THETAS, 4096),
    "counting_several": lambda: _estimates(counting_several, [(1.0, math.inf), (2.0, 0.0)]),
    "lelong_number": lambda: _estimates(lelong_number, [(0.5, 0.0), (2.0, math.inf)]),
    "harmonic_slice_differences": _harmonic_differences,
    "single_slice_route": _single_slice_route,
}


def build() -> dict | None:
    """The numpy build the bits depend on, or None where numpy (before 1.26)
    cannot report it as a dict."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return None
    deps = config["Build Dependencies"]
    return {
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version')}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version')}",
        "machine": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
    }


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def test_every_case_has_a_digest():
    assert sorted(corpus()["digests"]) == sorted(CASES)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_keeps_its_digest(name, threads, monkeypatch):
    recorded, here = corpus(), build()
    if here != recorded["build"]:
        pytest.skip(f"digests recorded on {recorded['build']}; this build is {here}")
    monkeypatch.setenv("STARFN_THREADS", threads)
    assert digest(CASES[name]()) == recorded["digests"][name]


if __name__ == "__main__":
    old = corpus()["digests"] if CORPUS_PATH.exists() else {}
    digests = {}
    for name, case in CASES.items():
        found = set()
        for threads in ("1", "2"):
            os.environ["STARFN_THREADS"] = threads
            found.add(digest(case()))
        if len(found) != 1:
            raise SystemExit(f"{name} differs between STARFN_THREADS 1 and 2")
        digests[name] = found.pop()
        state = "new" if name not in old else "held" if old[name] == digests[name] else "moved"
        print(f"{name}: {old.get(name, '-')} -> {digests[name]} {state}")
    text = json.dumps({"build": build(), "digests": digests}, indent=2)
    CORPUS_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {CORPUS_PATH}")
