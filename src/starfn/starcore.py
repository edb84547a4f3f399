"""Slice star function T*(re^{i theta}, F_zeta) by two independent routes.

The star function of a slice is

    T*(re^{i theta}) = sup_E (1/2pi) int_E log|F(re^{ix} zeta)| dx + N(r, inf)

with the sup over subsets E of [-pi, pi] of measure 2*theta.  Discretely the
sup is solved by the bathtub principle — take the floor(theta*M/pi) largest
midpoint samples plus a linearly weighted fraction of the next one — and,
equivalently, by the level-threshold form

    (1/2pi) int log^+( log|F| - t ) dx + theta*t/pi

at the quantile t where the superlevel set has measure 2*theta.  Both forms
are computed here from the same samples and must agree to ~1e-10; their
agreement is one of the package's standing cross-checks.

``_top_means`` takes the bathtub value of sorted rows, one top-k sum per
rank k, and ``star_rows``, the one T* kernel, runs it on the slice
coefficients of all sampled directions or of a single one, in blocks of
``BLOCK_CELLS`` samples: 512 rows at M = 192, 96 at M = 1024, 24 at
M = 4096.  ``star_rings`` runs the same blocks (``run_blocks``) and circle
code (``_sorted_rows``) on one slice, one row per ring radius of a
stencil, and sums only the (ring, rank) pairs that the stencil's thetas
read.  A block's temporaries must fit one core's L2 cache (2 MiB on the
2-core host the size was measured on), and a block must be large enough
that its ~130 short numpy calls, each of which hands the GIL to the other
threads, do not spend the call in those hand-offs; 256-row blocks did (see
``BLOCK_CELLS``).  Circle samples need no roots: a common factor of g and h
cancels in log|g/h| up to rounding.

``star_rows`` takes its circle values from squared moduli.  With
a_k = g_k r^k, |g(re^{ix})|^2 is the real trigonometric polynomial
c_0 + 2 sum_l (Re c_l cos lx - Im c_l sin lx) whose coefficients are the
autocorrelation c_l = sum_k a_{k+l} conj(a_k) (``_circle_abs2``); so is
|h|^2, and the samples are log(|g|^2/|h|^2), twice log|g/h|.  The factor
1/2 is applied once, to the bathtub values: halving is exact, so this
equals halving every sample.

For g of degree d the rounding error of |g|^2 so computed is about
(2d+1) eps (sum_k |a_k|)^2 at every node, large against |g|^2 near a zero
on the circle; so a row is evaluated this way only when min |g|^2 and
min |h|^2 over the nodes are at least ``TRIG_GATE`` times their
(sum_k |a_k|)^2.  The gate bounds the error of a sample of such a row by
about (2d+1) eps / TRIG_GATE, with d the larger degree: 3e-9 at d = 6,
against eps / sqrt(TRIG_GATE) = 2e-13 for Horner's rule at the same node.
That is a worst case; on the benchmark pools T* moved by at most 3.7e-13
against Horner's rule (measured: 12 ``subharm`` F, 10 radii x 16 theta at
M = 192).  Any other row (a zero or pole near a
node, a NaN, an overflow) takes Horner's rule, which refuses a value that
overflows (``circle_log_values``), and ``sanitize_log_values``, its values
doubled.

The coefficients meet the cached basis (1, 2cos lx, -2sin lx) in BLAS gemms
of ``GEMM_ROWS`` = 8 rows: the rows are copied into a zero-padded
(ceil(rows/8), 8, 2d+1) stack, and ``np.matmul`` makes one gemm of the same
shape per 8 rows.  That gemm gives a row the same bits whatever its place
in the 8 and whatever its neighbours, so a row's values do not depend on
its batch, its block or STARFN_THREADS, nor (tested) on the BLAS thread
count.  The padding is what keeps a lone row, or the last few rows of a
block, off other routes with other bits: numpy sends a one-row product to
gemv, and unpadded products of 5, 7 or 19 rows changed a row's bits.
An 8-row product reads the basis once for 8 rows, where a gemv reads it for
every row (2.2 us a row at d = 6, M = 1024).  At d = 6, M = 1024 and at
d = 4, M = 4096 a call took the same time with one BLAS thread as with
OpenBLAS's default, serial and on 2 threads; a block-sized gemm was threaded
by OpenBLAS against the kernel's own threads (a 20k-row call at M = 1024
took 386 ms on 2 threads, against 230 for an ``np.einsum`` contraction).  So the circle
values carry the bits of the BLAS build as the roots carry LAPACK's;
``tests/digests.json`` records the build its digests were taken on.

``star_rows`` runs a call of more than one block on threads: STARFN_THREADS
of them if set (a positive integer), else one per CPU this process may run
on, and never more than the blocks.  Each thread runs one task that claims
the next unclaimed block until none is left, so a thread whose core is busy
elsewhere leaves its blocks to the others rather than holding up the call.
The pool lives for the call alone, and a one-block call starts no thread;
``slice_harmonicity_test``'s ``star_rings`` call, one row per ring radius,
is one block up to M = 4096.  ``sphere`` builds its slice batches on the
same threads (``run_blocks``).  numpy releases the GIL inside its array
loops, and every row's bits are those of the serial call.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain

import numpy as np

from .funcdef import MeroFunction
from .slicing import (
    MIN_NODES, Direction, big_N_rows, check_positive, circle_log_values, circle_values,
    midpoint_angles, slice_divisor, unit_nodes,
)

__all__ = [
    "LOG_FLOOR",
    "LOG_CEILING",
    "CircleSamples",
    "StarValue",
    "LevelValue",
    "circle_log_samples",
    "sanitize_log_values",
    "star_rearranged",
    "check_circle",
    "star_rows",
    "star_rings",
    "level_threshold",
    "star_thresholded",
    "slice_star_total",
]

#: clamp bounds for log|F| samples near zeros/poles on the circle
LOG_FLOOR = -1.0e4
LOG_CEILING = 1.0e4
#: star_rows evaluates a row through |g|^2 and |h|^2 only where each is at
#: least this fraction of its rounding scale (sum_k |a_k|)^2 at every node
TRIG_GATE = 1.0e-6
#: ... and where that scale stays below this bound; with g(0) = h(0) = 1 the
#: scale is at least 1, so |g|^2/|h|^2 lies within 1e-306..1e306
TRIG_SCALE_MAX = 1.0e300
#: star_rows's block size in samples (rows times M): 512 rows at M = 192.
#: On 2 threads a 16-theta call on 10k rows at M = 192 made ~860 GIL
#: hand-offs (voluntary context switches) with 256-row blocks and ~370 with
#: these, and took 29 against 40 ms (medians)
BLOCK_CELLS = 512 * 192
#: _circle_abs2 multiplies its coefficient rows by the basis this many at a
#: time, a lone or last group padded with zero rows, so every row takes the
#: same gemm kernel at the same shape
GEMM_ROWS = 8


@dataclass(frozen=True, eq=False)
class CircleSamples:
    """log|F(re^{ix_i} zeta)| at the M midpoint angles x_i.

    ``clipped`` counts samples clamped at either bound (floor hits near
    zeros, ceiling hits at exact poles).  ``values`` is read-only, and so
    is ``ascending``, their one sort, which the rearranged star and the
    level threshold read.
    """

    r: float
    direction: Direction
    M: int
    values: np.ndarray
    clipped: int

    def __post_init__(self):
        check_positive(self.r, "radius")
        if self.M < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} samples")
        if self.clipped < 0:
            raise ValueError(f"clipped must be >= 0, got {self.clipped}")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.M,):
            raise ValueError("values must have length M")
        # min and max are NaN if any value is, and NaN fails both tests
        if not (vals.min() >= LOG_FLOOR and vals.max() <= LOG_CEILING):
            raise ValueError("values must be finite and inside the clamp bounds")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def ascending(self) -> np.ndarray:
        asc = np.sort(self.values)
        asc.setflags(write=False)
        return asc


class LevelValue(float):
    """A threshold level t; ``degenerate`` marks an all-equal sample set."""

    degenerate: bool

    def __new__(cls, value: float, degenerate: bool = False):
        obj = super().__new__(cls, value)
        obj.degenerate = bool(degenerate)
        return obj


@dataclass(frozen=True)
class StarValue:
    """T* split into its integral part (fstar) and N(r, inf)."""

    r: float
    theta: float
    fstar: float
    big_N_inf: float
    total: float

    def __post_init__(self):
        if not 0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not all(math.isfinite(v) for v in (self.fstar, self.big_N_inf, self.total)):
            raise ValueError("a star value's fstar, big_N_inf and total must be finite")
        if self.total != self.fstar + self.big_N_inf:
            raise ValueError("total must equal fstar + big_N_inf exactly")


def split_theta(theta: float, M: int) -> tuple[int, float]:
    """theta*M/pi split into whole samples k and the fraction of sample k."""
    if not 0 <= theta <= math.pi:
        raise ValueError(f"theta={theta} outside [0, pi]")
    s = theta * M / math.pi
    k = int(math.floor(s))
    if k >= M:
        return M, 0.0
    return k, s - k


def _split_thetas(thetas: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """``split_theta`` of every entry of a float array, with its bits: the
    ranks k as integers and the fractions."""
    inside = (thetas >= 0) & (thetas <= math.pi)
    if not inside.all():
        raise ValueError(f"theta={thetas[~inside][0]} outside [0, pi]")
    s = thetas * M / math.pi
    k = np.floor(s)
    frac = s - k
    end = k >= M
    k[end] = M
    frac[end] = 0.0
    return k.astype(int), frac


def _top_means(asc: np.ndarray, thetas) -> np.ndarray:
    """Mean of the top 2*theta measure of each ascending row of asc, at each
    theta: shape (len(thetas),) + asc.shape[:-1].  A theta of rank k adds one
    sum of the top k entries, which depends on the row and k alone, to frac
    times entry M-1-k in place; one division by M ends the call.  Each value
    takes the operations of ``star_rearranged``, so has its bits."""
    M = asc.shape[-1]
    out = np.empty((len(thetas),) + asc.shape[:-1])
    tops: dict[int, np.ndarray] = {}
    for i, theta in enumerate(thetas):
        k, frac = split_theta(float(theta), M)
        top = tops.get(k)
        if top is None:
            top = tops[k] = np.add.reduce(asc[..., M - k :], axis=-1)
        if frac:
            row = out[i, ...]
            np.multiply(asc[..., M - 1 - k], frac, out=row)
            row += top
        else:
            out[i] = top
    out /= M
    return out


def sanitize_log_values(vals: np.ndarray) -> tuple[np.ndarray, int]:
    """Clamp log|F| samples into [LOG_FLOOR, LOG_CEILING], counting clips.

    A node landing exactly on a slice zero gives -inf (clamped to the
    floor), an exact pole gives +inf (clamped to the ceiling), and an exact
    zero of both g and h gives NaN, which is the removable 0/0 of a common
    factor and is set to 0.  ``circle_log_values`` refuses values that
    overflow, so a NaN here is such a zero.
    """
    vals = np.where(np.isnan(vals), 0.0, vals)
    clipped = int(np.count_nonzero((vals < LOG_FLOOR) | (vals > LOG_CEILING)))
    return np.clip(vals, LOG_FLOOR, LOG_CEILING), clipped


def check_circle(thetas, M: int) -> None:
    """star_rows's checks of M and theta, for callers to make before costly work."""
    unit_nodes(M)
    for theta in thetas:
        split_theta(theta, M)


@lru_cache(maxsize=8)
def _circle_tables(M: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For degree d at M nodes: the exponents 0..d as a column; k + l at
    [k, l] for k, l = 0..d; and the rows 1, 2cos(lx), then -2sin(lx), for
    l = 1..d at the M midpoint angles x.  Read-only and cached."""
    powers = np.arange(d + 1.0)[:, None]
    lags = np.add.outer(np.arange(d + 1), np.arange(d + 1))
    lx = np.arange(1, d + 1)[:, None] * midpoint_angles(M)
    basis = np.concatenate([np.ones((1, M)), 2.0 * np.cos(lx), -2.0 * np.sin(lx)])
    for table in (powers, lags, basis):
        table.setflags(write=False)
    return powers, lags, basis


def _circle_abs2(coef: np.ndarray, r, M: int) -> tuple[np.ndarray, np.ndarray]:
    """|p(re^{ix})|^2 at the M midpoint angles for each row p of ascending
    coefficients, (rows, M), or (rows, 1) for constant rows; and a mask of
    the rows with min |p|^2 >= TRIG_GATE * (sum_k |p_k| r^k)^2 and that
    scale below TRIG_SCALE_MAX (False for a NaN).  r is one radius, or an
    array of one radius per row.

    Every step is row-wise and in a fixed order, so a row's bits do not
    depend on the other rows.
    """
    d = coef.shape[1] - 1
    if not d:  # |p_0|^2 at every node, exact up to rounding: only its size is tested
        values = np.abs(coef) ** 2
        return values, values[:, 0] < TRIG_SCALE_MAX
    # a_k = p_k r^k as column k of a zero-padded (2d+1, rows) array, so that
    # each sum below adds whole rows in order of k
    powers, lags, basis = _circle_tables(M, d)
    rows = coef.shape[0]
    padded = np.zeros((2 * d + 1, rows), dtype=complex)
    a = padded[: d + 1]
    np.multiply(coef.T, r**powers, out=a)
    scale = np.add.reduce(np.abs(a), axis=0) ** 2
    c = np.add.reduce(padded.take(lags, axis=0) * a.conj()[:, None, :], axis=0)  # (d+1, rows)
    # GEMM_ROWS-row gemms on rows copied into a zero-padded stack (module docstring)
    trig = np.zeros((rows + (-rows % GEMM_ROWS), 2 * d + 1))
    trig[:rows, : d + 1] = c.real.T
    trig[:rows, d + 1 :] = c.imag[1:].T
    values = np.matmul(trig.reshape(-1, GEMM_ROWS, 2 * d + 1), basis).reshape(-1, M)[:rows]
    ok = (np.minimum.reduce(values, axis=1) >= TRIG_GATE * scale) & (scale < TRIG_SCALE_MAX)
    return values, ok


def _thread_count(blocks: int) -> int:
    """Threads for a call of this many blocks: STARFN_THREADS if set, else
    the CPUs this process may run on; never more than the blocks."""
    env = os.environ.get("STARFN_THREADS")
    if env is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            cpus = os.cpu_count() or 1
    else:
        try:
            cpus = int(env)
        except ValueError:
            cpus = 0
        if cpus < 1:
            raise ValueError(f"STARFN_THREADS must be a positive integer, got {env!r}")
    return max(1, min(cpus, blocks))


def _sorted_rows(g_coef: np.ndarray, h_coef: np.ndarray, r, M: int) -> np.ndarray:
    """2 log|g/h| at the M midpoint angles for the slices g_coef/h_coef, one
    per row, each row sorted ascending: from |g|^2/|h|^2 where both rows
    pass the gate, else from Horner's rule, sanitized and doubled.  r is one
    radius or an array of one radius per row."""
    n = g_coef.shape[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, p_ok = _circle_abs2(g_coef, r, M)
        q, q_ok = _circle_abs2(h_coef, r, M)
        ok = p_ok & q_ok
        # the quotient overwrites p, or q where g is constant (p is then a
        # column), so a block holds one (n, M) array less
        vals = p if p.shape[1] == M else q if q.shape[1] == M else np.empty((n, M))
        np.divide(p, q, out=vals)
        np.log(vals, out=vals)
    if not ok.all():
        bad = ~ok
        w = (r[bad, None] if np.ndim(r) else r) * unit_nodes(M)
        fallback, _ = sanitize_log_values(circle_log_values(g_coef[bad], h_coef[bad], w))
        vals[bad] = 2.0 * fallback
    vals.sort(axis=-1)
    return vals


def run_blocks(rows: int, chunk: int, block) -> None:
    """block(lo, hi) over rows 0..rows-1 in blocks of chunk rows; each of
    ``_thread_count`` threads claims the next unclaimed block until none is
    left, and a one-block call starts no thread.  Once a block raises, no
    further block is handed out, and the call raises that error."""
    starts = iter(range(0, rows, chunk))
    claim = threading.Lock()

    def work() -> None:
        # a fixed share per thread would wait for the slowest thread; taking
        # the next unclaimed block lets a thread on a busy core do fewer
        nonlocal starts
        while True:
            with claim:
                lo = next(starts, None)
            if lo is None:
                return
            try:
                block(lo, min(lo + chunk, rows))
            except BaseException:
                with claim:
                    starts = iter(())
                raise

    threads = _thread_count(-(-rows // chunk))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for task in [pool.submit(work) for _ in range(threads)]:
                task.result()
    else:
        work()


def star_rows(
    g_coef: np.ndarray, h_coef: np.ndarray, pole_logroots: np.ndarray, r, thetas, M: int
) -> np.ndarray:
    """T* = F* + N(r, inf) at each theta for the slices g_coef/h_coef, one
    per row, with poles at log-moduli pole_logroots, one per column (the
    root-major (D, rows) layout of ``big_N_rows``): array (len(thetas), rows),
    at the one radius r.  Rows run in blocks of BLOCK_CELLS samples
    (``run_blocks``).  A row's arithmetic does not depend on its block, so
    neither does the result.  The values log(|g|^2/|h|^2) (module
    docstring) are halved after the bathtub."""
    unit_nodes(M)
    out = np.empty((len(thetas), g_coef.shape[0]))

    def block(lo: int, hi: int) -> None:
        out[:, lo:hi] = _top_means(_sorted_rows(g_coef[lo:hi], h_coef[lo:hi], r, M), thetas)

    run_blocks(g_coef.shape[0], max(1, BLOCK_CELLS // M), block)
    out *= 0.5
    out += big_N_rows(pole_logroots, r)
    return out


def star_rings(
    g_coef: np.ndarray, h_coef: np.ndarray, pole_logroots: np.ndarray, rings, M: int
) -> np.ndarray:
    """T* of the one slice g_coef/h_coef (a row each, its poles' log-moduli
    a column) at every (radius, theta) of rings, a sequence of (radius,
    thetas) pairs: all rings' values in one array, in ring order.  A ring's
    values have the bits of ``star_rows(g_coef, h_coef, pole_logroots,
    radius, thetas, M)[:, 0]``.

    Each ring is a row of ``run_blocks``, with one circle evaluation and
    sort (``_sorted_rows``); its block then takes one top-k sum per (ring,
    rank) that the thetas read, where ``star_rows`` sums every rank of
    every row.  The rest is vectorised over all values with the operations
    of ``_top_means`` and ``star_rows``, value by value: frac times the
    entry below the top k plus their sum, over M, halved, plus
    N(radius, inf).  Where frac is 0, ``_top_means`` takes the sum alone;
    adding frac times a finite entry, +-0, leaves a sum's bits, and a sum
    of sorted log values, which are finite and never -0, is never -0."""
    unit_nodes(M)
    count = len(rings)
    radii = np.array([float(radius) for radius, _ in rings])
    sizes = [len(thetas) for _, thetas in rings]
    starts = [0, *accumulate(sizes)]
    ring = np.repeat(np.arange(count), sizes)
    k, frac = _split_thetas(np.fromiter(chain.from_iterable(t for _, t in rings), float, starts[-1]), M)
    top = np.empty(starts[-1])
    below = np.empty(starts[-1])

    def block(lo: int, hi: int) -> None:
        n = hi - lo
        asc = _sorted_rows(np.repeat(g_coef, n, axis=0), np.repeat(h_coef, n, axis=0), radii[lo:hi], M)
        span = slice(starts[lo], starts[hi])
        rows, ranks = ring[span] - lo, k[span]
        flat = asc.ravel()
        ends = ((rows + 1) * M).tolist()
        sums: dict[tuple[int, int], float] = {}
        tops = []
        for key in zip(ends, ranks.tolist()):
            total = sums.get(key)
            if total is None:  # the top k entries of a row: flat[end - k : end]
                total = sums[key] = np.add.reduce(flat[key[0] - key[1] : key[0]])
            tops.append(total)
        top[span] = tops
        # entry M-1-k, below the top k; at k = M, where frac is 0, entry 0 stands in
        below[span] = asc[rows, np.maximum(M - 1 - ranks, 0)]

    run_blocks(count, max(1, BLOCK_CELLS // M), block)
    values = np.multiply(below, frac)
    values += top
    values /= M
    values *= 0.5
    values += big_N_rows(np.repeat(pole_logroots, count, axis=1), radii)[ring]
    return values


def circle_log_samples(F: MeroFunction, zeta: Direction, r: float, M: int = 4096) -> CircleSamples:
    """Midpoint samples of log|F(re^{ix} zeta)|, clamped to [floor, ceiling],
    from the circle values of the slice zeta keeps (``slicing.circle_values``):
    a ``jensen_residual`` or ``slice_star_total`` at the same (F, r, M)
    shares one evaluation with this call.

    If g_zeta and h_zeta share roots (indeterminate direction) the cancelled
    slice is sampled, consistent with the counting functions.
    """
    vals, clipped = sanitize_log_values(circle_values(F, zeta, r, M))
    return CircleSamples(r=float(r), direction=zeta, M=M, values=vals, clipped=clipped)


def star_rearranged(samples: CircleSamples, theta: float) -> float:
    """sup_{|E|=2 theta} (1/2pi) int_E log|F| dx: the mean of the 2*theta
    measure worth of top samples (bathtub principle).  The one-rank case of
    ``_top_means``, with its bits."""
    asc, M = samples.ascending, samples.M
    k, frac = split_theta(float(theta), M)
    top = np.add.reduce(asc[M - k :])
    if frac:
        top = top + frac * asc[M - 1 - k]
    return float(top / M)


def level_threshold(samples: CircleSamples, theta: float) -> LevelValue:
    """The level t whose superlevel set has discrete measure 2*theta.

    Ties are resolved by sorted order; for an all-equal sample vector the
    common value is returned with ``degenerate=True``.
    """
    if not 0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    asc = samples.ascending
    # theta < pi, yet k = M can come out of rounding (M = 23 just below pi)
    k, _ = split_theta(theta, samples.M)
    return LevelValue(float(asc[-1 - min(k, samples.M - 1)]), bool(asc[0] == asc[-1]))


def star_thresholded(samples: CircleSamples, theta: float) -> float:
    """Level-set form: (1/2pi) int (log|F| - t)^+ dx + theta*t/pi."""
    t = level_threshold(samples, theta)
    excess = float(np.maximum(samples.values - float(t), 0.0).sum()) / samples.M
    return excess + theta * float(t) / math.pi


def slice_star_total(
    F: MeroFunction, zeta: Direction, r: float, theta: float, M: int = 4096
) -> StarValue:
    """T*(re^{i theta}, F_zeta) = rearranged star + N(r, inf; F_zeta), from
    the circle samples of ``circle_log_samples``."""
    div = slice_divisor(F, zeta)
    fstar = star_rearranged(circle_log_samples(F, zeta, r, M), theta)
    n_inf = div.big_N(r, math.inf)
    return StarValue(r=float(r), theta=float(theta), fstar=fstar, big_N_inf=n_inf, total=fstar + n_inf)
