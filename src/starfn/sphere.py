"""Sphere averages: star function, counting functions and Lelong numbers.

The several-variable star function is the average of the slice stars over
the unit sphere,

    T*(re^{i theta}, F) = mean over zeta of T*(re^{i theta}, F_zeta),

estimated by Monte Carlo with directions drawn uniformly on S^{2n-1}
(normalized 2n-dimensional Gaussians).  Directions that
``slicing.indeterminacy_test`` flags are skipped and counted — that set has
measure zero, so skips are rare and the estimate is unbiased in the limit.

Everything slice-related is evaluated for all directions at once, with the
batched primitives of ``slicing`` and the T* kernel ``starcore.star_rows``
that the single-slice API runs too.  The slices of F along a
sample are one ``SliceBatch``, which ``DirectionSample.slices(F)`` builds:
T*, the counting functions and the Lelong numbers all come from it.  The
sample keeps the batch of the last F it served, so calls that share
(F, sample) find the roots once, with unchanged results.  The kernel may
run on several threads (``starcore`` says how many), but each direction's
T* is computed alone and the estimates sum the directions in one fixed
order, so results are bit-identical for a fixed seed at any STARFN_THREADS.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .funcdef import MeroFunction
from .slicing import (
    INDETERMINACY_TOL,
    NORM_TOL,
    a_points,
    batched_roots,
    big_N_rows,
    check_positive,
    check_target,
    log_moduli,
    root_separation,
    slice_coefficients,
    small_n_rows,
)
from .starcore import check_circle, star_rows

__all__ = [
    "AllDirectionsSkippedError",
    "DirectionSample",
    "Estimate",
    "StarGrid",
    "PointStat",
    "SliceBatch",
    "Violation",
    "sample_directions",
    "star_several",
    "counting_several",
    "lelong_number",
    "star_grid",
    "subharmonicity_stats",
    "subharmonicity_report",
]

#: the quadrature slack in subharmonicity_report's allowance for a point
QUAD_SLACK = 1e-4


class AllDirectionsSkippedError(RuntimeError):
    """Every sampled direction was near-indeterminate; no estimate possible."""


@dataclass(frozen=True, eq=False)
class SliceBatch:
    """The slices F_zeta of a sample's kept (non-indeterminate) directions.

    One row per kept direction: ascending coefficients of g and h, and one
    column per kept direction: the log-moduli of their roots (+inf padding),
    root-major as ``slicing.log_moduli`` stores them, so that the counting
    functions add one root slot at a time.  The arrays are read-only.
    """

    total: int
    g_coef: np.ndarray  # (kept, deg_g+1) complex
    h_coef: np.ndarray
    g_logroots: np.ndarray  # (deg_g, kept) float, C-contiguous
    h_logroots: np.ndarray

    def __post_init__(self):
        for array in (self.g_coef, self.h_coef, self.g_logroots, self.h_logroots):
            array.setflags(write=False)

    @property
    def kept(self) -> int:
        return self.g_coef.shape[0]

    @property
    def skipped(self) -> int:
        return self.total - self.kept

    def logroots(self, a: float) -> np.ndarray:
        """log|z| of the a-points (zeros for a = 0, poles for a = inf)."""
        return a_points(a, self.g_logroots, self.h_logroots)

    def star_totals(self, r: float, thetas, M: int) -> np.ndarray:
        """T*(r e^{i theta}) of every kept slice: array (len(thetas), kept)."""
        return star_rows(self.g_coef, self.h_coef, self.h_logroots, r, thetas, M)


@dataclass(frozen=True, eq=False)
class DirectionSample:
    """Reproducible i.i.d. uniform directions on the unit sphere of C^n.

    ``directions`` is a read-only (count, n) complex array, one direction
    per row.  ``slices(F)`` builds the slice batch of F and keeps the one of
    the last F it served.
    """

    n: int
    seed: int
    count: int
    directions: np.ndarray
    _slot: tuple[MeroFunction, SliceBatch] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        dirs = np.array(self.directions, dtype=complex)
        if self.count < 1 or dirs.shape != (self.count, self.n):
            raise ValueError("directions must be a (count, n) array with count >= 1")
        finite = np.isfinite(dirs).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"direction {row} {tuple(dirs[row].tolist())} has a non-finite component")
        norms = np.sqrt((np.abs(dirs) ** 2).sum(axis=1))
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            raise ValueError(f"every direction must have norm 1 within {NORM_TOL}")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)

    def slices(self, F: MeroFunction) -> SliceBatch:
        """The slices of F along these directions, indeterminate ones skipped.

        F and the sample are immutable, so the batch of the last F (by
        identity) is kept and returned again.  A miss drops the kept batch
        before building; a failure is raised and never kept.
        """
        slot = self._slot
        if slot is not None and slot[0] is F:
            return slot[1]
        if self.n != F.n:
            raise ValueError("sample dimension does not match F")
        object.__setattr__(self, "_slot", None)
        g_coef = slice_coefficients(F.numerator, self.directions)
        h_coef = slice_coefficients(F.denominator, self.directions)
        g_roots = batched_roots(g_coef)
        h_roots = batched_roots(h_coef)
        keep = root_separation(g_coef, g_roots, h_coef, h_roots) > INDETERMINACY_TOL
        if not keep.any():
            raise AllDirectionsSkippedError(
                "all sampled directions were near-indeterminate (tol %.1e)" % INDETERMINACY_TOL
            )
        batch = SliceBatch(
            total=self.count,
            g_coef=g_coef[keep],
            h_coef=h_coef[keep],
            g_logroots=log_moduli(g_roots[keep]),
            h_logroots=log_moduli(h_roots[keep]),
        )
        object.__setattr__(self, "_slot", (F, batch))
        return batch


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error over the used directions."""

    mean: float
    stderr: float
    count_used: int

    def __post_init__(self):
        if self.count_used < 1:
            raise ValueError("an estimate needs at least one direction")
        if self.stderr < 0:
            raise ValueError("stderr is nonnegative")


def _check_sorted(*axes: Sequence[float]) -> None:
    if any(list(axis) != sorted(axis) for axis in axes):
        raise ValueError("grid axes must be sorted ascending")


@dataclass(frozen=True, eq=False)
class StarGrid:
    """star_several tabulated on an (r, theta) rectangle with shared sample."""

    r_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    cells: tuple[tuple[Estimate, ...], ...]
    sample: DirectionSample
    skipped: int

    def __post_init__(self):
        _check_sorted(self.r_values, self.theta_values)
        if len(self.cells) != len(self.r_values) or any(
            len(row) != len(self.theta_values) for row in self.cells
        ):
            raise ValueError("cells must be rectangular r x theta")


@dataclass(frozen=True)
class PointStat:
    """Discrete mean-value statistic at one interior grid point."""

    i: int
    j: int
    r: float
    theta: float
    mean_diff: float
    stderr: float


@dataclass(frozen=True)
class Violation(PointStat):
    """An interior point whose circle mean falls below the center value
    by more than the noise allowance."""

    threshold: float


def sample_directions(n: int, count: int, seed: int) -> DirectionSample:
    """Draw ``count`` uniform directions; deterministic per (n, count, seed)."""
    if n < 1 or count < 1:
        raise ValueError("n and count must be positive")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2 * n))
    vecs = raw[:, 0::2] + 1j * raw[:, 1::2]
    norms = np.sqrt((np.abs(vecs) ** 2).sum(axis=1))
    if np.any(norms == 0):  # probability zero, but be explicit
        raise RuntimeError("degenerate Gaussian draw")
    vecs /= norms[:, None]
    return DirectionSample(n=n, seed=int(seed), count=int(count), directions=vecs)


def _estimate(values: np.ndarray, count_used: int) -> Estimate:
    mean = float(values.mean())
    if count_used > 1:
        stderr = float(values.std(ddof=1) / math.sqrt(count_used))
    else:
        stderr = 0.0
    return Estimate(mean=mean, stderr=stderr, count_used=count_used)


# ---------------------------------------------------------------------------
# public averaging operations


def star_several(
    F: MeroFunction,
    r: float,
    theta: float,
    sample: DirectionSample,
    M: int = 4096,
) -> Estimate:
    """Mean of T*(re^{i theta}, F_zeta) over the sample's directions."""
    check_positive(r, "r")
    check_circle([theta], M)
    batch = sample.slices(F)
    return _estimate(batch.star_totals(r, [theta], M)[0], batch.kept)


def counting_several(F: MeroFunction, r: float, a: float, sample: DirectionSample) -> Estimate:
    """Mean of N(r, a; F_zeta) over the sample's directions."""
    check_positive(r, "r")
    check_target(a)
    batch = sample.slices(F)
    return _estimate(big_N_rows(batch.logroots(a), r), batch.kept)


def lelong_number(F: MeroFunction, t: float, a: float, sample: DirectionSample) -> Estimate:
    """Mean of n(t, a; F_zeta): the density of the a-divisor at scale t."""
    check_positive(t, "t")
    check_target(a)
    batch = sample.slices(F)
    return _estimate(small_n_rows(batch.logroots(a), t), batch.kept)


def check_grid(r_values: Sequence[float], theta_values: Sequence[float], M: int) -> None:
    """star_grid's checks of the axes and M, for callers to make before costly work."""
    for r in r_values:
        check_positive(r, "radii")
    _check_sorted(r_values, theta_values)
    check_circle(theta_values, M)


def star_grid(
    F: MeroFunction,
    r_values: Sequence[float],
    theta_values: Sequence[float],
    sample: DirectionSample,
    M: int = 4096,
) -> StarGrid:
    """Tabulate star_several on a rectangle, sharing one direction sample.

    Common random numbers: every cell is averaged over the same kept
    directions, so differences between neighboring cells are low-variance.
    """
    r_values = tuple(float(r) for r in r_values)
    theta_values = tuple(float(t) for t in theta_values)
    check_grid(r_values, theta_values, M)
    batch = sample.slices(F)
    rows = []
    for r in r_values:
        totals = batch.star_totals(r, theta_values, M)
        rows.append(tuple(_estimate(totals[ti], batch.kept) for ti in range(len(theta_values))))
    return StarGrid(
        r_values=r_values,
        theta_values=theta_values,
        cells=tuple(rows),
        sample=sample,
        skipped=batch.skipped,
    )


# ---------------------------------------------------------------------------
# subharmonicity verification


def default_rho(r_values: Sequence[float], theta_values: Sequence[float]) -> float:
    """Half the minimum Euclidean spacing between adjacent grid points."""
    dth = np.diff(theta_values)
    spacings = np.concatenate([np.diff(r_values), 2.0 * min(r_values) * np.sin(dth / 2.0)])
    return 0.5 * float(spacings.min())


def check_stencil(
    r_values: Sequence[float], theta_values: Sequence[float], rho: float | None, circle_nodes: int
) -> float:
    """mean_value_differences's checks, for callers to make before costly
    work: the grid, the circle nodes and the test disks.  Returns rho."""
    for r in r_values:
        check_positive(r, "radii")
    _check_sorted(r_values, theta_values)
    if len(r_values) < 3 or len(theta_values) < 3:
        raise ValueError("need at least a 3x3 grid for interior points")
    if circle_nodes < 4:
        raise ValueError("need at least 4 circle nodes")
    if rho is None:
        rho = default_rho(r_values, theta_values)
    check_positive(rho, "rho")
    for r in r_values[1:-1]:
        for th in theta_values[1:-1]:
            if r * math.sin(th) <= rho:
                raise ValueError(f"test disk at (r={r}, theta={th}) leaves the upper half-plane")
    return rho


@lru_cache(maxsize=8)
def _stencil_rings(
    r_values: tuple[float, ...], theta_values: tuple[float, ...], rho: float | None, circle_nodes: int
) -> tuple[tuple[tuple[float, tuple[float, ...]], ...], tuple[tuple[int, bool], ...]]:
    """The stencil of mean_value_differences on a grid, which it checks
    (``check_stencil``; rho None takes the default).  Returns the rings
    that ``totals`` gets, (radius, thetas) pairs, and then, in ring order,
    the interior row of each block of thetas - 2 values and whether it is
    a centre block.  Cached per grid, so repeated tests on one grid check
    and lay out their stencil once."""
    rho = check_stencil(r_values, theta_values, rho, circle_nodes)
    interior_r, interior_t = r_values[1:-1], theta_values[1:-1]
    psi = 2.0 * math.pi * np.arange(circle_nodes) / circle_nodes
    mirrored = np.arange(circle_nodes // 2 + 1, circle_nodes)
    rings: dict[float, tuple[list[float], list[int]]] = {}
    for ii, r in enumerate(interior_r):
        q = r + rho * np.exp(1j * psi)
        q[mirrored] = q[circle_nodes - mirrored].conj()
        radii, alphas = np.abs(q), np.angle(q)
        for c in range(circle_nodes):
            block = [th0 + float(alphas[c]) for th0 in interior_t]
            if not all(0.0 <= th <= math.pi for th in block):
                raise ValueError("circle node leaves the closed upper half-plane")
            thetas, rows = rings.setdefault(float(radii[c]), ([], []))
            thetas += block
            rows.append(ii)
    layout = [(radius, tuple(thetas)) for radius, (thetas, _) in rings.items()]
    blocks = [(ii, False) for _, rows in rings.values() for ii in rows]
    layout += [(r, interior_t) for r in interior_r]
    blocks += [(ii, True) for ii in range(len(interior_r))]
    return tuple(layout), tuple(blocks)


def mean_value_differences(
    r_values: Sequence[float],
    theta_values: Sequence[float],
    rho: float | None,
    circle_nodes: int,
    totals: Callable[[Sequence[tuple[float, Sequence[float]]]], Iterable[np.ndarray]],
) -> np.ndarray:
    """Circle mean minus centre value of T* at every interior grid point.

    Around each interior point z0 = r e^{i theta} the nodes sit on
    |z - z0| = rho at angles theta + angle(r + rho e^{2 pi i c/C}), so their
    radii |r + rho e^{2 pi i c/C}| are shared along grid rows and one circle
    evaluation serves a radius.  Node c > C/2 is taken as the exact conjugate
    of node C - c, so mirrored nodes share their radius bit for bit.  The
    grid is checked and its stencil laid out once per grid
    (``_stencil_rings``), before ``totals`` is called.
    ``totals(rings)`` takes every ring, a (radius, thetas) pair, the node
    radii first and then one centre ring per interior row, and returns T*
    at each ring's (radius, theta) in ring order, as arrays (values,
    columns) that each hold one or more whole rings, one column per
    direction.  A ring is a run of blocks of thetas - 2 values, one block
    per interior row and node (or centre) of its radius, so the arrays are
    added one block at a time: a node block to its row in place, in ring
    order; a centre block, last, is subtracted from its row's sum over C.
    The result has shape (rows - 2, thetas - 2, columns).
    """
    r_values = tuple(float(r) for r in r_values)
    theta_values = tuple(float(t) for t in theta_values)
    rings, blocks = _stencil_rings(r_values, theta_values, rho, circle_nodes)
    width = len(theta_values) - 2
    runs = (run for values in totals(rings) for run in values.reshape(-1, width, values.shape[1]))
    acc = None
    # centre blocks are last, after every node block of their row
    for (ii, centre), run in zip(blocks, runs, strict=True):
        if acc is None:
            acc = np.zeros((len(r_values) - 2, width, run.shape[1]))
        row = acc[ii]
        if centre:
            row /= circle_nodes
            row -= run
        else:
            row += run
    return acc


def subharmonicity_stats(
    F: MeroFunction,
    r_values: Sequence[float],
    theta_values: Sequence[float],
    sample: DirectionSample,
    M: int = 1024,
    rho: float | None = None,
    circle_nodes: int = 8,
) -> tuple[PointStat, ...]:
    """Discrete mean-value statistics of T*(., F) at interior grid points.

    For each interior z0 = r e^{i theta} the statistic is the average of
    T* over ``circle_nodes`` points of the circle |z - z0| = rho minus
    T*(z0), estimated per-direction with common random numbers on the nodes
    of ``mean_value_differences``, after its grid check.  Each ring is one
    lazy ``star_totals`` call, added a grid row at a time, so one ring's T*
    of every kept direction is held at a time.
    """
    check_circle((), M)

    def totals(rings: Sequence[tuple[float, Sequence[float]]]) -> Iterable[np.ndarray]:
        batch = sample.slices(F)
        return (batch.star_totals(radius, thetas, M) for radius, thetas in rings)

    diffs = mean_value_differences(r_values, theta_values, rho, circle_nodes, totals)
    stats = []
    for ii, r in enumerate(r_values[1:-1]):
        for jj, th in enumerate(theta_values[1:-1]):
            est = _estimate(diffs[ii, jj], diffs.shape[2])
            stats.append(
                PointStat(
                    i=ii + 1,
                    j=jj + 1,
                    r=float(r),
                    theta=float(th),
                    mean_diff=est.mean,
                    stderr=est.stderr,
                )
            )
    return tuple(stats)


def subharmonicity_report(
    F: MeroFunction,
    r_values: Sequence[float],
    theta_values: Sequence[float],
    sample: DirectionSample,
    M: int = 1024,
    rho: float | None = None,
    circle_nodes: int = 8,
) -> list[Violation]:
    """Interior points where the circle mean of T* undercuts the center.

    A subharmonic function satisfies mean >= center; a point is flagged when
    mean - center < -(3*stderr + QUAD_SLACK), i.e. beyond the Monte Carlo noise
    allowance plus the quadrature slack.
    """
    stats = subharmonicity_stats(
        F, r_values, theta_values, sample, M=M, rho=rho, circle_nodes=circle_nodes
    )
    violations = []
    for st in stats:
        threshold = -(3.0 * st.stderr + QUAD_SLACK)
        if st.mean_diff < threshold:
            violations.append(Violation(**asdict(st), threshold=threshold))
    return violations
