"""One-variable slices F_zeta(z) = F(z*zeta) and their counting functions.

A direction zeta on the unit sphere turns F = G/H into a rational function of
one variable with numerator g(z) = G(z*zeta) and denominator h(z) = H(z*zeta).
This module holds the slice engine that the single-slice API and the sphere
averages share.  Its primitives work on a batch of directions, one row each:
substitution (``slice_coefficients``), roots (``batched_roots``) and their
inclusion discs (``inclusion_radii``), circle evaluation (``horner_rows``,
``circle_log_values``), the indeterminacy rule (``root_separation``) and the
counting functions (``big_N_rows``, ``small_n_rows``)

    n(t, a)  —  number of a-points with |z| <= t, with multiplicity,
    N(r, a)  =  integral of n(t,a)/t from 0 to r
             =  sum of m_j * log(r / |z_j|) over |z_j| <= r   (exact form).

Root log-moduli are stored root-major, a C-contiguous (D, rows) array with
one column per row (``log_moduli``), so the counting functions work along
axis 0: one vectorised add per root slot, in slot order, not one reduce per
row.

The single-slice API runs them on a batch of one.  A ``Slice`` is F's slice
along one direction: its one-row coefficient arrays, and on first use its raw
roots, its divisor and the circle values of its last (r, M).  Its divisor
cancels common roots (a shared root is a removable factor of the slice, not
an a-point); the sphere averages skip such directions instead.  A
``Direction`` keeps the Slice of the last F it served, as a
``DirectionSample`` keeps its slice batch, so the single-slice queries find a
slice's roots once, and ``jensen_residual``, ``circle_log_samples`` and
``slice_star_total`` evaluate a circle once.  The Jensen residual is a
global consistency check: N(r,0) - N(r,inf) equals the circle mean of
log|F(r e^{ix} zeta)|.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .funcdef import MeroFunction, MultiPoly

__all__ = [
    "INDETERMINACY_TOL",
    "MIN_NODES",
    "Direction",
    "Slice",
    "CountingRecord",
    "SliceDivisor",
    "RootFindingError",
    "CircleProximityError",
    "make_slice",
    "slice_divisor",
    "counting_small_n",
    "counting_big_N",
    "counting_record",
    "jensen_residual",
    "indeterminacy_test",
]

#: a slice is indeterminate when a clustered g-root and a clustered h-root lie
#: within this distance: single-slice queries cancel the pair, sphere averages
#: skip the direction
INDETERMINACY_TOL = 1e-9
#: leading coefficients below this relative size are noise from collection
LEADING_TRIM = 1e-13

#: the fewest nodes a circle evaluation takes, checked in midpoint_angles
MIN_NODES = 16
#: how far a direction's norm may be from 1
NORM_TOL = 1e-14
_EPS = float(np.finfo(float).eps)


class RootFindingError(RuntimeError):
    """The companion-matrix eigenvalue iteration failed to converge."""


class CircleProximityError(ValueError):
    """A slice root lies too close to the quadrature circle |z| = r."""


def _finite_components(vec: Sequence[complex]) -> tuple[complex, ...]:
    """vec as a tuple of complex numbers, which must all be finite: a NaN
    norm would pass any norm check."""
    comps = tuple(complex(c) for c in vec)
    if not all(map(cmath.isfinite, comps)):
        raise ValueError(f"direction {comps} has a non-finite component")
    return comps


def _sum_of_squares(comps: tuple[complex, ...]) -> float:
    """The sum of |c|^2 over comps, inf where it overflows (Python's float
    power raises OverflowError there)."""
    try:
        return sum(abs(c) ** 2 for c in comps)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Direction:
    """A point zeta on the unit sphere of C^n.

    One slot takes no part in equality, hashing or repr: the ``Slice`` of
    the last F a single-slice query served on this direction.
    """

    components: tuple[complex, ...]
    _slice: Slice | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = _finite_components(self.components)
        object.__setattr__(self, "components", comps)
        norm = math.sqrt(_sum_of_squares(comps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"direction norm {norm} is not 1 within {NORM_TOL}")

    @classmethod
    def of(cls, vec: Sequence[complex]) -> "Direction":
        """Normalize a nonzero vector onto the sphere, first dividing it by its
        largest real or imaginary part if its sum of squares over- or underflows."""
        comps = _finite_components(vec)
        squares = _sum_of_squares(comps)
        if not sys.float_info.min <= squares < math.inf:
            big = max((max(abs(c.real), abs(c.imag)) for c in comps), default=0.0)
            if big == 0:
                raise ValueError("cannot normalize the zero vector")
            return cls.of([c / big for c in comps])
        norm = math.sqrt(squares)
        return cls(tuple(c / norm for c in comps))

    @property
    def n(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# batched slice primitives


def slice_coefficients(p: MultiPoly, dirs: np.ndarray) -> np.ndarray:
    """Ascending coefficients of p(z * zeta), one row per row zeta of dirs.

    Raises ValueError unless every coefficient has a finite modulus (np.abs),
    for one direction and a whole sample alike.

    Each product is w * power of two named arrays: numpy multiplies a
    one-element array in place with another complex loop, and may swap the
    operands of a product with a temporary; either changes the rounding, and
    a batch of one must give the bits of the same row in a larger batch.
    """
    count = dirs.shape[0]
    out = np.zeros((count, p.degree() + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for exp, c in p.ordered_terms():
            w = np.full(count, c, dtype=complex)
            for j, e in enumerate(exp):
                if e:
                    power = dirs[:, j] ** e
                    w = w * power
            out[:, sum(exp)] += w
        if not np.isfinite(np.abs(out)).all():
            raise ValueError("non-finite coefficient")
    return out


def batched_roots(coef: np.ndarray) -> np.ndarray:
    """Roots of each row (ascending coefficients); NaN-padded to max degree.

    Leading coefficients at or below LEADING_TRIM times the row's largest
    are collection noise and dropped; rows are grouped by the degree left.
    """
    count, width = coef.shape
    D = width - 1
    roots = np.full((count, D), np.nan, dtype=complex)
    mags = np.abs(coef)
    significant = mags > (LEADING_TRIM * mags.max(axis=1))[:, None]
    eff = width - 1 - np.argmax(significant[:, ::-1], axis=1)
    for d in sorted(set(eff.tolist())):
        idx = np.nonzero(eff == d)[0]
        if d == 0:
            continue
        if d == 1:
            roots[idx, 0] = -coef[idx, 0] / coef[idx, 1]
            continue
        monic = coef[idx, :d] / coef[idx, d][:, None]
        comp = np.zeros((idx.size, d, d), dtype=complex)
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] = -monic
        try:
            roots[idx, :d] = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError as exc:
            raise RootFindingError(f"root iteration did not converge: {exc}") from exc
    return roots


def horner_rows(coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of ascending coefficients evaluated at the points w: one
    vector of points for every row, or a (rows, points) array of them."""
    acc = np.empty((coef.shape[0], w.shape[-1]), dtype=complex)
    acc[:] = coef[:, -1:]
    for k in range(coef.shape[1] - 2, -1, -1):
        acc *= w
        acc += coef[:, k : k + 1]
    return acc


def circle_log_values(g_coef: np.ndarray, h_coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log|g(w)| - log|h(w)| row by row: -inf at a zero, +inf at a pole and
    NaN at a common zero of g and h (see starcore.sanitize_log_values)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(np.abs(horner_rows(g_coef, w)))
        vals -= np.log(np.abs(horner_rows(h_coef, w)))
    return vals


def log_moduli(roots: np.ndarray) -> np.ndarray:
    """log|z| of the NaN-padded roots of each row, root-major: a C-contiguous
    (D, rows) array, column i holding row i's, with +inf for the padding."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = np.log(np.abs(roots).T, order="C")
    lm[np.isnan(lm)] = np.inf
    return lm


def check_positive(value: float, name: str) -> None:
    """A radius r or a scale t of the counting functions is positive and
    finite; NaN is neither."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def check_target(a: float) -> None:
    """The counting functions count zeros (a = 0) or poles (a = inf)."""
    if not (a == 0 or math.isinf(a)):
        raise ValueError("target a must be 0 or inf")


def a_points(a: float, zeros, poles):
    """The a-points of a slice: its zeros for a = 0, its poles for a = inf."""
    check_target(a)
    return zeros if a == 0 else poles


def big_N_rows(logroots: np.ndarray, r) -> np.ndarray:
    """N(r) per row of the root-major (D, rows) log-moduli: sum of
    log(r/|z_j|) over the roots inside |z| <= r, for one radius r or an
    array of one radius per row.

    The root slots are added strictly in order, slot 0 first, one
    vectorised add per slot over all rows, so a row's value depends on its
    own column alone, in a batch of one too (where numpy's ``sum(axis=0)``
    would reduce a lone column of 8 or more slots pairwise).
    """
    log_r = math.log(r) if np.ndim(r) == 0 else np.array([math.log(x) for x in r])
    terms = log_r - logroots
    np.maximum(terms, 0.0, out=terms)
    total = np.zeros(logroots.shape[1])
    for slot in terms:
        total += slot
    return total


def small_n_rows(logroots: np.ndarray, t: float) -> np.ndarray:
    """n(t) per row of the root-major (D, rows) log-moduli: the number of
    roots with |z| <= t."""
    return (logroots <= math.log(t)).sum(axis=0).astype(float)


def inclusion_radii(coef: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Radius of each raw root's Weierstrass inclusion disc, NaN-padded like
    the roots that batched_roots found for the rows of coef.

    For a row of degree d with coefficients a_k and raw roots z_i it is
    d*(|p(z_i)| + 4*d*eps*sum_k |a_k||z_i|^k) / |a_d * prod_{j != i}(z_i - z_j)|,
    where the sum bounds the rounding of the coefficients and of p(z_i).
    The discs hold every root of the row, and a connected component of m
    overlapping discs holds exactly m of them (Bini & Fiorentino, Numer.
    Algorithms 23 (2000)), so the components are the row's multiple roots.
    It works on the transposed roots, so that numpy loops run along rows.
    """
    z = roots.T.copy()
    valid = ~np.isnan(z)
    degree = valid.sum(axis=0)
    z[~valid] = 0
    a = np.where(np.arange(coef.shape[1])[:, None] <= degree, coef.T, 0)
    abs_a = np.abs(a)
    modulus = np.abs(z)
    value = np.zeros_like(z)
    scale = np.zeros_like(modulus)
    for k in range(a.shape[0] - 1, -1, -1):
        value = value * z + a[k]
        scale = scale * modulus + abs_a[k]
    prod = np.ones_like(z)
    for j in range(z.shape[0]):
        diff = z - z[j]
        diff[j] = 1
        prod = prod * np.where(valid[j], diff, 1)
    lead = coef[np.arange(coef.shape[0]), degree]
    with np.errstate(divide="ignore", invalid="ignore"):
        radii = degree * (np.abs(value) + 4.0 * degree * _EPS * scale) / np.abs(lead * prod)
    return np.where(valid, radii, np.nan).T


def _meeting(coef: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """(rows, D, D): whether the inclusion discs of raw roots i and j of a
    row overlap; a disc does not meet itself, and NaN padding meets none."""
    count, width = roots.shape
    meet = np.empty((width, width, count), dtype=bool)
    block = 1024  # rows per block: the inclusion radii's temporaries stay small
    for lo in range(0, count, block):
        rows = slice(lo, lo + block)
        z, radii = roots[rows].T, inclusion_radii(coef[rows], roots[rows]).T
        for j in range(width):
            meet[j, :, rows] = np.abs(z - z[j]) <= radii + radii[j]
            meet[j, j, rows] = False
    return np.moveaxis(meet, 2, 0)


def _clusters(row: np.ndarray, meet: np.ndarray) -> list[tuple[complex, int]]:
    """One NaN-padded row of raw roots as (location, multiplicity) clusters:
    the connected components of its overlapping inclusion discs (meet is
    the row's _meeting matrix), each at the centroid of its raw roots."""
    reach = meet | np.eye(row.size, dtype=bool)
    for _ in range(row.size.bit_length()):
        reach = reach @ reach
    done = np.isnan(row)
    clusters = []
    for k in range(row.size):
        if not done[k]:
            done |= reach[k]
            members = row[reach[k]].tolist()
            clusters.append((sum(members) / len(members), len(members)))
    clusters.sort(key=lambda zm: (abs(zm[0]), zm[0].real, zm[0].imag))
    return clusters


def root_separation(
    g_coef: np.ndarray, g_roots: np.ndarray, h_coef: np.ndarray, h_roots: np.ndarray
) -> np.ndarray:
    """Per row, the least distance between a clustered g-root and h-root.

    Rows hold coefficients and their NaN-padded raw roots; +inf where either
    side has none.  A row where no two inclusion discs of g, nor two of h,
    overlap is measured on its raw roots, which are then its clusters; the
    other rows are clustered one by one.
    """
    count = g_roots.shape[0]
    g_meet, h_meet = _meeting(g_coef, g_roots), _meeting(h_coef, h_roots)
    sep = np.full(count, np.inf)
    if g_roots.shape[1] and h_roots.shape[1]:
        dist = np.abs(g_roots[:, :, None] - h_roots[:, None, :]).reshape(count, -1)
        sep = np.where(np.isnan(dist), np.inf, dist).min(axis=1)
    for i in np.nonzero(g_meet.any(axis=(1, 2)) | h_meet.any(axis=(1, 2)))[0]:
        gc = _clusters(g_roots[i], g_meet[i])
        hc = _clusters(h_roots[i], h_meet[i])
        sep[i] = min((abs(zg - zh) for zg, _ in gc for zh, _ in hc), default=math.inf)
    return sep


# ---------------------------------------------------------------------------
# single-slice views


@dataclass(frozen=True)
class CountingRecord:
    """n and N for one (r, a) query; a is 0 or math.inf."""

    r: float
    a: float
    small_n: int
    big_N: float

    def __post_init__(self):
        check_positive(self.r, "radius")
        check_target(self.a)
        if self.small_n < 0 or self.big_N < -1e-12:
            raise ValueError("counting functions are nonnegative")


@dataclass(frozen=True)
class SliceDivisor:
    """Zeros/poles of F_zeta after cancelling common roots of g and h.

    cancelled lists (g_root, h_root, multiplicity) pairs that were removed.
    """

    zeros: tuple[tuple[complex, int], ...]
    poles: tuple[tuple[complex, int], ...]
    cancelled: tuple[tuple[complex, complex, int], ...]

    def logroots(self, a: float) -> np.ndarray:
        """log|z| of the a-points (zeros for a = 0, poles for a = inf), one
        entry per unit of multiplicity, as a one-row batch: a read-only
        (D, 1) column, built on first use and kept with the divisor."""
        return a_points(a, *self._logroot_columns)

    @cached_property
    def _logroot_columns(self) -> tuple[np.ndarray, np.ndarray]:
        columns = []
        for points in (self.zeros, self.poles):
            flat = [z for z, m in points for _ in range(m)]
            column = log_moduli(np.array(flat, dtype=complex).reshape(1, -1))
            column.setflags(write=False)
            columns.append(column)
        return columns[0], columns[1]

    def big_N(self, r: float, a: float) -> float:
        return float(big_N_rows(self.logroots(a), r)[0])

    def small_n(self, t: float, a: float) -> int:
        return int(small_n_rows(self.logroots(a), t)[0])


@dataclass(frozen=True, eq=False)
class Slice:
    """F's slice along one direction as a batch of one; F is matched by
    identity.

    g and h are the read-only (1, degree + 1) ascending coefficient rows of
    g(z) = G(z*zeta) and h(z) = H(z*zeta), trailing exact zeros trimmed.
    Their raw roots and the divisor are found on first use and kept, and
    ``circle`` keeps the values of its last (r, M).
    """

    F: MeroFunction
    g: np.ndarray
    h: np.ndarray
    _circle: tuple[float, int, np.ndarray] | None = field(default=None, init=False, repr=False)

    @cached_property
    def g_roots(self) -> np.ndarray:
        """The raw roots of g, NaN-padded, as ``batched_roots`` finds them."""
        return batched_roots(self.g)

    @cached_property
    def h_roots(self) -> np.ndarray:
        """The raw roots of h, NaN-padded, as ``batched_roots`` finds them."""
        return batched_roots(self.h)

    @cached_property
    def divisor(self) -> SliceDivisor:
        """The roots of g and h clustered by their inclusion discs, with
        common g/h roots (within INDETERMINACY_TOL) cancelled in pairs."""
        zeros, poles = (
            [[z, m] for z, m in _clusters(roots[0], _meeting(coef, roots)[0])]
            for coef, roots in ((self.g, self.g_roots), (self.h, self.h_roots))
        )
        cancelled: list[tuple[complex, complex, int]] = []
        for zrec in zeros:
            for prec in poles:
                if prec[1] == 0:
                    continue
                if abs(zrec[0] - prec[0]) <= INDETERMINACY_TOL:
                    m = min(zrec[1], prec[1])
                    cancelled.append((zrec[0], prec[0], m))
                    zrec[1] -= m
                    prec[1] -= m
                    if zrec[1] == 0:
                        break
        return SliceDivisor(
            zeros=tuple((z, m) for z, m in zeros if m > 0),
            poles=tuple((z, m) for z, m in poles if m > 0),
            cancelled=tuple(cancelled),
        )

    def circle(self, r: float, M: int) -> np.ndarray:
        """log|g/h| at the M midpoint nodes of |z| = r, raw as
        circle_log_values gives them, read-only; the values of the last
        (r, M) are kept."""
        kept = self._circle
        if kept is not None and kept[0] == r and kept[1] == M:
            return kept[2]
        vals = circle_log_values(self.g, self.h, r * unit_nodes(M))[0]
        vals.setflags(write=False)
        object.__setattr__(self, "_circle", (r, M, vals))
        return vals


def make_slice(F: MeroFunction, zeta: Direction) -> Slice:
    """Restrict F to the complex line {z * zeta}: the Slice zeta keeps, when
    it keeps F's, and a new one otherwise (``slice_coefficients`` refuses
    a coefficient that overflows)."""
    kept = zeta._slice
    if kept is not None and kept.F is F:
        return kept
    if zeta.n != F.n:
        raise ValueError("direction dimension does not match F")
    dirs = np.array([zeta.components], dtype=complex)
    rows = []
    for p in (F.numerator, F.denominator):
        row = slice_coefficients(p, dirs)
        row = row[:, : np.flatnonzero(row[0])[-1] + 1]  # the constant term is 1
        row.setflags(write=False)
        rows.append(row)
    return Slice(F, *rows)


def _on_slice(F: MeroFunction, zeta: Direction, query):
    """query(s) for F's slice s along zeta (``make_slice``); zeta keeps a new
    slice once the query returns, so a failed query leaves the one before."""
    s = make_slice(F, zeta)
    result = query(s)
    if s is not zeta._slice:
        object.__setattr__(zeta, "_slice", s)
    return result


def slice_divisor(F: MeroFunction, zeta: Direction) -> SliceDivisor:
    """Slice zeros and poles with common g/h roots cancelled in pairs
    (``Slice.divisor``), found once per slice that zeta keeps."""
    return _on_slice(F, zeta, lambda s: s.divisor)


def counting_small_n(F: MeroFunction, zeta: Direction, t: float, a: float) -> int:
    """n(t, a; F_zeta): a-points with |z| <= t, counted with multiplicity."""
    check_positive(t, "t")
    return slice_divisor(F, zeta).small_n(t, a)


def counting_big_N(F: MeroFunction, zeta: Direction, r: float, a: float) -> float:
    """N(r, a; F_zeta) = sum of m_j log(r/|z_j|) over a-points in |z| <= r."""
    check_positive(r, "r")
    return slice_divisor(F, zeta).big_N(r, a)


def counting_record(F: MeroFunction, zeta: Direction, r: float, a: float) -> CountingRecord:
    """Bundle n(r,a) and N(r,a) computed from one root extraction."""
    check_positive(r, "r")
    div = slice_divisor(F, zeta)
    return CountingRecord(r=float(r), a=float(a), small_n=div.small_n(r, a), big_N=div.big_N(r, a))


def midpoint_angles(M: int) -> np.ndarray:
    """M midpoint-rule angles in (-pi, pi); nodes avoid exact axis angles."""
    if M < MIN_NODES:
        raise ValueError(f"M must be at least {MIN_NODES}, got {M}")
    return -math.pi + (np.arange(M) + 0.5) * (2.0 * math.pi / M)


@lru_cache(maxsize=4)
def unit_nodes(M: int) -> np.ndarray:
    """e^{ix} at the M midpoint angles, read-only and cached per M."""
    w = np.exp(1j * midpoint_angles(M))
    w.setflags(write=False)
    return w


def circle_values(F: MeroFunction, zeta: Direction, r: float, M: int) -> np.ndarray:
    """log|g/h| of F's slice at the M midpoint nodes of |z| = r, raw as
    circle_log_values gives them, read-only (``Slice.circle``).

    The slice zeta keeps holds the values of its last (r, M), r and M
    matched by value, so the circle queries on one slice evaluate it once.
    """
    return _on_slice(F, zeta, lambda s: s.circle(r, M))


def jensen_residual(F: MeroFunction, zeta: Direction, r: float, M: int) -> float:
    """|N(r,0) - N(r,inf) - circle mean of log|F|| with M midpoint nodes,
    the circle values being those ``circle_values`` keeps."""
    check_positive(r, "r")
    midpoint_angles(M)  # checks M before any root is found
    div = slice_divisor(F, zeta)
    roots = [z for z, _ in div.zeros + div.poles]
    roots += [z for zg, zh, _ in div.cancelled for z in (zg, zh)]
    for z in roots:
        if abs(abs(z) - r) < 1e-3 * r:
            raise CircleProximityError(
                f"root at |z|={abs(z):.6g} within 1e-3*r of the circle r={r}"
            )
    lhs = div.big_N(r, 0) - div.big_N(r, math.inf)
    return float(abs(lhs - circle_values(F, zeta, r, M).mean()))


def indeterminacy_test(F: MeroFunction, zeta: Direction) -> tuple[bool, float]:
    """Does the slice share a zero of g and h within INDETERMINACY_TOL?

    Returns (flag, separation): separation is the minimum distance between a
    g-root and an h-root (clustered locations), +inf if either set is empty.
    The sphere averages skip exactly the directions this flags.
    """
    sep = _on_slice(F, zeta, lambda s: float(root_separation(s.g, s.g_roots, s.h, s.h_roots)[0]))
    return sep <= INDETERMINACY_TOL, sep
