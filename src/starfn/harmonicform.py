"""Canonical products, Taylor-coefficient structure, and the harmonic form.

One-variable meromorphic functions whose zeros sit on a single ray and poles
on the opposite ray can be written f(z) = P(e^{i theta_hat} z) with

    P(u) = e^{gamma u} * prod_m (1 + u/r_m) / prod_m (1 - u/s_m),

gamma >= 0, r_m, s_m > 0.  Their Taylor data has a rigid structure: with
c(1) = gamma + sum 1/r_m + sum 1/s_m and
c(k) = sum (-1)^{k+1}/r_m^k + sum 1/s_m^k for k >= 2,

    f^{(m+1)}(0) = sum_{k=0}^{m} binom(m,k) k! c(k+1) e^{i(k+1) theta_hat}
                   f^{(m-k)}(0),

and d_k = f^{(k)}(0) e^{-ik theta_hat} is real.  In several variables the
star-function average is harmonic (not merely subharmonic) exactly when
F(Z) = P(Z . eta) for such a P; this module detects and verifies that form.
P needs no reconstruction: with e_J the coordinate axis on which |eta_J| is
largest and q = eta_J, Z = (u/q) e_J has Z . eta = u, so P(u) = F((u/q) e_J)
is F's own slice g/h along e_J, scaled by q.  F = G/H is a function of
Z . eta exactly when the polynomial identity G(Z) h(l) = H(Z) g(l) holds for
l = Z . eta / q, and P must have its zeros on one ray and poles on the
opposite ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

import numpy as np

from .funcdef import MeroFunction, MultiPoly, linear_form, load_json_object
from .slicing import (
    Direction, check_positive, horner_rows, make_slice, slice_coefficients, slice_divisor
)
from .sphere import mean_value_differences
from .starcore import check_circle, star_rings

__all__ = [
    "HARMONIC_TOL",
    "REAL_TOL",
    "CanonicalProduct",
    "TaylorCoeffs",
    "HarmonicForm",
    "DetectionReport",
    "load_canonical_product",
    "product_taylor_coeffs",
    "detect_harmonic_form",
    "verify_harmonic_form",
    "ray_alignment",
    "slice_harmonicity_test",
]

#: largest per-degree relative residual of G h(l) - H g(l) that
#: detect_harmonic_form accepts as the identity F(Z) = P(Z . eta)
REAL_TOL = 1e-9
#: angular tolerance (radians) for the ray geometry of the reconstructed P
RAY_TOL = 1e-6
#: largest |circle mean - centre| of T* that the harmonic-slice test accepts
HARMONIC_TOL = 1e-3
#: verify_harmonic_form redraws a point unless |H(Z)| is at least this
#: fraction of sum_alpha |h_alpha| |Z^alpha|, the scale of H's rounding
#: error.  For F = 1/(1-3 z1)^12 at radius 0.5, whose P is F's slice along
#: e_1, this fraction keeps the residual within 1.9e-15 (seeds 0-3)
POLE_SCREEN = 0.03


@dataclass(frozen=True)
class CanonicalProduct:
    """f(z) = P(e^{i rotation} z) with P built from gamma, {r_m}, {s_m}."""

    gamma: float
    rotation: float
    zero_moduli: tuple[float, ...]
    pole_moduli: tuple[float, ...]

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        object.__setattr__(self, "zero_moduli", tuple(float(r) for r in self.zero_moduli))
        object.__setattr__(self, "pole_moduli", tuple(float(s) for s in self.pole_moduli))
        if any(r <= 0 for r in self.zero_moduli + self.pole_moduli):
            raise ValueError("zero/pole moduli must be positive")


@dataclass(frozen=True)
class TaylorCoeffs:
    """Taylor data of a canonical product at 0.

    coeffs[k] = f^{(k)}(0)/k!; c_sums[k] = c(k) for k >= 1 (index 0 unused,
    kept 0.0); d_values[k] = f^{(k)}(0) e^{-ik theta_hat}, certified real.
    """

    K: int
    coeffs: tuple[complex, ...]
    c_sums: tuple[float, ...]
    d_values: tuple[float, ...]

    def __post_init__(self):
        if self.K < 0 or len(self.coeffs) != self.K + 1:
            raise ValueError("coeffs must have length K+1")
        if self.coeffs[0] != 1:
            raise ValueError("coeffs[0] must be 1 (f(0) = 1)")


@dataclass(frozen=True)
class HarmonicForm:
    """F(Z) = P(Z . eta) with P(u) = sum_k profile[k] u^k (c0 = c1 = 1).

    The profile is P's Taylor series up to degree deg G + deg H;
    ``verify_harmonic_form`` reads P off F itself and uses eta alone.
    """

    eta: tuple[complex, ...]
    profile: tuple[complex, ...]
    residual: float

    def __post_init__(self):
        if all(e == 0 for e in self.eta) and self.profile != (1 + 0j,):
            raise ValueError("eta = 0 forces the trivial profile (F == 1)")


@dataclass(frozen=True)
class DetectionReport:
    detected: bool
    form: HarmonicForm | None
    per_degree_residuals: tuple[float, ...]
    ray: tuple[float, float] | None  # (theta_hat, max angular deviation)

    def __post_init__(self):
        if self.detected and self.form is None:
            raise ValueError("a positive detection must carry its form")


def load_canonical_product(source) -> CanonicalProduct:
    """Read {"gamma": g, "theta": t, "zeros": [...], "poles": [...]} or a JSON file of it."""
    data = load_json_object(source, "a canonical product")
    gamma, theta = data.get("gamma", 0.0), data.get("theta", 0.0)
    zeros, poles = data.get("zeros", []), data.get("poles", [])

    def real(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    lists = all(isinstance(v, (list, tuple)) and all(map(real, v)) for v in (zeros, poles))
    if not (real(gamma) and real(theta) and lists):
        raise ValueError('"gamma", "theta" must be numbers and "zeros", "poles" lists of numbers')
    return CanonicalProduct(float(gamma), float(theta), tuple(zeros), tuple(poles))


def product_taylor_coeffs(cp: CanonicalProduct, K: int) -> TaylorCoeffs:
    """Taylor coefficients of f up to order K via the c(k) recursion."""
    if K < 0:
        raise ValueError("K must be >= 0")
    rm = np.asarray(cp.zero_moduli)
    sm = np.asarray(cp.pole_moduli)
    c = [0.0] * (K + 1)
    if K >= 1:
        c[1] = cp.gamma + float((1.0 / rm).sum()) + float((1.0 / sm).sum())
    for k in range(2, K + 1):
        c[k] = float(((-1.0) ** (k + 1) / rm**k).sum()) + float((1.0 / sm**k).sum())

    # The recursion f^{(m+1)} = sum C(m,k) k! c(k+1) e^{i(k+1)th} f^{(m-k)}
    # factors the phases exactly: with d_j = f^{(j)}(0) e^{-ij th} it reads
    # d_{m+1} = sum C(m,k) k! c(k+1) d_{m-k} in real arithmetic.  Running it
    # on the d's keeps the reality of d_k exact instead of burying it under
    # phase-power roundoff.
    phase = complex(math.cos(cp.rotation), math.sin(cp.rotation))
    d_real = [1.0] + [0.0] * K
    for m in range(K):
        d_real[m + 1] = sum(
            comb(m, k) * factorial(k) * c[k + 1] * d_real[m - k] for k in range(m + 1)
        )
    derivs = [d_real[k] * phase**k for k in range(K + 1)]

    d_values = []
    for k, f_k in enumerate(derivs):
        d_k = f_k * phase ** (-k)
        if abs(d_k.imag) > 1e-12 * (1.0 + abs(d_k)):
            raise ArithmeticError(f"d_{k} = {d_k} failed the reality certificate")
        d_values.append(d_k.real)

    coeffs = tuple(f_k / factorial(k) for k, f_k in enumerate(derivs))
    return TaylorCoeffs(
        K=K, coeffs=coeffs, c_sums=tuple(c), d_values=tuple(d_values)
    )


# ---------------------------------------------------------------------------
# several-variable detection


def _probe(eta: Sequence[complex]) -> tuple[complex, Direction] | None:
    """(q, e_J) for the coordinate axis e_J on which |eta_J| is largest, with
    q = eta_J: Z = (u/q) e_J has Z . eta = u, so P(u) = F((u/q) e_J).  None
    for eta = 0, the trivial form P == 1."""
    if not any(eta):
        return None
    J = max(range(len(eta)), key=lambda j: abs(eta[j]))
    return eta[J], Direction(tuple(complex(i == J) for i in range(len(eta))))


def _wrap_angle(a: float) -> float:
    """Reduce to (-pi, pi]."""
    w = math.remainder(a, 2.0 * math.pi)
    return math.pi if w == -math.pi else w


def ray_alignment(
    roots: Sequence[complex], poles: Sequence[complex], tol_angle: float = RAY_TOL
) -> tuple[float | None, bool, float]:
    """Check that roots share one argument and poles the opposite one.

    Returns (theta_hat, aligned, max deviation); theta_hat rotates the roots
    onto the negative real axis and the poles onto the positive one, i.e.
    theta_hat = pi - (common root argument).  Empty input is vacuously
    aligned with theta_hat = None (the pure-exponential case).
    """
    pts = [complex(z) for z in roots] + [-complex(w) for w in poles]
    if not pts:
        return None, True, 0.0
    if any(z == 0 for z in pts):
        raise ValueError("roots/poles at the origin are not representable")
    units = [z / abs(z) for z in pts]
    mean = sum(units)
    beta = math.atan2(mean.imag, mean.real) if abs(mean) > 1e-12 * len(units) else (
        math.atan2(units[0].imag, units[0].real)
    )
    max_dev = max(
        abs(_wrap_angle(math.atan2(u.imag, u.real) - beta)) for u in units
    )
    return _wrap_angle(math.pi - beta), max_dev <= tol_angle, max_dev


def _compose(coeffs: Sequence[complex], ell: MultiPoly) -> MultiPoly:
    """p(ell) for p(u) = sum_k coeffs[k] u^k, by Horner's rule."""
    acc = MultiPoly.zero(ell.n)
    for c in reversed(coeffs):
        acc = acc * ell + MultiPoly.constant(ell.n, c)
    return acc


def _modulus(p: MultiPoly) -> MultiPoly:
    """p with every coefficient replaced by its modulus."""
    return MultiPoly(p.n, {e: abs(c) for e, c in p.terms.items()})


def _degree_norms(p: MultiPoly, K: int) -> list[float]:
    """max |coefficient| of p's degree-k part for k = 0..K (0 where empty)."""
    norms = [0.0] * (K + 1)
    for exp, c in p.terms.items():
        norms[sum(exp)] = max(norms[sum(exp)], abs(c))
    return norms


def detect_harmonic_form(F: MeroFunction, tol: float = REAL_TOL) -> DetectionReport:
    """Decide whether F(Z) = P(Z . eta) for a ray-structured P.

    eta = grad G(0) - grad H(0) is the linear part of G/H.  With q = eta_J on
    the axis e_J where |eta_J| is largest and g/h F's slice along e_J, the
    only candidate is P(u) = g(u/q)/h(u/q), and F = P(Z . eta) is the
    identity G(Z) h(l(Z)) = H(Z) g(l(Z)) for l(Z) = Z . eta / q.
    per_degree_residuals[k], k = 0..deg G + deg H, is the largest degree-k
    coefficient of the difference over the larger of the two sides' largest
    degree-k coefficient, with every coefficient of G, H, g, h and l taken by
    its modulus (0 where both sides vanish).  Detection needs each to be at
    most tol, and P's zeros and poles (the slice's, clustered and cancelled
    in pairs by ``slice_divisor``, scaled by q) on opposite rays, which the
    identity alone cannot enforce.  With P'(0) = eta_J / q = 1, such rays
    force theta_hat = 0.
    """
    n, G, H = F.n, F.numerator, F.denominator
    axes = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    eta = tuple(G.coefficient(e) - H.coefficient(e) for e in axes)
    probe = _probe(eta)
    if probe is None:  # P'(0) = 0, and only F == 1 has the form, with P == 1
        form = HarmonicForm(eta=eta, profile=(1 + 0j,), residual=0.0) if G == H else None
        return DetectionReport(form is not None, form, (), None)

    q, axis = probe
    div = slice_divisor(F, axis)
    g, h = div.pair.g.coeffs, div.pair.h.coeffs
    K = G.degree() + H.degree()
    ell = linear_form([e / q for e in eta], n)
    diff = _degree_norms(G * _compose(h, ell) - H * _compose(g, ell), K)
    # with all coefficients by their moduli each side bounds its rounding, and
    # is 0 in degree k only where the side has no term: each side of
    # (1 + L)/(1 - L), L = z1 + 49 z2, is 1e-16 in degree 1, from l_1 = fl(1/49)
    lhs_abs, rhs_abs = (
        _degree_norms(_modulus(P) * _compose([abs(c) for c in p], _modulus(ell)), K)
        for P, p in ((G, h), (H, g))
    )
    residuals = tuple(d / max(a, b) if d else 0.0 for d, a, b in zip(diff, lhs_abs, rhs_abs))

    zeros, poles = ([q * z for z, _ in points] for points in (div.zeros, div.poles))
    theta_hat, aligned, max_dev = ray_alignment(zeros, poles)
    ray = (theta_hat if theta_hat is not None else 0.0, max_dev)
    if not (aligned and max(residuals) <= tol):
        return DetectionReport(False, None, residuals, ray)

    # P(u) = (g/h)(u/q): the series of g/h by forward substitution (h_0 = 1)
    series: list[complex] = []
    for k in range(K + 1):
        tail = sum(h[j] * series[k - j] for j in range(1, min(k + 1, len(h))))
        series.append((g[k] if k < len(g) else 0j) - tail)
    profile = tuple(s / q**k for k, s in enumerate(series))
    form = HarmonicForm(eta=eta, profile=profile, residual=max(residuals))
    return DetectionReport(True, form, residuals, ray)


def verify_harmonic_form(
    F: MeroFunction,
    form: HarmonicForm,
    trials: int = 1000,
    seed: int = 0,
    radius: float = 0.3,
) -> float:
    """Max of |F(Z) - P(Z.eta)| / (1 + |F(Z)|) over random polydisk points.

    P(u) = g(u/q)/h(u/q), with g/h F's slice along the probe axis e_J and
    q = eta_J (P == 1 for eta = 0), so this tests exactly whether F is a
    function of Z . eta.  It reads eta and ignores ``form.profile``, which is
    F's Taylor data on that axis, and so cannot tell eta from a nonzero
    multiple of it.  Points where |H| is below POLE_SCREEN times its rounding
    scale, near the poles of F, are resampled with a bounded retry budget; a
    polynomial F has no poles, and its points are not screened.  A check of
    no point verifies nothing: trials >= 1 and a positive, finite radius.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_positive(radius, "radius")
    rng = np.random.default_rng(seed)
    n = F.n

    def draw(rows: int) -> np.ndarray:
        raw = rng.uniform(size=(rows, 2 * n))
        radii = radius * np.sqrt(raw[:, :n])
        angles = 2.0 * math.pi * raw[:, n:]
        return radii * np.cos(angles) + 1j * (radii * np.sin(angles))

    if F.denominator.degree():
        # p(Z) is the sum of the coefficients of p(z * Z) in z, and the sum of
        # |p_alpha| |Z^alpha| bounds the terms whose cancellation rounds it
        H_abs = _modulus(F.denominator)
        Z = np.empty((trials, n), dtype=complex)
        H = np.empty(trials, dtype=complex)
        scale = np.empty(trials)
        redraw = np.arange(trials)
        for _attempt in range(100):
            Z[redraw] = draw(redraw.size)
            H[redraw] = slice_coefficients(F.denominator, Z[redraw]).sum(axis=1)
            scale[redraw] = slice_coefficients(H_abs, np.abs(Z[redraw])).sum(axis=1).real
            redraw = np.nonzero(~(np.abs(H) >= POLE_SCREEN * scale))[0]
            if not redraw.size:
                break
        else:
            raise RuntimeError("could not sample away from the poles of F")
    else:  # H = H(0) = 1, which the screen cannot reject
        Z, H = draw(trials), 1.0
    f = slice_coefficients(F.numerator, Z).sum(axis=1) / H
    probe = _probe(form.eta)
    if probe is None:
        p = 1.0
    else:
        q, axis = probe
        pair = make_slice(F, axis)
        w = (Z * np.asarray(form.eta, dtype=complex)).sum(axis=1) / q
        p = horner_rows(pair.g.row, w)[0] / horner_rows(pair.h.row, w)[0]
    return float((np.abs(f - p) / (1.0 + np.abs(f))).max(initial=0.0))


def slice_harmonicity_test(
    F: MeroFunction,
    zeta: Direction,
    r_values: Sequence[float],
    theta_values: Sequence[float],
    M: int = 1024,
    tol: float = HARMONIC_TOL,
    rho: float | None = None,
    circle_nodes: int = 8,
) -> bool:
    """Discrete mean-value EQUALITY check for T*(., F_zeta) on a grid.

    True iff |circle mean - center| <= tol at every interior grid point.
    The subharmonic inequality always holds; equality at every point is the
    signature of a harmonic slice.  This is ``subharmonicity_stats``, stencil
    and T* kernel, on the one direction zeta: M is checked first, then the
    grid, once (``mean_value_differences``), and only then are the poles
    found.  All rings are one ``star_rings`` call, which evaluates and sorts
    the slice's circle once per ring radius and sums only the ranks the
    stencil reads, each value with the bits of a ``star_rows`` call of its
    own ring; the stencil adds that array one grid row at a time.
    """
    check_circle((), M)

    def totals(rings: Sequence[tuple[float, Sequence[float]]]) -> list[np.ndarray]:
        div = slice_divisor(F, zeta)
        poles = div.logroots(math.inf)
        return [star_rings(div.pair.g.row, div.pair.h.row, poles, rings, M)[:, None]]

    diffs = mean_value_differences(r_values, theta_values, rho, circle_nodes, totals)
    return bool(np.all(np.abs(diffs) <= tol))
