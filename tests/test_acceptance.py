"""Acceptance suite: one labeled PASS/FAIL line per criterion.

Each criterion is a single test.  The verdict lines are collected while the
tests run and printed after the module finishes (straight to the terminal,
past pytest's capture), so a full run ends with a readable scoreboard.
"""

import functools
import math
import sys
import time
from math import factorial

import numpy as np
import pytest

from starfn.funcdef import MeroFunction, MultiPoly, linear_form, parse_function
from starfn.harmonicform import (
    CanonicalProduct,
    detect_harmonic_form,
    product_taylor_coeffs,
    slice_harmonicity_test,
    verify_harmonic_form,
)
from starfn.slicing import (
    Direction,
    counting_big_N,
    indeterminacy_test,
    jensen_residual,
    slice_divisor,
)
from starfn.sphere import sample_directions, star_several, subharmonicity_report
from starfn.starcore import (
    circle_log_samples,
    slice_star_total,
    star_rearranged,
    star_thresholded,
)

ACCEPTANCE_LOG: list[str] = []
RADII = (0.5, 1.0, 2.0)
M_ACC = 8192


@pytest.fixture(scope="module", autouse=True)
def acceptance_report(request):
    yield
    capture = request.config.pluginmanager.getplugin("capturemanager")
    rule = "=" * 78
    with capture.global_and_fixture_disabled():
        print("\n".join(["", rule, "acceptance criteria", rule, *ACCEPTANCE_LOG, rule]),
              file=sys.__stdout__, flush=True)


def criterion(label, summary):
    """Record '<label>: PASS — summary (detail)' or a FAIL line on any error."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException as exc:
                ACCEPTANCE_LOG.append(f"{label:>12}: FAIL — {summary} [{exc!r:.120}]")
                raise
            extra = f" ({detail})" if detail else ""
            ACCEPTANCE_LOG.append(f"{label:>12}: PASS — {summary}{extra}")

        return run

    return wrap


# ---------------------------------------------------------------------------
# shared random instances (criteria 2-5 run on the same suite)


def _random_rational(rng, max_deg=4, terms=5):
    def random_poly():
        d = {}
        for _ in range(terms):
            e1 = int(rng.integers(0, max_deg + 1))
            e2 = int(rng.integers(0, max_deg + 1 - e1))
            if e1 == e2 == 0:
                continue
            d[(e1, e2)] = complex(rng.normal(), rng.normal())
        d[(0, 0)] = 1.0 + 0j
        return MultiPoly(2, d)

    return MeroFunction.from_polys(random_poly(), random_poly())


def _clear_of_circles(F, zeta):
    div = slice_divisor(F, zeta)  # the clustered roots of g and h, cancelled or not
    roots = [z for z, _ in div.zeros + div.poles]
    roots += [z for zg, zh, _ in div.cancelled for z in (zg, zh)]
    return not any(abs(abs(z) - r) < 1e-3 * r for z in roots for r in RADII)


def _admissible_direction(rng, F, tries=200):
    for _ in range(tries):
        raw = rng.normal(size=4)
        zeta = Direction.of((complex(raw[0], raw[1]), complex(raw[2], raw[3])))
        if not indeterminacy_test(F, zeta)[0] and _clear_of_circles(F, zeta):
            return zeta
    raise RuntimeError("no admissible direction found")


_SUITE: list | None = None


def _jensen_suite():
    global _SUITE
    if _SUITE is None:
        rng = np.random.default_rng(91)
        _SUITE = []
        for _ in range(100):
            F = _random_rational(rng)
            _SUITE.append((F, _admissible_direction(rng, F)))
    return _SUITE


# ---------------------------------------------------------------------------


@criterion("criterion 1", "slice counting discontinuity example")
def test_criterion_1_discontinuity_example():
    t0 = time.perf_counter()
    F = parse_function("(z1 - 1) / (z2 - 1)", 2)
    worst = 0.0
    for s in (0.3, 0.6, 0.7):
        zeta = Direction.of((math.sqrt(1.0 - s * s), s))
        got = counting_big_N(F, zeta, 2.0, math.inf)
        # the slice pole sits at |w| = 1/s: outside the disk of radius 2 for
        # s = 0.3, so the counting integral is 0 there, log 2 + log s beyond
        want = max(0.0, math.log(2.0 * s))
        worst = max(worst, abs(got - want))
    zeta0 = Direction.of((math.sqrt(0.5), math.sqrt(0.5)))
    fired, separation = indeterminacy_test(F, zeta0)
    n0 = counting_big_N(F, zeta0, 2.0, math.inf)
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-9
    assert fired and separation == 0.0
    assert n0 == 0.0
    assert elapsed < 1.0
    return f"max |N - max(0, log 2s)| = {worst:.1e}, N at zeta0 = {n0}, {elapsed:.2f}s"


@criterion("criterion 2", "Jensen identity residual <= 1e-6 on 100 random F x 3 radii")
def test_criterion_2_jensen_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for F, zeta in _jensen_suite():
        for r in RADII:
            worst = max(worst, jensen_residual(F, zeta, r, M_ACC))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-6
    assert elapsed < 10.0
    return f"worst residual {worst:.2e}, {elapsed:.2f}s"


@criterion("criterion 3", "theta=0 gives exactly 0; theta=pi matches N(r,0) to 1e-6")
def test_criterion_3_boundary_identities():
    worst = 0.0
    for F, zeta in _jensen_suite():
        for r in RADII:
            samples = circle_log_samples(F, zeta, r, M=M_ACC)
            assert star_rearranged(samples, 0.0) == 0.0
            total = slice_star_total(F, zeta, r, math.pi, M=M_ACC).total
            worst = max(worst, abs(total - counting_big_N(F, zeta, r, 0.0)))

    assert worst <= 1e-6
    return f"worst |T*(-r) - N(r,0)| = {worst:.2e}"


@criterion("criterion 4", "rearranged and level-threshold forms agree to 1e-10")
def test_criterion_4_method_equivalence():
    thetas = np.linspace(0.0, math.pi, 52)[1:-1]  # the level form needs 0 < theta < pi
    worst_ratio = 0.0
    for F, zeta in _jensen_suite():
        for r in RADII:
            samples = circle_log_samples(F, zeta, r, M=M_ACC)
            bound = 1e-10 * (1.0 + float(np.abs(samples.values).max()))
            gap = max(
                abs(star_rearranged(samples, th) - star_thresholded(samples, th))
                for th in thetas
            )
            worst_ratio = max(worst_ratio, gap / bound)

    assert worst_ratio <= 1.0
    return f"worst gap at {worst_ratio:.3f} of the 1e-10 allowance"


@criterion("criterion 5", "theta -> F* is concave at every rearrangement breakpoint")
def test_criterion_5_concavity():
    worst_ratio = 0.0
    for F, zeta in _jensen_suite():
        for r in RADII:
            samples = circle_log_samples(F, zeta, r, M=M_ACC)
            fs = np.array([star_rearranged(samples, k * math.pi / M_ACC) for k in range(M_ACC + 1)])
            second = fs[2:] - 2.0 * fs[1:-1] + fs[:-2]
            scale = 1e-12 * (1.0 + float(np.abs(fs).max()))
            worst_ratio = max(worst_ratio, float(second.max()) / scale)

    assert worst_ratio <= 1.0
    return f"largest second difference at {worst_ratio:.3f} of the 1e-12 allowance"


@criterion("criterion 6", "no mean-value violations beyond 3*stderr + 1e-4")
def test_criterion_6_subharmonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    r_values = np.linspace(0.5, 2.0, 10)
    theta_values = np.linspace(0.15, math.pi - 0.15, 10)
    sample = sample_directions(2, 10_000, seed=600)
    total = 0
    for _ in range(10):
        F = _random_rational(rng, max_deg=3, terms=4)
        total += len(
            subharmonicity_report(F, r_values, theta_values, sample, M=192, circle_nodes=8)
        )
    elapsed = time.perf_counter() - t0

    assert total == 0
    assert elapsed < 60.0
    return f"0 violations over 10 F x 64 interior points, {elapsed:.1f}s"


@criterion("criterion 7", "harmonic form round trip for P(u)=(1+u/2)^2, eta=(1,2)")
def test_criterion_7_harmonic_round_trip():
    F = parse_function("1 + (z1 + 2*z2) + 0.25*(z1 + 2*z2)^2", 2)
    report = detect_harmonic_form(F)
    assert report.detected
    form = report.form
    assert max(abs(e - w) for e, w in zip(form.eta, (1, 2))) <= 1e-10
    assert form.residual <= 1e-10
    assert max(report.per_degree_residuals) <= 1e-10

    ver = verify_harmonic_form(F, form)
    assert ver <= 1e-10

    grid_r = np.linspace(0.6, 1.6, 5)
    grid_t = np.linspace(0.4, math.pi - 0.4, 5)
    for d in sample_directions(2, 5, seed=700).directions:
        assert slice_harmonicity_test(F, Direction(tuple(d)), grid_r, grid_t, M=1024, tol=1e-3)
    return f"profile residual {form.residual:.1e}, verify {ver:.1e}, 5/5 slices harmonic"


@criterion("criterion 8", "detector rejects both non-ray counterexamples")
def test_criterion_8_detector_soundness():
    for text in ("1 - z1*z2", "1 - (z1 + 2*z2)^2"):
        report = detect_harmonic_form(parse_function(text, 2))
        assert not report.detected
        assert report.form is None
    return None


@criterion("criterion 9", "canonical product Taylor data: real d_k, oracle to 1e-12")
def test_criterion_9_product_coefficients():
    def series_oracle(cp, K):
        u = complex(math.cos(cp.rotation), math.sin(cp.rotation))
        out = np.zeros(K + 1, dtype=complex)
        out[0] = 1.0
        if cp.gamma:
            fac = np.array([(cp.gamma * u) ** k / factorial(k) for k in range(K + 1)])
            out = np.convolve(out, fac)[: K + 1]
        for r in cp.zero_moduli:
            out = np.convolve(out, [1.0, u / r])[: K + 1]
        for s in cp.pole_moduli:
            geo = np.array([(u / s) ** k for k in range(K + 1)])
            out = np.convolve(out, geo)[: K + 1]
        return out

    rng = np.random.default_rng(9)
    worst_im = worst_rel = 0.0
    for _ in range(20):
        nz, npo = (int(rng.integers(0, 5)) for _ in range(2))  # <= 8 combined
        cp = CanonicalProduct(
            gamma=float(rng.uniform(0.0, 1.5)),
            rotation=float(rng.uniform(-math.pi, math.pi)),
            zero_moduli=tuple(float(x) for x in rng.uniform(0.5, 3.0, nz)),
            pole_moduli=tuple(float(x) for x in rng.uniform(0.5, 3.0, npo)),
        )
        tc = product_taylor_coeffs(cp, 12)
        oracle = series_oracle(cp, 12)
        for k in range(13):
            d = tc.coeffs[k] * factorial(k) * complex(math.cos(-k * cp.rotation),
                                                      math.sin(-k * cp.rotation))
            worst_im = max(worst_im, abs(d.imag) / (1.0 + abs(d)))
            worst_rel = max(
                worst_rel, abs(tc.coeffs[k] - oracle[k]) / (1.0 + abs(oracle[k]))
            )
    assert worst_im <= 1e-12
    assert worst_rel <= 1e-12

    tc = product_taylor_coeffs(
        CanonicalProduct(gamma=0.0, rotation=0.0, zero_moduli=(1.0,), pole_moduli=(1.0,)), 12
    )
    assert tc.coeffs == (1 + 0j,) + (2 + 0j,) * 12
    return f"worst relative Im {worst_im:.1e}, worst oracle gap {worst_rel:.1e}"


@criterion("criterion 10", "sphere average is unitarily invariant at 4 sigma")
def test_criterion_10_unitary_invariance():
    def compose(p, mat):
        rows = [linear_form(tuple(mat[i]), 2) for i in range(2)]
        out = MultiPoly.zero(2)
        for exp, c in p.terms.items():
            term = MultiPoly.constant(2, c)
            for row, e in zip(rows, exp):
                term = term * row**e
            out = out + term
        return out

    rng = np.random.default_rng(10)
    worst_ratio = 0.0
    for i in range(5):
        F = _random_rational(rng, max_deg=3, terms=4)
        U, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        FU = MeroFunction.from_polys(compose(F.numerator, U), compose(F.denominator, U))
        a = star_several(F, 2.0, math.pi / 2, sample_directions(2, 10_000, seed=1000 + i), M=1024)
        b = star_several(FU, 2.0, math.pi / 2, sample_directions(2, 10_000, seed=2000 + i), M=1024)
        gap = abs(a.mean - b.mean)
        worst_ratio = max(worst_ratio, gap / (4.0 * (a.stderr + b.stderr)))

    assert worst_ratio <= 1.0
    return f"worst gap at {worst_ratio:.2f} of the 4 sigma allowance"


@criterion("continuity", "T* gap <= 1e-3 when the direction moves by 1e-4 off X")
def test_empirical_continuity_off_indeterminacy_set():
    F = parse_function("(z1 - 1) / (z2 - 1)", 2)
    zeta0 = Direction.of((0.8, 0.6))
    base = slice_star_total(F, zeta0, 2.0, 1.0, M=M_ACC).total

    step = (1e-4 * 0.9, 1e-4j * 0.9 / math.sqrt(2))
    moved = Direction.of((zeta0.components[0] + step[0], zeta0.components[1] + step[1]))
    dist = math.sqrt(
        sum(abs(a - b) ** 2 for a, b in zip(moved.components, zeta0.components))
    )
    assert dist <= 1e-4
    gap = abs(slice_star_total(F, moved, 2.0, 1.0, M=M_ACC).total - base)

    assert gap <= 1e-3
    return f"|T*(zeta) - T*(zeta0)| = {gap:.1e} at distance {dist:.1e}"
