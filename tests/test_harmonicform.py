import json
import math
from math import factorial

import numpy as np
import pytest

from starfn.funcdef import MeroFunction, MultiPoly, linear_form, parse_function
from starfn import harmonicform, sphere
from starfn.harmonicform import (
    CanonicalProduct,
    DetectionReport,
    HarmonicForm,
    TaylorCoeffs,
    detect_harmonic_form,
    load_canonical_product,
    product_taylor_coeffs,
    ray_alignment,
    slice_harmonicity_test,
    verify_harmonic_form,
)
from starfn.slicing import Direction, batched_roots, jensen_residual, make_slice, slice_divisor
from starfn.sphere import check_stencil, mean_value_differences, sample_directions
from starfn.starcore import _circle_abs2, star_rings, star_rows

# F(Z) = P(Z.eta) with P = (1 + u/2)^2 and eta = (1, 2)
F_HARMONIC = parse_function("1 + z1 + 2*z2 + 0.25*z1^2 + z1*z2 + z2^2", 2)


def test_canonical_product_validation():
    with pytest.raises(ValueError):
        CanonicalProduct(gamma=-0.1, rotation=0.0, zero_moduli=(), pole_moduli=())
    with pytest.raises(ValueError):
        CanonicalProduct(gamma=0.0, rotation=0.0, zero_moduli=(0.0,), pole_moduli=())
    with pytest.raises(ValueError):
        CanonicalProduct(gamma=0.0, rotation=0.0, zero_moduli=(), pole_moduli=(-2.0,))


def test_taylor_simple_products():
    one_zero = CanonicalProduct(0.0, 0.0, (1.0,), ())
    tc = product_taylor_coeffs(one_zero, 6)
    assert tc.coeffs[0] == 1 and abs(tc.coeffs[1] - 1) < 1e-15
    assert all(abs(c) < 1e-14 for c in tc.coeffs[2:])  # (1+z) stops at degree 1

    one_pole = CanonicalProduct(0.0, 0.0, (), (1.0,))
    tc = product_taylor_coeffs(one_pole, 8)
    for k, c in enumerate(tc.coeffs):
        assert abs(c - 1) <= 1e-12  # geometric series
        assert abs(tc.d_values[k] - factorial(k)) <= 1e-12 * factorial(k)

    moebius = CanonicalProduct(0.0, 0.0, (1.0,), (1.0,))
    tc = product_taylor_coeffs(moebius, 8)
    assert tc.c_sums[1] == 2.0  # f'(0) = 2
    assert abs(tc.coeffs[1] - 2) < 1e-14
    assert all(abs(c - 2) <= 1e-12 for c in tc.coeffs[1:])  # (1+z)/(1-z)


def _series_oracle(cp: CanonicalProduct, K: int) -> np.ndarray:
    """Multiply the factor series directly, cut at order K."""
    u = complex(math.cos(cp.rotation), math.sin(cp.rotation))

    def mul(a, b):
        return np.convolve(a, b)[: K + 1]

    out = np.zeros(K + 1, dtype=complex)
    out[0] = 1.0
    if cp.gamma:
        exp_fac = np.array([(cp.gamma * u) ** k / factorial(k) for k in range(K + 1)])
        out = mul(out, exp_fac)
    for r in cp.zero_moduli:
        out = mul(out, np.array([1.0, u / r], dtype=complex))
    for s in cp.pole_moduli:
        out = mul(out, np.array([(u / s) ** k for k in range(K + 1)]))
    return out


def test_taylor_matches_series_oracle_and_phase_law():
    rng = np.random.default_rng(123)
    for _ in range(12):
        nz = int(rng.integers(0, 5))
        npo = int(rng.integers(0, 5))  # up to 8 zeros/poles combined
        cp = CanonicalProduct(
            gamma=float(rng.uniform(0.0, 1.5)),
            rotation=float(rng.uniform(-math.pi, math.pi)),
            zero_moduli=tuple(rng.uniform(0.5, 3.0, size=nz)),
            pole_moduli=tuple(rng.uniform(0.5, 3.0, size=npo)),
        )
        K = 12
        tc = product_taylor_coeffs(cp, K)
        oracle = _series_oracle(cp, K)
        for got, want in zip(tc.coeffs, oracle):
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

        # phase law: f^(k)(0) = (d_k/d_1^k) (f'(0))^k
        d = tc.d_values
        if d[1] != 0:
            fprime = tc.coeffs[1]
            for k in range(K + 1):
                lhs = tc.coeffs[k] * factorial(k)
                rhs = (d[k] / d[1] ** k) * fprime**k
                assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))


def test_taylor_coeffs_validation():
    with pytest.raises(ValueError):
        TaylorCoeffs(K=1, coeffs=(2 + 0j, 1 + 0j), c_sums=(0.0, 1.0), d_values=(1.0, 1.0))
    with pytest.raises(ValueError):
        TaylorCoeffs(K=2, coeffs=(1 + 0j,), c_sums=(0.0,), d_values=(1.0,))
    with pytest.raises(ValueError):
        product_taylor_coeffs(CanonicalProduct(0.0, 0.0, (1.0,), ()), -1)


def test_load_canonical_product(tmp_path):
    data = {"gamma": 0.5, "theta": 0.7, "zeros": [1.0, 2.0], "poles": [3.0]}
    cp = load_canonical_product(data)
    assert cp.gamma == 0.5 and cp.rotation == 0.7
    assert cp.zero_moduli == (1.0, 2.0) and cp.pole_moduli == (3.0,)

    path = tmp_path / "prod.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_canonical_product(path) == cp
    assert load_canonical_product({"zeros": [1.5]}).gamma == 0.0


def test_detect_constructed_polynomial_form():
    report = detect_harmonic_form(F_HARMONIC)
    assert report.detected
    form = report.form
    assert form.eta == (1 + 0j, 2 + 0j)
    assert len(form.profile) == 3
    for got, want in zip(form.profile, (1, 1, 0.25)):
        assert abs(got - want) <= 1e-12
    assert form.residual <= 1e-12
    theta_hat, max_dev = report.ray
    assert abs(theta_hat) <= 1e-9 and max_dev <= 1e-9  # double zero at u=-2


def test_detect_rejects_both_counterexamples():
    # no linear part at all: P1 = 0 but F != 1
    assert not detect_harmonic_form(parse_function("1 - z1*z2", 2)).detected
    # 1 - (z1+2*z2)^2 expanded
    squared = parse_function("1 - z1^2 - 4*z1*z2 - 4*z2^2", 2)
    assert not detect_harmonic_form(squared).detected


def test_detect_trivial_and_cancelling_functions():
    assert detect_harmonic_form(MeroFunction.one(2)).detected
    same = parse_function("(1 + z1) / (1 + z1)", 2)
    rep = detect_harmonic_form(same)
    assert rep.detected and rep.form.profile == (1 + 0j,)
    assert rep.form.eta == (0j, 0j)


def test_detect_refuses_a_profile_whose_powers_of_q_leave_the_float_range():
    # q = eta_1 = 1e-200: q**2 underflows to 0, where s / q**2 raised
    # ZeroDivisionError.  q = 1.6e75 with K = deg G + deg H = 5: q**5
    # overflows, where it raised OverflowError.  Both forms pass the ray and
    # residual tests, so only the profile fails
    tiny = parse_function("1 + 1e-200*z1 + 1e-300*z1^2", 1)
    quadruple_pole = MultiPoly(1, {(0,): 1, (1,): -4, (2,): 6, (3,): -4, (4,): 1})
    huge = MeroFunction.from_polys(MultiPoly(1, {(0,): 1, (1,): 1.6e75}), quadruple_pole)
    for F in (tiny, huge):
        with pytest.raises(ValueError, match="float range"):
            detect_harmonic_form(F)
    with pytest.raises(ValueError, match="finite"):
        HarmonicForm(eta=(1 + 0j,), profile=(1 + 0j, 1 + 0j, complex(math.inf, 0)), residual=0.0)
    # where every q**k is a float, the profile is s / q**k as before: here
    # q**2 = 1e-320 is subnormal and 1e-170 / q**2 is about 1e150
    report = detect_harmonic_form(parse_function("1 + 1e-160*z1 + 1e-170*z1^2", 1))
    q = 1e-160 + 0j
    assert report.detected and report.form.profile == (1 + 0j, 1e-160 / q, 1e-170 / q**2)


def test_detect_rejects_zeros_on_line_but_not_ray():
    # P = (1-u)(1+2u) = 1 + u - 2u^2 has real coefficients (the Taylor
    # criterion is satisfied) but zeros at 1 and -1/2 on opposite rays.
    F = parse_function("1 + z1 + 2*z2 - 2*z1^2 - 8*z1*z2 - 8*z2^2", 2)
    rep = detect_harmonic_form(F)
    assert not rep.detected
    assert all(res <= 1e-9 for res in rep.per_degree_residuals)
    assert rep.ray is not None and rep.ray[1] > 1e-6


def test_detect_rejects_on_the_coefficient_law_alone():
    # the slice of (1 + z1)(1 + 2 z2) along e_2 gives P(u) = 1 + u, whose one
    # zero is on a ray, but G - P(z1 + 2 z2) = 2 z1 z2: the identity fails in
    # degree 2 alone, where H g(l) has no term
    rep = detect_harmonic_form(parse_function("(1 + z1)*(1 + 2*z2)", 2))
    assert not rep.detected
    assert rep.per_degree_residuals == (0.0, 0.0, 1.0)
    assert rep.ray[1] == 0.0


@pytest.mark.parametrize(
    "text",
    [
        "(1 + z1 + 49*z2) / (1 - z1 - 49*z2)",
        "(1 + 0.9*z1 + 3*z2) / (1 - 0.9*z1 - 3*z2)",
        "(1 + 0.35*z1 + 0.6*z2) / (1 - 0.35*z1 - 0.6*z2)",
    ],
)
def test_detect_mobius_form_whose_sides_cancel_in_a_degree(text):
    # (1 + L)/(1 - L): both sides of the identity are 0 in degree 1, but
    # l = Z . eta / q has inexact coefficients (eta_1/q = fl(1/49), ...), so
    # each side keeps rounding there, which the residual must measure
    # against the sides' magnitudes and not against each other
    F = parse_function(text, 2)
    rep = detect_harmonic_form(F)
    assert rep.detected
    assert max(rep.per_degree_residuals) <= 1e-15
    assert verify_harmonic_form(F, rep.form) <= 1e-12


def test_detect_rational_form_via_pade():
    # P = (1 + u/2)/(1 - u/3), eta = (1, 2); the profile is the series of
    # P(u/P'(0)), so c2 = p2/p1^2 = (5/18)/(5/6)^2 = 0.4
    F = parse_function(
        "(1 + 0.5*z1 + z2) / (1 - 0.3333333333333333*z1 - 0.6666666666666666*z2)", 2
    )
    rep = detect_harmonic_form(F)
    assert rep.detected
    assert abs(rep.form.profile[2] - 0.4) <= 1e-9
    assert rep.ray[1] <= 1e-9
    # P is F's slice along the probe axis, not the profile's finite series
    assert verify_harmonic_form(F, rep.form) <= 1e-10


MULTIPLE_ON_RAY = {
    "zero": ("(1 + 0.5*z1 + 0.25*z2)^{m}", range(1, 17)),
    "pole": ("1 / (1 - 0.5*z1 - 0.25*z2)^{m}", range(1, 17)),
    "axis-pole": ("1 / (1 - 3*z1)^{m}", [12]),
}


@pytest.mark.parametrize(
    "template, m",
    [
        pytest.param(template, m, id=f"{kind}-{m}")
        for kind, (template, orders) in MULTIPLE_ON_RAY.items()
        for m in orders
    ],
)
def test_detect_multiple_zero_or_pole_on_its_ray(template, m):
    # unclustered, an m-fold root splits into m raw roots ~eps^(1/m) apart,
    # which leaves the ray by far more than RAY_TOL
    F = parse_function(template.format(m=m), 2)
    rep = detect_harmonic_form(F)
    assert rep.detected
    # P'(0) = 1 with P's zeros and poles on opposite rays puts them on the
    # real axis: the rotation is 0
    assert abs(rep.ray[0]) <= 1e-9 and rep.ray[1] <= 1e-9
    assert verify_harmonic_form(F, rep.form) <= 1e-10


def test_detect_form_with_a_common_factor():
    # (1 + 2u)/(1 - u) for u = z1 + 2 z2, times the factor 1 + z1 + z2 over
    # itself, whose roots the probe slice cancels in a pair
    F = parse_function("(1 + z1 + z2)*(1 + 2*z1 + 4*z2) / ((1 + z1 + z2)*(1 - z1 - 2*z2))", 2)
    rep = detect_harmonic_form(F)
    assert rep.detected
    assert rep.form.eta == (3 + 0j, 6 + 0j)
    assert rep.ray[1] <= 1e-9
    assert verify_harmonic_form(F, rep.form) <= 1e-10


def test_detect_round_trip_from_random_products():
    rng = np.random.default_rng(7)
    for _ in range(5):
        nz = int(rng.integers(1, 5))
        cp = CanonicalProduct(
            gamma=0.0,
            rotation=float(rng.uniform(-math.pi, math.pi)),
            zero_moduli=tuple(rng.uniform(0.5, 3.0, size=nz)),
            pole_moduli=(),
        )
        p_coeffs = product_taylor_coeffs(cp, nz).coeffs
        eta = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        u = linear_form(eta, 2)
        F_poly = MultiPoly.zero(2)
        for k, c in enumerate(p_coeffs):
            F_poly = F_poly + (u**k).scale(c)
        F = MeroFunction.from_polys(F_poly, MultiPoly.constant(2, 1))

        rep = detect_harmonic_form(F)
        assert rep.detected
        p1 = p_coeffs[1]
        assert np.allclose(rep.form.eta, np.asarray(eta) * p1, atol=1e-10)
        for k, c in enumerate(rep.form.profile):
            assert abs(c - p_coeffs[k] / p1**k) <= 1e-10


def test_detect_is_covariant_under_diagonal_rotation():
    phases = (np.exp(0.7j), np.exp(-1.2j))
    scaled_terms = {
        exp: c * phases[0] ** exp[0] * phases[1] ** exp[1]
        for exp, c in F_HARMONIC.numerator.terms.items()
    }
    F_scaled = MeroFunction.from_polys(MultiPoly(2, scaled_terms), MultiPoly.constant(2, 1))
    base = detect_harmonic_form(F_HARMONIC)
    rot = detect_harmonic_form(F_scaled)
    assert rot.detected
    assert all(
        abs(a - b) <= 1e-12 for a, b in zip(rot.form.profile, base.form.profile)
    )
    expected_eta = tuple(e * p for e, p in zip(base.form.eta, phases))
    assert np.allclose(rot.form.eta, expected_eta, atol=1e-12)


def test_verify_harmonic_form_bounds():
    rep = detect_harmonic_form(F_HARMONIC)
    assert verify_harmonic_form(F_HARMONIC, rep.form, trials=1000, seed=4) <= 1e-10

    trivial = HarmonicForm(eta=(0j, 0j), profile=(1 + 0j,), residual=0.0)
    assert verify_harmonic_form(MeroFunction.one(2), trivial, trials=50, seed=0) == 0.0

    bumped = F_HARMONIC.numerator + MultiPoly(2, {(1, 0): 1e-3})
    F_bumped = MeroFunction.from_polys(bumped, MultiPoly.constant(2, 1))
    assert verify_harmonic_form(F_bumped, rep.form, trials=200, seed=4) >= 1e-4

    # verify reads eta alone: F_HARMONIC is no function of 2 z1 + z2
    rotated = HarmonicForm(eta=(2 + 0j, 1 + 0j), profile=rep.form.profile, residual=0.0)
    assert verify_harmonic_form(F_HARMONIC, rotated, trials=200, seed=4) >= 1e-4


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trials"),
        ({"trials": -1}, "trials"),
        ({"radius": 0.0}, "radius"),
        ({"radius": -0.3}, "radius"),
        ({"radius": math.nan}, "radius"),
        ({"radius": math.inf}, "radius"),
    ],
)
def test_verify_harmonic_form_rejects_a_check_of_no_point(monkeypatch, kwargs, message):
    # 1 + z1 + z2^3 is no function of z1; no point, or NaN points, read 0.0
    # ("verified") or NaN, so the arguments are checked before any is drawn
    F = parse_function("1 + z1 + z2^3", 2)
    form = HarmonicForm(eta=(1 + 0j, 0j), profile=(1 + 0j, 1 + 0j), residual=0.0)
    assert verify_harmonic_form(F, form) > 1e-2
    calls = []
    monkeypatch.setattr(harmonicform, "slice_coefficients", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        verify_harmonic_form(F, form, **kwargs)
    assert calls == []


def test_verify_harmonic_form_near_a_pole_of_high_order():
    # the expanded (1 - 3 z1)^12 cancels to rounding noise near its pole,
    # which an absolute screen |H| > 1e-12 let through (2.46 at seed 0)
    F = parse_function("1/(1 - 3*z1)^12", 2)
    profile = tuple(complex(math.comb(k + 11, 11)) for k in range(13))
    form = HarmonicForm(eta=(3 + 0j, 0j), profile=profile, residual=0.0)
    for seed in range(4):
        assert verify_harmonic_form(F, form, radius=0.5, seed=seed) <= 1e-10


def test_verify_harmonic_form_screens_only_an_f_with_poles(monkeypatch):
    # a polynomial F has H = 1, which the pole screen cannot reject: one
    # slice_coefficients pass, for G; a rational F adds two, for H and its
    # rounding scale
    calls = []
    slice_coefficients = harmonicform.slice_coefficients

    def counting(p, dirs):
        calls.append(p)
        return slice_coefficients(p, dirs)

    monkeypatch.setattr(harmonicform, "slice_coefficients", counting)
    rep = detect_harmonic_form(F_HARMONIC)
    assert verify_harmonic_form(F_HARMONIC, rep.form, trials=1000, seed=4) <= 1e-10
    assert calls == [F_HARMONIC.numerator]
    F = parse_function("1 / (1 - 0.5*z1 - 0.25*z2)^3", 2)
    calls.clear()
    assert verify_harmonic_form(F, detect_harmonic_form(F).form) <= 1e-10
    assert len(calls) == 3


def test_harmonic_form_type_invariants():
    with pytest.raises(ValueError):
        HarmonicForm(eta=(0j, 0j), profile=(1 + 0j, 1 + 0j), residual=0.0)
    with pytest.raises(ValueError):
        DetectionReport(detected=True, form=None, per_degree_residuals=(), ray=None)


def test_ray_alignment_cases():
    theta, aligned, dev = ray_alignment([-2.0, -2.0], [])
    assert aligned and abs(theta) <= 1e-15 and dev == 0.0

    _, aligned, dev = ray_alignment([1.0, -1.0], [])
    assert not aligned and dev > 1.0

    theta, aligned, dev = ray_alignment([2j, 5j], [-3j])
    assert aligned and abs(theta - math.pi / 2) <= 1e-15 and dev <= 1e-15

    theta, aligned, dev = ray_alignment([], [])
    assert theta is None and aligned and dev == 0.0

    wobble = [2 * np.exp(0.25j * math.pi), 3 * np.exp(1j * (0.25 * math.pi + 1e-3))]
    _, aligned, dev = ray_alignment(wobble, [], tol_angle=1e-2)
    assert aligned and 1e-4 <= dev <= 2e-3

    with pytest.raises(ValueError):
        ray_alignment([0j], [])


GRID_R = tuple(np.linspace(0.6, 1.6, 5))
GRID_TH = tuple(np.linspace(0.4, math.pi - 0.4, 5))


def test_slice_harmonicity_separates_ray_from_generic():
    # zeta=(1,0): the slice is (1 + w/2)^2, zeros on one ray -> harmonic
    assert slice_harmonicity_test(
        F_HARMONIC, Direction((1 + 0j, 0j)), GRID_R, GRID_TH, M=1024, tol=1e-3
    )
    # a constant function is trivially harmonic
    assert slice_harmonicity_test(
        MeroFunction.one(2), Direction((1 + 0j, 0j)), GRID_R, GRID_TH, M=256, tol=1e-9
    )
    # generic direction for (1+z1)(1+2z2): slice zeros -1/zeta1 and -1/(2 zeta2)
    # land on different rays, so the mean-value equality fails somewhere
    F_gen = parse_function("(1 + z1) * (1 + 2*z2)", 2)
    zeta = Direction.of((1.0, 1.0j))
    assert not slice_harmonicity_test(F_gen, zeta, GRID_R, GRID_TH, M=1024, tol=1e-3)

    with pytest.raises(ValueError):
        slice_harmonicity_test(F_gen, zeta, (1.0, 2.0), GRID_TH, M=64)
    with pytest.raises(ValueError):
        slice_harmonicity_test(
            F_gen, zeta, (0.5, 1.0, 1.5), (0.01, 0.05, 0.1), M=64, rho=0.2
        )


def test_bad_harmonic_slice_arguments_raise_before_any_root_extraction(monkeypatch):
    calls = []

    def counted(coef):
        calls.append(coef.shape[0])
        return batched_roots(coef)

    monkeypatch.setattr("starfn.slicing.batched_roots", counted)
    F = parse_function("(1 + z1) * (1 + 2*z2)", 2)
    with pytest.raises(ValueError, match="M must be at least"):
        slice_harmonicity_test(F, Direction.of((1.0, 1.0j)), GRID_R, GRID_TH, M=8)
    with pytest.raises(ValueError, match="3x3 grid"):
        slice_harmonicity_test(F, Direction.of((1.0, 1.0j)), (1.0, 2.0), (0.5, 1.0), M=64)
    with pytest.raises(ValueError, match="M must be at least"):
        jensen_residual(F, Direction.of((1.0, 1.0j)), 1.0, 8)
    assert calls == []


def test_repeated_grids_lay_their_stencil_out_once():
    sphere._stencil_rings.cache_clear()
    F, zeta = F_HARMONIC, Direction((1 + 0j, 0j))
    for _ in range(3):
        assert slice_harmonicity_test(F, zeta, GRID_R, GRID_TH, M=256, tol=1e-3)
    info = sphere._stencil_rings.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    slice_harmonicity_test(F, zeta, GRID_R, GRID_TH, M=256, tol=1e-3, circle_nodes=6)
    assert sphere._stencil_rings.cache_info().misses == 2


def _per_ring_differences(F, zeta, M, r_values=GRID_R, theta_values=GRID_TH, rho=None, circle_nodes=8):
    """The stencil of slice_harmonicity_test as a plain loop: one star_rows
    call per ring (distinct node radius, in order of first use), and its
    values added one at a time, within a ring in node order."""
    poles, s = slice_divisor(F, zeta).logroots(math.inf), make_slice(F, zeta)
    g, h = s.g, s.h
    C = circle_nodes
    rho = check_stencil(r_values, theta_values, rho, C)
    psi = 2.0 * math.pi * np.arange(C) / C
    mirrored = np.arange(C // 2 + 1, C)
    rings = {}
    for ii, r in enumerate(r_values[1:-1]):
        q = r + rho * np.exp(1j * psi)
        q[mirrored] = q[C - mirrored].conj()
        radii, alphas = np.abs(q), np.angle(q)  # whole-array calls, as the stencil makes them
        for c in range(C):
            for jj, th0 in enumerate(theta_values[1:-1]):
                rings.setdefault(float(radii[c]), []).append((th0 + float(alphas[c]), ii, jj))
    acc = np.zeros((len(r_values) - 2, len(theta_values) - 2, 1))
    for radius, entries in rings.items():
        values = star_rows(g, h, poles, radius, [theta for theta, _, _ in entries], M)
        for (_, ii, jj), value in zip(entries, values):
            acc[ii, jj] += value
    for ii, r in enumerate(r_values[1:-1]):
        acc[ii] = acc[ii] / C - star_rows(g, h, poles, r, theta_values[1:-1], M)
    return acc


# node 3 of 8 around (r, theta) = (1, 2.356194490192345) on a disk of this
# radius, tangent to the negative real axis up to rounding, lands on
# theta = pi exactly: k = M at every M
PI_NODE_GRID = ((0.5, 1.0, 1.5), (2.056194490192345, 2.356194490192345, math.pi), 0.7071067811865475, 8)
EDGE_GRIDS = [
    # 3 x 4 interior points with pi/2 among the centre thetas (frac = 0)
    ((0.6, 0.85, 1.1, 1.35, 1.6), (0.45, 0.9, math.pi / 2, 2.1, 2.5, 2.75), None, 8),
    ((0.6, 0.85, 1.1, 1.35, 1.6), (0.45, 0.9, math.pi / 2, 2.1, 2.5, 2.75), None, 6),
    ((0.6, 0.85, 1.1, 1.35, 1.6), (0.45, 0.9, math.pi / 2, 2.1, 2.5, 2.75), None, 7),
    PI_NODE_GRID,
]


def test_slice_harmonicity_test_is_one_kernel_call_with_the_bits_of_one_per_ring(monkeypatch):
    # 17 rings on the 5x5 grid, one row each; at M=8192 (12 rows a block)
    # the stacked call spans two blocks and runs on two threads when it may.
    # F_HARMONIC is criterion 7's ray form, and on 4 of criterion 7's 5
    # directions its double zero sends some ring to Horner's rule
    calls, diffs = [], []

    def counted(g, h, poles, rings, M):
        calls.append(np.array([radius for radius, _ in rings]))
        return star_rings(g, h, poles, rings, M)

    def kept(*args):
        diffs.append(mean_value_differences(*args))
        return diffs[-1]

    monkeypatch.setattr(harmonicform, "star_rings", counted)
    monkeypatch.setattr(harmonicform, "mean_value_differences", kept)
    cases = [(F_HARMONIC, Direction((1 + 0j, 0j)))]
    cases += [(F_HARMONIC, Direction(tuple(d))) for d in sample_directions(2, 5, seed=700).directions]
    gated = 0
    for F, zeta in cases:
        for M in (256, 1024, 8192):
            by_threads = []
            for threads in ("1", "2"):
                monkeypatch.setenv("STARFN_THREADS", threads)
                assert slice_harmonicity_test(F, zeta, GRID_R, GRID_TH, M=M, tol=1e-3)
                assert len(calls) == 1 and calls[0].shape == (17,)
                radii = calls.pop()
                by_threads.append(diffs.pop().tobytes())
            assert by_threads[0] == by_threads[1] == _per_ring_differences(F, zeta, M).tobytes()
        g = make_slice(F, zeta).g
        gated += any(not _circle_abs2(g, radius, 1024)[1][0] for radius in radii)
    assert gated == 4

    # edge stencils: a non-square grid, 6 and 7 circle nodes, a node with
    # frac = 0 and one at theta = pi (k = M), on directions with gated rings
    r_values, theta_values, rho, circle_nodes = PI_NODE_GRID
    rings, _ = sphere._stencil_rings(r_values, theta_values, rho, circle_nodes)
    assert max(max(thetas) for _, thetas in rings) == math.pi
    gated = 0
    for r_values, theta_values, rho, circle_nodes in EDGE_GRIDS:
        for F, zeta in cases[:3]:
            for M in (256, 1024, 8192):
                by_threads = []
                for threads in ("1", "2"):
                    monkeypatch.setenv("STARFN_THREADS", threads)
                    slice_harmonicity_test(
                        F, zeta, r_values, theta_values, M=M, rho=rho, circle_nodes=circle_nodes
                    )
                    assert len(calls) == 1
                    radii = calls.pop()
                    by_threads.append(diffs.pop().tobytes())
                want = _per_ring_differences(F, zeta, M, r_values, theta_values, rho, circle_nodes)
                assert by_threads[0] == by_threads[1] == want.tobytes()
            g = make_slice(F, zeta).g
            gated += any(not _circle_abs2(g, radius, 1024)[1][0] for radius in radii)
    assert gated == 7
