import math

import numpy as np
import pytest

from starfn.funcdef import MeroFunction, MultiPoly, linear_form, parse_function, parse_poly
from starfn.slicing import (
    CircleProximityError,
    CountingRecord,
    Direction,
    RootFindingError,
    SlicePair,
    UniPoly,
    batched_roots,
    big_N_rows,
    circle_log_values,
    circle_values,
    counting_big_N,
    counting_record,
    counting_small_n,
    inclusion_radii,
    indeterminacy_test,
    jensen_residual,
    make_slice,
    root_separation,
    roots_in_disk,
    slice_coefficients,
    slice_divisor,
    small_n_rows,
)
from starfn.starcore import circle_log_samples, slice_star_total

F_RATIO = parse_function("(z1-1)/(z2-1)", 2)
ZETA_86 = Direction((0.8, 0.6))
ZETA_0 = Direction((1 / math.sqrt(2), 1 / math.sqrt(2)))


def test_direction_norm_enforced():
    with pytest.raises(ValueError):
        Direction((1.0, 1.0))
    d = Direction.of((3, 4))
    assert d.components == (0.6 + 0j, 0.8 + 0j)
    assert d.n == 2


@pytest.mark.parametrize(
    "vec, want",
    [
        ([1e200, 1e200], (2**-0.5, 2**-0.5)),
        ([1e-200, 0], (1.0, 0.0)),
        ([3e-170, 4e-170], (0.6, 0.8)),
        ([1e-160, 0], (1.0, 0.0)),
    ],
)
def test_direction_of_a_finite_vector_far_from_unit_size(vec, want):
    # its sum of squares over- or underflows: the plain norm raised
    # OverflowError, read 0 or lost digits in the subnormals
    d = Direction.of(vec)
    assert np.allclose(d.components, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("zero", [[0, 0], [0.0, -0.0j]])
def test_direction_of_the_zero_vector_is_refused(zero):
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        Direction.of(zero)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)])
def test_direction_rejects_a_non_finite_component(bad):
    # a NaN norm passes |norm - 1| > NORM_TOL, so finiteness is its own check
    for build in (lambda: Direction((bad, 0.0)), lambda: Direction.of([bad, 1.0])):
        with pytest.raises(ValueError, match=r"direction \(.*\) has a non-finite component"):
            build()


def test_unipoly_trims_and_flags_zero():
    u = UniPoly((1, 2, 0, 0))
    assert u.coeffs == (1 + 0j, 2 + 0j)
    assert u.degree == 1
    z = UniPoly(())
    assert z.is_zero
    with pytest.raises(ValueError):
        z.degree


def test_unipoly_horner_matches_numpy():
    u = UniPoly((1, -0.5, 0.25j))
    pts = np.array([0.3 + 0.1j, -1.2j, 2.0])
    expect = np.polyval(np.array(u.coeffs[::-1]), pts)
    assert np.allclose(u(pts), expect, atol=1e-14)
    assert u(0) == 1


def test_make_slice_ratio_example():
    sp = make_slice(F_RATIO, ZETA_86)
    assert sp.g.coeffs == (1 + 0j, -0.8 + 0j)
    assert sp.h.coeffs == (1 + 0j, -0.6 + 0j)


def test_make_slice_constant_and_product():
    one = MeroFunction.one(3)
    sp = make_slice(one, Direction.of((1, 1, 1)))
    assert sp.g.coeffs == (1 + 0j,) and sp.h.coeffs == (1 + 0j,)

    f = parse_function("1 - z1*z2", 2)
    sp2 = make_slice(f, ZETA_0)
    assert sp2.h.coeffs == (1 + 0j,)
    assert sp2.g.coeffs[1] == 0
    assert sp2.g.coeffs[2] == pytest.approx(-0.5, abs=1e-15)


def test_slicepair_requires_unit_constant():
    with pytest.raises(ValueError):
        SlicePair(ZETA_86, UniPoly((2, 1)), UniPoly((1,)))


def test_roots_in_disk_single_root():
    u = UniPoly((1, -0.6))
    inside1 = roots_in_disk(u, 1.0)
    assert inside1.roots == ()
    inside2 = roots_in_disk(u, 2.0)
    assert len(inside2.roots) == 1
    z, m = inside2.roots[0]
    assert m == 1 and z == pytest.approx(5 / 3, abs=1e-12)
    assert inside2.residual_bound <= 1e-12


def test_roots_in_disk_constant_and_double_root():
    assert roots_in_disk(UniPoly((1,)), 5.0).roots == ()
    u = UniPoly((1, 1, 0.25))  # (1 + z/2)^2
    rs = roots_in_disk(u, 3.0)
    assert len(rs.roots) == 1
    z, m = rs.roots[0]
    assert m == 2 and z == pytest.approx(-2.0, abs=1e-6)


def test_roots_in_disk_triple_and_quadruple_root():
    # an m-fold root splits by about eps^(1/m): ~1e-5 for m = 3, ~1e-4 for
    # m = 4 and ~0.01 for m = 8, as (1 + z/2)^m shows
    powers = [(m, tuple(math.comb(m, k) / 2**k for k in range(m + 1))) for m in range(5, 9)]
    for m, coeffs in ((3, (1, 1.5, 0.75, 0.125)), (4, (1, 2, 1.5, 0.5, 0.0625)), *powers):
        rs = roots_in_disk(UniPoly(coeffs), 3.0)
        assert len(rs.roots) == 1
        z, mult = rs.roots[0]
        assert mult == m and z == pytest.approx(-2.0, abs=1e-6)


def test_roots_in_disk_ill_conditioned_double_root_beside_a_simple_one():
    # (1-z)^2 (1-z/1.001): the double root at 1 splits by ~2.3e-6, far more
    # than a double root alone would, because the simple root is 1e-3 away
    coeffs = np.polynomial.polynomial.polymul((1, -2, 1), (1, -1 / 1.001))
    rs = roots_in_disk(UniPoly(tuple(coeffs)), math.inf)
    assert [m for _, m in rs.roots] == [2, 1]
    assert abs(rs.roots[0][0] - 1.0) <= 1e-8
    assert abs(rs.roots[1][0] - 1.001) <= 1e-8


def test_roots_in_disk_keeps_a_tight_ring_of_distinct_roots():
    # (1-z)^8 - 1e-8 has 8 simple roots on the circle |z - 1| = 0.1, 0.077
    # apart: an 8-fold merge radius of ~0.09 would take them for one root
    coeffs = [math.comb(8, k) * (-1) ** k for k in range(9)]
    coeffs[0] -= 1e-8
    rs = roots_in_disk(UniPoly(tuple(coeffs)), 3.0)
    assert [m for _, m in rs.roots] == [1] * 8
    assert all(abs(abs(z - 1.0) - 0.1) <= 1e-6 for z, _ in rs.roots)


def test_roots_in_disk_total_multiplicity_is_degree():
    rng = np.random.default_rng(3)
    for _ in range(25):
        deg = int(rng.integers(1, 7))
        coeffs = [1 + 0j] + [
            complex(rng.normal(), rng.normal()) * 0.5 for _ in range(deg)
        ]
        u = UniPoly(tuple(coeffs))
        if u.is_zero or u.degree == 0:
            continue
        rs = roots_in_disk(u, math.inf)
        assert rs.total_multiplicity() == u.degree


def test_roots_in_disk_rejects_zero_poly():
    with pytest.raises(ValueError):
        roots_in_disk(UniPoly(()), 1.0)


def test_roots_in_disk_rejects_a_radius_that_is_not_nonnegative():
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match="disk radius must be nonnegative"):
            roots_in_disk(UniPoly((1, 2)), t)


def test_counting_small_n_pole_thresholds():
    assert counting_small_n(F_RATIO, ZETA_86, 2.0, math.inf) == 1
    assert counting_small_n(F_RATIO, ZETA_86, 1.5, math.inf) == 0
    one = MeroFunction.one(2)
    for t in (0.5, 1.0, 10.0):
        assert counting_small_n(one, ZETA_86, t, 0) == 0
        assert counting_small_n(one, ZETA_86, t, math.inf) == 0


def test_counting_big_N_pole_value():
    got = counting_big_N(F_RATIO, ZETA_86, 2.0, math.inf)
    assert got == pytest.approx(math.log(2) + math.log(0.6), abs=1e-12)
    assert got == pytest.approx(0.1823215568, abs=1e-9)


def test_counting_big_N_zero_value():
    f = parse_function("1 + z1", 2)
    zeta = Direction((1.0, 0.0))
    assert counting_big_N(f, zeta, 3.0, 0) == pytest.approx(math.log(3), abs=1e-12)
    assert counting_big_N(MeroFunction.one(2), zeta, 3.0, 0) == 0.0


def test_counting_big_N_monotone_in_r():
    rng = np.random.default_rng(5)
    f = parse_function("(1 + z1 - 0.5*z2 + 0.3*z1*z2)/(1 + 0.4*z2 - 0.2*z1^2)", 2)
    zeta = Direction.of(rng.normal(size=2) + 1j * rng.normal(size=2))
    radii = np.sort(rng.uniform(0.1, 5.0, size=12))
    for a in (0, math.inf):
        values = [counting_big_N(f, zeta, float(r), a) for r in radii]
        assert all(v >= -1e-12 for v in values)
        assert all(b >= a_ - 1e-12 for a_, b in zip(values, values[1:]))


def test_counting_matches_sum_formula_and_record():
    f = parse_function("(1 - z1)/(1 - z2)", 2)
    rec = counting_record(f, ZETA_86, 2.0, math.inf)
    assert isinstance(rec, CountingRecord)
    assert rec.small_n == 1
    assert rec.big_N == pytest.approx(math.log(1.2), abs=1e-12)
    # N(r) - N(r') equals the integral of the step function n(t)/t
    r1, r2 = 1.8, 2.6
    n_between = counting_small_n(f, ZETA_86, r2, math.inf)
    lhs = counting_big_N(f, ZETA_86, r2, math.inf) - counting_big_N(
        f, ZETA_86, r1, math.inf
    )
    # single pole at 5/3 < r1: integrand n/t = 1/t on [r1, r2]
    assert n_between == 1
    assert lhs == pytest.approx(math.log(r2 / r1), abs=1e-12)


def test_cancellation_makes_degenerate_slice_trivial():
    div = slice_divisor(F_RATIO, ZETA_0)
    assert div.zeros == () and div.poles == ()
    assert len(div.cancelled) == 1
    assert div.cancelled[0][2] == 1
    assert abs(div.cancelled[0][0] - math.sqrt(2)) < 1e-8
    assert counting_big_N(F_RATIO, ZETA_0, 2.0, math.inf) == 0.0
    assert counting_small_n(F_RATIO, ZETA_0, 2.0, 0) == 0


def test_common_factor_invariance():
    rng = np.random.default_rng(9)
    G = parse_poly("1 + z1 - 0.5*z2", 2)
    H = parse_poly("1 - 0.3*z1 + 0.2*z2", 2)
    Q = parse_poly("1 + 0.7*z1 + 0.1*z2^2", 2)
    f = MeroFunction.from_polys(G, H)
    fq = MeroFunction.from_polys(G * Q, H * Q)
    for _ in range(6):
        zeta = Direction.of(rng.normal(size=2) + 1j * rng.normal(size=2))
        for a in (0, math.inf):
            want = counting_big_N(f, zeta, 2.5, a)
            got = counting_big_N(fq, zeta, 2.5, a)
            assert got == pytest.approx(want, abs=1e-7)
            assert counting_small_n(fq, zeta, 2.5, a) == counting_small_n(
                f, zeta, 2.5, a
            )


def test_jensen_residual_entire():
    f = parse_function("1 + z1", 2)
    zeta = Direction((1.0, 0.0))
    assert jensen_residual(f, zeta, 2.0, 4096) <= 1e-8
    assert jensen_residual(MeroFunction.one(2), zeta, 2.0, 64) == 0.0


def test_jensen_residual_rational():
    assert jensen_residual(F_RATIO, ZETA_86, 2.0, 8192) <= 1e-6


def test_jensen_residual_halving():
    # root of the slice at |z| = 1, circle at r = 1/0.9: slow enough decay
    # that the midpoint error is visible at M=64 and must shrink at M=128
    f = parse_function("1 + z1", 2)
    zeta = Direction((1.0, 0.0))
    r = 1 / 0.9
    res64 = jensen_residual(f, zeta, r, 64)
    res128 = jensen_residual(f, zeta, r, 128)
    assert res64 > 1e-9  # visibly nonzero, so the halving check is meaningful
    assert res128 <= res64


def test_jensen_residual_proximity_guard():
    f = parse_function("1 + z1", 2)
    zeta = Direction((1.0, 0.0))
    with pytest.raises(CircleProximityError):
        jensen_residual(f, zeta, 1.0 + 1e-5, 256)


def test_indeterminacy_flags():
    flag, sep = indeterminacy_test(F_RATIO, ZETA_0)
    assert flag and sep <= 1e-8

    flag2, sep2 = indeterminacy_test(F_RATIO, ZETA_86)
    assert not flag2
    assert sep2 == pytest.approx(abs(1 / 0.8 - 1 / 0.6), abs=1e-9)

    entire = parse_function("1 + z1*z2", 2)
    flag3, sep3 = indeterminacy_test(entire, ZETA_86)
    assert not flag3 and math.isinf(sep3)


def test_slice_commutes_with_unitary_change():
    rng = np.random.default_rng(17)
    # random unitary U via QR
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    U, _ = np.linalg.qr(A)

    def compose(p, mat):
        # p(mat @ z) expanded back into a MultiPoly
        rows = [linear_form(tuple(mat[i]), 2) for i in range(2)]
        out = MultiPoly.zero(2)
        for exp, c in p.terms.items():
            term = MultiPoly.constant(2, c)
            for row, e in zip(rows, exp):
                term = term * row ** e
            out = out + term
        return out

    G = parse_poly("1 + z1 - 0.5*z2 + 0.25*z1*z2", 2)
    H = parse_poly("1 + 0.3*z2", 2)
    f = MeroFunction.from_polys(G, H)
    fU = MeroFunction.from_polys(compose(G, U), compose(H, U))

    zeta = Direction.of(rng.normal(size=2) + 1j * rng.normal(size=2))
    u_zeta = Direction.of(U @ np.array(zeta.components))

    left = make_slice(fU, zeta)
    right = make_slice(f, u_zeta)
    for a, b in ((left.g, right.g), (left.h, right.h)):
        assert len(a.coeffs) == len(b.coeffs)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)


def test_counting_record_validation():
    with pytest.raises(ValueError):
        CountingRecord(r=1.0, a=2.0, small_n=0, big_N=0.0)
    with pytest.raises(ValueError):
        CountingRecord(r=-1.0, a=0.0, small_n=0, big_N=0.0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_single_slice_counting_rejects_a_radius_that_is_not_positive_and_finite(value):
    zeta = Direction((0.6, 0.8))
    for call in (
        lambda: counting_record(F_RATIO, zeta, value, 0),
        lambda: counting_big_N(F_RATIO, zeta, value, math.inf),
        lambda: counting_small_n(F_RATIO, zeta, value, 0),
        lambda: jensen_residual(F_RATIO, zeta, value, 256),
        lambda: slice_star_total(F_RATIO, zeta, value, 1.0, 256),
        lambda: CountingRecord(r=value, a=0.0, small_n=0, big_N=0.0),
    ):
        with pytest.raises(ValueError, match="must be positive and finite"):
            call()


@pytest.mark.parametrize("D", range(1, 13))
def test_counting_rows_add_the_root_slots_in_order(D):
    # the log-moduli are root-major, (D, rows), and big_N_rows adds a row's
    # slots strictly left to right for every D.  Up to 7 slots, numpy's
    # per-row sum of the old (rows, D) layout adds in the same order, so
    # those rows keep their bits; from 8 slots on it sums pairwise, and the
    # two may differ by a few ulps
    rng = np.random.default_rng(D)
    rows = 300
    logroots = rng.uniform(-2.0, 2.0, (D, rows))
    logroots[rng.random((D, rows)) < 0.2] = math.inf  # the padding of lower degrees
    row_major = np.ascontiguousarray(logroots.T)
    for r in (0.3, 0.5, 1.0, 2.0, 5.0, rng.uniform(0.3, 5.0, rows)):
        radii = np.broadcast_to(r, rows).tolist()
        log_r = np.array([math.log(x) for x in radii])
        want = []
        for column, lr in zip(logroots.T.tolist(), log_r.tolist()):
            total = 0.0
            for x in column:
                total += max(lr - x, 0.0)
            want.append(total)
        got = big_N_rows(logroots, r)
        assert got.tolist() == want
        for i in range(0, rows, 23):  # a batch of one column keeps the bits
            assert big_N_rows(logroots[:, i : i + 1], radii[i])[0] == got[i]
        old = np.maximum(log_r[:, None] - row_major, 0.0).sum(axis=1)
        if D <= 7:
            assert np.array_equal(got, old)
        else:
            assert np.allclose(got, old, rtol=4 * D * np.finfo(float).eps, atol=0.0)
        if np.ndim(r) == 0:
            counts = small_n_rows(logroots, r)
            assert np.array_equal(counts, (row_major <= math.log(r)).sum(axis=1))
            assert counts.tolist() == [sum(x <= math.log(r) for x in c) for c in logroots.T.tolist()]


def test_batch_of_one_gives_the_bits_of_its_row_in_a_batch():
    # the single-slice API and the sphere averages share these primitives,
    # so a one-row batch must reproduce its row of a larger batch exactly
    rng = np.random.default_rng(12)
    f = parse_function(
        "(1 + (0.3-1.1*i)*z1^2*z2 - 0.7*z1*z2 + 2*z2^3) / (1 + (1.2+0.4*i)*z1 - 0.5*z1^2*z2^2)", 2
    )
    dirs = rng.normal(size=(257, 2)) + 1j * rng.normal(size=(257, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    batch = []
    for p in (f.numerator, f.denominator):
        coef = slice_coefficients(p, dirs)
        roots = batched_roots(coef)
        radii = inclusion_radii(coef, roots)
        batch += [coef, roots]
        for i in range(0, 257, 16):
            one = slice_coefficients(p, dirs[i : i + 1])
            assert np.array_equal(one[0], coef[i])
            assert np.array_equal(batched_roots(one)[0], roots[i], equal_nan=True)
            assert np.array_equal(inclusion_radii(one, batched_roots(one))[0], radii[i])
    sep = root_separation(*batch)
    for i in range(0, 257, 16):
        one = [a[i : i + 1] for a in batch]
        assert np.array_equal(root_separation(*one), sep[i : i + 1])


SLOT_F = "(1 + 2*z1 - z2^2 + 0.5*z1*z2^2) / (1 - z1 + 0.3*z2^3)"


def _count_slice_root_calls(monkeypatch) -> list[int]:
    calls = []

    def counted(coef):
        calls.append(coef.shape[0])
        return batched_roots(coef)

    monkeypatch.setattr("starfn.slicing.batched_roots", counted)
    return calls


def test_a_direction_keeps_the_divisor_of_the_last_function(monkeypatch):
    calls = _count_slice_root_calls(monkeypatch)
    F, twin = parse_function(SLOT_F, 2), parse_function(SLOT_F, 2)
    assert F == twin and F is not twin
    zeta = Direction.of((1.0, 0.4 - 0.7j))
    first = slice_divisor(F, zeta)
    assert slice_divisor(F, zeta) is first
    assert len(calls) == 2  # the roots of g and of h, once
    again = slice_divisor(twin, zeta)  # equal by value, but another F
    assert again is not first and again == first
    assert len(calls) == 4
    assert slice_divisor(F, zeta) is not first  # the twin took the slot
    assert len(calls) == 6
    other = Direction.of((1.0, 0.4 - 0.7j))
    assert other == zeta and slice_divisor(F, other) is not slice_divisor(F, zeta)
    assert len(calls) == 8
    assert repr(zeta) == repr(other) and hash(zeta) == hash(other)


def test_a_failed_divisor_build_leaves_the_slot_as_it_was(monkeypatch):
    calls = _count_slice_root_calls(monkeypatch)
    F, G = parse_function(SLOT_F, 2), parse_function("1 + z1 - z2", 2)
    zeta = Direction.of((0.3, 1.0j))
    kept = slice_divisor(F, zeta)
    with pytest.raises(ValueError, match="dimension"):
        slice_divisor(parse_function("1 + z3", 3), zeta)

    def failing(coef):
        raise RootFindingError("no convergence")

    monkeypatch.setattr("starfn.slicing.batched_roots", failing)
    for _ in range(2):  # raised again: the failure was not kept
        with pytest.raises(RootFindingError):
            slice_divisor(G, zeta)
    assert slice_divisor(F, zeta) is kept
    assert len(calls) == 2


def _count_circle_evaluations(monkeypatch) -> list[int]:
    calls = []

    def counted(g_coef, h_coef, w):
        calls.append(w.shape[-1])
        return circle_log_values(g_coef, h_coef, w)

    monkeypatch.setattr("starfn.slicing.circle_log_values", counted)
    return calls


def test_single_slice_queries_on_a_kept_divisor_give_fresh_bits(monkeypatch):
    F = parse_function(SLOT_F, 2)
    components = (0.6 + 0.2j, -0.5 + 0.1j)
    zeta = Direction.of(components)
    div = slice_divisor(F, zeta)
    assert make_slice(F, zeta) is div.pair  # a circle miss builds no second pair
    calls = _count_slice_root_calls(monkeypatch)
    circles = _count_circle_evaluations(monkeypatch)
    thetas = (0.3, math.pi / 2, math.pi)

    def circle_queries(direction, r):
        return [
            jensen_residual(F, direction(), r, 1024),
            circle_log_samples(F, direction(), r, 1024).values.tobytes(),
        ] + [slice_star_total(F, direction(), r, theta, M=1024) for theta in thetas]

    for r in (0.5, 1.0, 2.0):
        for a in (0, math.inf):
            assert counting_record(F, zeta, r, a) == counting_record(F, Direction.of(components), r, a)
        circles.clear()
        kept = circle_queries(lambda: zeta, r)
        assert circles == [1024]  # one evaluation serves all five queries
        assert kept == circle_queries(lambda: Direction.of(components), r)
    assert len(calls) == 2 * 18  # the roots of g and h on each fresh direction

    values = circle_values(F, zeta, 2.0, 1024)
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.0
    circles.clear()
    twin = parse_function(SLOT_F, 2)  # equal by value, but another F
    assert make_slice(twin, zeta) is not div.pair
    for f, r, M in ((F, 2.0, 1024), (twin, 2.0, 1024), (twin, 1.0, 1024), (twin, 1.0, 2048)):
        circle_log_samples(f, zeta, r, M)
        circle_log_samples(f, zeta, r, M)
    assert circles == [1024, 1024, 2048]  # another F, r or M evaluates again
    assert len(calls) == 2 * 18
