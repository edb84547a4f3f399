import math

import numpy as np
import pytest

from starfn.funcdef import MeroFunction, MultiPoly, linear_form, parse_function, parse_poly
from starfn.slicing import (
    CircleProximityError,
    CountingRecord,
    Direction,
    RootFindingError,
    batched_roots,
    big_N_rows,
    circle_log_values,
    circle_values,
    counting_big_N,
    counting_record,
    counting_small_n,
    horner_rows,
    inclusion_radii,
    indeterminacy_test,
    jensen_residual,
    make_slice,
    root_separation,
    slice_coefficients,
    slice_divisor,
    small_n_rows,
)
from starfn.sphere import (
    DirectionSample, counting_several, lelong_number, sample_directions, star_grid, star_several,
    subharmonicity_stats,
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


def test_direction_refuses_a_norm_that_overflows():
    # |c|**2 of a Python complex raises OverflowError past 1e154
    for comps in ((1e200, 0.0), (1e200j, 1.0)):
        with pytest.raises(ValueError, match="direction norm inf is not 1"):
            Direction(comps)


def test_horner_rows_matches_numpy():
    row = np.array([[1, -0.5, 0.25j]])
    pts = np.array([0.3 + 0.1j, -1.2j, 2.0])
    expect = np.polyval(row[0, ::-1], pts)
    assert np.allclose(horner_rows(row, pts)[0], expect, atol=1e-14)
    assert horner_rows(row, np.zeros(1, dtype=complex))[0, 0] == 1


def test_make_slice_trims_a_leading_coefficient_that_cancels_exactly():
    # along (1, 1)/sqrt(2) the z^2 terms of z1^2 - z2^2 cancel to an exact 0
    f = parse_function("1 + 2*z1 + z1^2 - z2^2", 2)
    s = make_slice(f, ZETA_0)
    assert s.g.shape == (1, 2) and s.h.shape == (1, 1)
    assert s.g[0, 1] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert not s.g.flags.writeable and not s.h.flags.writeable
    assert slice_divisor(f, ZETA_0).zeros[0] == (pytest.approx(-1 / math.sqrt(2), abs=1e-15), 1)


def test_make_slice_ratio_example():
    sp = make_slice(F_RATIO, ZETA_86)
    assert sp.g[0].tolist() == [1 + 0j, -0.8 + 0j]
    assert sp.h[0].tolist() == [1 + 0j, -0.6 + 0j]


def test_make_slice_constant_and_product():
    one = MeroFunction.one(3)
    sp = make_slice(one, Direction.of((1, 1, 1)))
    assert sp.g[0].tolist() == [1 + 0j] and sp.h[0].tolist() == [1 + 0j]

    f = parse_function("1 - z1*z2", 2)
    sp2 = make_slice(f, ZETA_0)
    assert sp2.h[0].tolist() == [1 + 0j]
    assert sp2.g[0, 1] == 0
    assert sp2.g[0, 2] == pytest.approx(-0.5, abs=1e-15)


def test_a_slice_coefficient_that_overflows_is_refused():
    # four terms of 1e308 * 0.5 sum past the largest float.  Along row 50 of
    # the sample, z's coefficient -1.22e308+1.36e308j has finite parts but a
    # modulus that overflows.  Run with RuntimeWarnings as errors, an
    # overflow warning would escape as one
    F = parse_function("1 + 1e308*z1 + 1e308*z2 + 1e308*z3 + 1e308*z4", 4)
    sample = sample_directions(4, 200, seed=0)
    row_50 = Direction(tuple(sample.directions[50].tolist()))
    with np.errstate(over="ignore"):
        coef = sum(1e308 * c for c in row_50.components)
        assert np.isfinite(coef) and np.isinf(np.abs(coef))
    queries = (
        make_slice,
        slice_divisor,
        indeterminacy_test,
        lambda F, zeta: circle_values(F, zeta, 1.0, 64),
        lambda F, zeta: counting_record(F, zeta, 1.0, 0),
        lambda F, zeta: slice_star_total(F, zeta, 1.0, 1.0, 64),
        lambda F, zeta: jensen_residual(F, zeta, 1.0, 64),
    )
    for zeta in (Direction.of((1, 1, 1, 1)), row_50):
        for query in queries:
            with pytest.raises(ValueError, match="non-finite coefficient"):
                query(F, zeta)
    sphere_queries = (
        lambda: star_several(F, 1.0, 1.0, sample, M=64),
        lambda: counting_several(F, 1.0, 0, sample),
        lambda: lelong_number(F, 1.0, 0, sample),
        lambda: star_grid(F, [1.0], [1.0], sample, M=64),
        lambda: subharmonicity_stats(F, [0.5, 1.0, 1.5], [0.5, 1.0, 1.5], sample, M=64),
    )
    for query in sphere_queries:
        for _ in range(2):  # a failed build is never kept, so it is tried again
            with pytest.raises(ValueError, match="non-finite coefficient"):
                query()


def test_a_leading_coefficient_near_the_largest_float_keeps_its_root():
    # along row 14 of the sample z's coefficient is -1.10e308+1.15e308j: its
    # modulus is finite, but the intermediate sums of numpy's complex division
    # by it overflow, which gave a root of 0 and N(1, 0) = inf
    F = parse_function("1 + 1e308*z1 + 1e308*z2 + 1e308*z3 + 1e308*z4", 4)
    sample = sample_directions(4, 21, seed=1)
    batch = sample.slices(F)
    coef = batch.g_coef[14, 1]
    assert 1e308 < abs(coef) < math.inf
    root = batched_roots(batch.g_coef[14:15])[0, 0]
    assert 0 < abs(root) and abs(coef * root + 1) < 1e-12
    est = counting_several(F, 1.0, 0, sample)
    assert math.isfinite(est.mean) and math.isfinite(est.stderr) and est.count_used == 21
    record = counting_record(F, Direction(tuple(sample.directions[14])), 1.0, 0.0)
    assert record.big_N == big_N_rows(batch.logroots(0), 1.0)[14] > 700


def test_rows_scaled_before_division_keep_the_bits_of_an_unscaled_division():
    # a row with a modulus of 2**1022 to 2**1023.5 is scaled first, though
    # its plain division does not overflow; these leading coefficients have
    # normal reciprocals, so the roots keep their bits
    huge, lead = 0.6e308 + 0.6e308j, 1e300 + 2e300j
    assert 2.0**1022 <= abs(huge) < 2.0**1023.5
    linear = np.array([[huge, lead]])
    assert batched_roots(linear)[0].tobytes() == (-linear[:, 0] / linear[:, 1]).tobytes()
    # its roots, about 0.69 and 3.8e7, are both found; a constant term of
    # 1 + 2j would put the small one at 2.6e-308, lost to 0 (refused below)
    quadratic = np.array([[0.5e308 + 0.3e308j, huge, lead]])
    monic = quadratic[:, :2] / quadratic[:, 2:]
    companion = np.array([[[0, -monic[0, 0]], [1, -monic[0, 1]]]])
    assert batched_roots(quadratic).tobytes() == np.linalg.eigvals(companion).tobytes()


# h = 1 + 3.8e174 z + 7e294 z^2 has roots of modulus 5.5e-121 and 2.6e-175,
# too far apart for one companion eigenvalue solve: the small one came back
# as an exact 0, and N(r, inf) as inf
TINY_ROOT_H = MultiPoly(2, {(0, 0): 1, (0, 1): 2.18e174 + 3.15e174j, (0, 2): 1.67e294 + 6.78e294j})
TINY_ROOT_F = MeroFunction.from_polys(MultiPoly.constant(2, 1), TINY_ROOT_H)


def test_a_root_lost_to_zero_is_refused():
    row = np.array([[1, 2.18e174 + 3.15e174j, 1.67e294 + 6.78e294j]])
    with pytest.raises(ValueError, match="root too small"):
        batched_roots(row)
    # a root at 0 of a row whose constant term is 0 is exact, and kept
    assert sorted(batched_roots(np.array([[0, 1, 1.0 + 0j]]))[0].tolist(), key=abs) == [0j, -1 + 0j]
    zeta = Direction((0j, 1 + 0j))
    queries = (
        lambda: slice_star_total(TINY_ROOT_F, zeta, 0.021, 1.0, M=256),
        lambda: counting_big_N(TINY_ROOT_F, zeta, 0.021, math.inf),
        lambda: jensen_residual(TINY_ROOT_F, zeta, 0.021, 256),
    )
    for query in queries:
        with pytest.raises(ValueError, match="root too small"):
            query()


def test_a_sample_with_a_root_lost_to_zero_is_refused():
    sample = DirectionSample(n=2, seed=0, count=2, directions=np.array([[0, 1], [0, 1j]]))
    for query in (
        lambda: counting_several(TINY_ROOT_F, 0.021, math.inf, sample),
        lambda: star_several(TINY_ROOT_F, 0.021, 1.0, sample, M=256),
    ):
        with pytest.raises(ValueError, match="root too small"):
            query()


def test_a_circle_value_that_overflows_is_refused():
    # Horner's rule overflows on g alone at r = 1e10, where log|g| - log|h|
    # would be +inf, and on both sides at r = 1e300, where inf - inf is a NaN
    # that would read as a common zero and become 0
    cases = (
        (parse_function("1 + 1e300*z1", 2), Direction.of([1, 0]), 1e10),
        (parse_function("(1 + z1^2) / (1 - z2^2)", 2), Direction.of([1, 1]), 1e300),
    )
    sample = sample_directions(2, 50, seed=0)
    for F, zeta, r in cases:
        queries = (
            lambda: circle_values(F, zeta, r, 64),
            lambda: circle_log_samples(F, zeta, r, 64),
            lambda: slice_star_total(F, zeta, r, 1.0, 64),
            lambda: jensen_residual(F, zeta, r, 64),
            # the rows' rounding scale overflows, so the gate sends them to Horner's rule
            lambda: star_several(F, r, 1.0, sample, M=64),
        )
        for query in queries:
            with pytest.raises(ValueError, match="non-finite circle value"):
                query()
        assert np.isfinite(circle_values(F, zeta, 1.0, 64)).all()  # the slice is fine at r = 1
    # an exact zero, a common zero and an exact pole keep -inf, NaN and +inf
    g = np.array([[1, -1], [1, -1], [1, 1]], dtype=complex)
    h = np.array([[1, 1], [1, -1], [1, -1]], dtype=complex)
    vals = circle_log_values(g, h, np.ones(1))
    assert vals[0, 0] == -math.inf and math.isnan(vals[1, 0]) and vals[2, 0] == math.inf


# the roots of a slice in a disk |z| <= t: slice_divisor clusters them by
# their inclusion discs, and counting_small_n counts those in the disk
UNIT = Direction((1.0,))


def _one_variable(coeffs) -> MeroFunction:
    """The polynomial with these ascending coefficients as a function of one
    variable, scaled to constant term 1: its slice along UNIT is itself."""
    terms = {(k,): complex(c) for k, c in enumerate(coeffs) if c}
    return MeroFunction.from_polys(MultiPoly(1, terms), MultiPoly.constant(1, 1))


def test_roots_in_disk_single_root():
    F = _one_variable((1, -0.6))
    assert counting_small_n(F, UNIT, 1.0, 0) == 0
    assert counting_small_n(F, UNIT, 2.0, 0) == 1
    (z, m), = slice_divisor(F, UNIT).zeros
    assert m == 1 and z == pytest.approx(5 / 3, abs=1e-12)
    assert abs(horner_rows(make_slice(F, UNIT).g, np.array([z]))[0, 0]) <= 1e-12


def test_roots_in_disk_constant_and_double_root():
    assert slice_divisor(MeroFunction.one(1), UNIT).zeros == ()
    assert counting_small_n(MeroFunction.one(1), UNIT, 5.0, 0) == 0
    F = _one_variable((1, 1, 0.25))  # (1 + z/2)^2
    assert counting_small_n(F, UNIT, 3.0, 0) == 2
    (z, m), = slice_divisor(F, UNIT).zeros
    assert m == 2 and z == pytest.approx(-2.0, abs=1e-6)


def test_roots_in_disk_triple_and_quadruple_root():
    # an m-fold root splits by about eps^(1/m): ~1e-5 for m = 3, ~1e-4 for
    # m = 4 and ~0.01 for m = 8, as (1 + z/2)^m shows
    powers = [(m, tuple(math.comb(m, k) / 2**k for k in range(m + 1))) for m in range(5, 9)]
    for m, coeffs in ((3, (1, 1.5, 0.75, 0.125)), (4, (1, 2, 1.5, 0.5, 0.0625)), *powers):
        F = _one_variable(coeffs)
        assert counting_small_n(F, UNIT, 3.0, 0) == m
        (z, mult), = slice_divisor(F, UNIT).zeros
        assert mult == m and z == pytest.approx(-2.0, abs=1e-6)


def test_roots_in_disk_ill_conditioned_double_root_beside_a_simple_one():
    # (1-z)^2 (1-z/1.001): the double root at 1 splits by ~2.3e-6, far more
    # than a double root alone would, because the simple root is 1e-3 away
    coeffs = np.polynomial.polynomial.polymul((1, -2, 1), (1, -1 / 1.001))
    zeros = slice_divisor(_one_variable(coeffs), UNIT).zeros
    assert [m for _, m in zeros] == [2, 1]
    assert abs(zeros[0][0] - 1.0) <= 1e-8
    assert abs(zeros[1][0] - 1.001) <= 1e-8


def test_roots_in_disk_keeps_a_tight_ring_of_distinct_roots():
    # (1-z)^8 - 1e-8 has 8 simple roots on the circle |z - 1| = 0.1, 0.077
    # apart: an 8-fold merge radius of ~0.09 would take them for one root
    coeffs = [math.comb(8, k) * (-1) ** k for k in range(9)]
    coeffs[0] -= 1e-8
    F = _one_variable(coeffs)
    assert counting_small_n(F, UNIT, 3.0, 0) == 8
    zeros = slice_divisor(F, UNIT).zeros
    assert [m for _, m in zeros] == [1] * 8
    assert all(abs(abs(z - 1.0) - 0.1) <= 1e-6 for z, _ in zeros)


def test_roots_in_disk_total_multiplicity_is_degree():
    rng = np.random.default_rng(3)
    for _ in range(25):
        deg = int(rng.integers(1, 7))
        coeffs = [1 + 0j] + [
            complex(rng.normal(), rng.normal()) * 0.5 for _ in range(deg)
        ]
        F = _one_variable(coeffs)
        assert sum(m for _, m in slice_divisor(F, UNIT).zeros) == deg
        assert counting_small_n(F, UNIT, 1e300, 0) == deg


def test_roots_in_disk_rejects_a_radius_that_is_not_nonnegative():
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            counting_small_n(_one_variable((1, 2)), UNIT, t, 0)


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
        assert a.shape == b.shape
        assert np.allclose(a, b, atol=1e-12)


def test_counting_record_validation():
    with pytest.raises(ValueError):
        CountingRecord(r=1.0, a=2.0, small_n=0, big_N=0.0)
    with pytest.raises(ValueError):
        CountingRecord(r=-1.0, a=0.0, small_n=0, big_N=0.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            CountingRecord(r=1.0, a=0.0, small_n=1, big_N=value)


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


def test_one_root_extraction_per_function_and_direction(monkeypatch):
    calls = _count_slice_root_calls(monkeypatch)
    F = parse_function(SLOT_F, 2)
    zeta = Direction.of((0.2 - 0.9j, 1.0))
    flag, sep = indeterminacy_test(F, zeta)
    div = slice_divisor(F, zeta)
    record = counting_record(F, zeta, 1.5, 0)
    assert calls == [1, 1]  # the raw roots of g and of h, once each
    assert (flag, sep) == indeterminacy_test(F, zeta) and div is slice_divisor(F, zeta)
    assert record == counting_record(F, zeta, 1.5, 0) and calls == [1, 1]
    fresh = Direction.of((0.2 - 0.9j, 1.0))
    assert indeterminacy_test(F, fresh) == (flag, sep)
    assert slice_divisor(F, fresh) == div and counting_record(F, fresh, 1.5, 0) == record
    assert calls == [1, 1] * 2


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
    assert make_slice(F, zeta).divisor is div  # a circle miss builds no second slice
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
    assert make_slice(twin, zeta) is not make_slice(F, zeta)
    for f, r, M in ((F, 2.0, 1024), (twin, 2.0, 1024), (twin, 1.0, 1024), (twin, 1.0, 2048)):
        circle_log_samples(f, zeta, r, M)
        circle_log_samples(f, zeta, r, M)
    assert circles == [1024, 1024, 2048]  # another F, r or M evaluates again
    assert len(calls) == 2 * 18
