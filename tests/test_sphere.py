import math

import numpy as np
import pytest

from starfn.funcdef import MeroFunction, MultiPoly, linear_form, parse_function
from starfn.slicing import (
    Direction,
    batched_roots,
    big_N_rows,
    counting_record,
    indeterminacy_test,
    slice_divisor,
    small_n_rows,
)
from starfn.sphere import (
    QUAD_SLACK,
    AllDirectionsSkippedError,
    DirectionSample,
    Estimate,
    SliceBatch,
    StarGrid,
    check_grid,
    check_stencil,
    counting_several,
    lelong_number,
    mean_value_differences,
    sample_directions,
    star_grid,
    star_several,
    subharmonicity_report,
    subharmonicity_stats,
)
from starfn.starcore import slice_star_total, star_rows

RATIO = parse_function("(1 - z1) / (1 - z2)", 2)
ONE_PLUS_Z1 = parse_function("1 + z1", 2)
#: a denominator of degree 8 in z1 and z2 whose slices have nine simple poles
NINE_POLES = parse_function(
    "1/(1 - 0.4*z1 + 0.3*z2 + 0.2*z1^2 - 0.5*z1*z2 + 0.1*z2^2 + 0.35*z1^3*z2 - 0.25*z2^4"
    " + 0.15*z1^5 + 0.2*z1^2*z2^3 - 0.3*z1^7 + 0.4*z1^4*z2^4 + 0.6*z2^8 - 0.45*z1^5*z2^4)",
    2,
)

# E[log+(2|zeta_1|)] for uniform zeta on S^3: |zeta_1|^2 ~ Uniform(0,1), so
# the mean is (1/2) * int_{1/4}^{1} log(4u) du = log 2 - 3/8.
LOG_PLUS_MEAN = math.log(2.0) - 0.375


def test_sample_directions_determinism_and_symmetry():
    a = sample_directions(2, 400, seed=42)
    b = sample_directions(2, 400, seed=42)
    assert np.array_equal(a.directions, b.directions)
    c = sample_directions(2, 400, seed=43)
    assert not np.array_equal(a.directions, c.directions)

    # symmetry: E|zeta_1|^2 = 1/2 on S^3
    big = sample_directions(2, 10_000, seed=42)
    mods = np.abs(big.directions[:, 0]) ** 2
    stderr = mods.std(ddof=1) / math.sqrt(mods.size)
    assert abs(mods.mean() - 0.5) <= 3 * stderr

    circle = sample_directions(1, 25, seed=0)
    assert circle.directions.shape == (25, 1)
    assert not circle.directions.flags.writeable

    with pytest.raises(ValueError):
        sample_directions(2, 0, seed=1)
    with pytest.raises(ValueError):
        DirectionSample(n=2, seed=1, count=3, directions=a.directions[:2])
    with pytest.raises(ValueError):
        DirectionSample(n=2, seed=1, count=2, directions=1.5 * a.directions[:2])
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        dirs = a.directions[:3].copy()
        dirs[1, 1] = bad
        with pytest.raises(ValueError, match=r"direction 1 \(.*\) has a non-finite component"):
            DirectionSample(n=2, seed=1, count=3, directions=dirs)


@pytest.mark.parametrize("row", [[1e200, 0], [0, 1e200j], [1e160 + 1e160j, 0]])
def test_direction_sample_refuses_a_norm_that_overflows(row):
    # run with RuntimeWarnings as errors, numpy's overflow warning in the
    # squares would escape in place of the norm message
    with pytest.raises(ValueError, match="every direction must have norm 1"):
        DirectionSample(n=2, seed=0, count=1, directions=np.array([row]))


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(mean=0.0, stderr=0.0, count_used=0)
    with pytest.raises(ValueError):
        Estimate(mean=0.0, stderr=-1e-3, count_used=5)


def test_constant_function_means_are_exactly_zero():
    sample = sample_directions(2, 200, seed=5)
    one = MeroFunction.one(2)
    for est in (
        star_several(one, 2.0, 1.0, sample, M=64),
        counting_several(one, 2.0, math.inf, sample),
        lelong_number(one, 3.0, 0, sample),
    ):
        assert est.mean == 0.0
        assert est.stderr == 0.0
        assert est.count_used == 200


def test_star_theta_zero_equals_counting_infinity_exactly():
    sample = sample_directions(2, 1500, seed=11)
    s = star_several(RATIO, 2.0, 0.0, sample, M=256)
    c = counting_several(RATIO, 2.0, math.inf, sample)
    # same summands, same reduction -> identical, not merely close
    assert s.mean == c.mean
    assert s.stderr == c.stderr
    assert s.count_used == c.count_used


def test_counting_matches_per_direction_formula_and_integral():
    sample = sample_directions(2, 20_000, seed=7)
    est = counting_several(RATIO, 2.0, math.inf, sample)
    assert est.count_used == sample.count  # X = {zeta1 = zeta2} is never hit here

    # oracle: the slice pole sits at 1/zeta2, so N(2,inf) = max(0, log(2|zeta2|))
    s = np.abs(sample.directions[:, 1])
    oracle = np.maximum(0.0, np.log(2.0 * s))
    assert abs(est.mean - oracle.mean()) <= 1e-9

    # and the 1-D integral over the known distribution of |zeta2|
    assert abs(est.mean - LOG_PLUS_MEAN) <= 4 * est.stderr
    assert est.stderr < 3e-3


def test_star_path_and_counting_path_agree_on_log_plus():
    # T*(-r) = N(r,0): the star estimate at theta=pi and the zero-counting
    # estimate on an independent sample measure the same number.
    s1 = sample_directions(2, 4000, seed=101)
    s2 = sample_directions(2, 4000, seed=202)
    star = star_several(ONE_PLUS_Z1, 2.0, math.pi, s1, M=2048)
    cnt = counting_several(ONE_PLUS_Z1, 2.0, 0, s2)
    assert abs(star.mean - cnt.mean) <= 3 * (star.stderr + cnt.stderr)
    assert abs(cnt.mean - LOG_PLUS_MEAN) <= 4 * cnt.stderr


def test_star_several_matches_bruteforce_slice_loop():
    F = parse_function("(1 + z1 - 0.5*z2 + 0.25*z1*z2) / (1 + 0.3*z2^2)", 2)
    sample = sample_directions(2, 32, seed=3)
    r, theta, M = 1.7, 1.1, 2048
    est = star_several(F, r, theta, sample, M=M)

    totals = [
        slice_star_total(F, Direction(tuple(z)), r, theta, M=M).total for z in sample.directions
    ]
    assert est.count_used == 32
    assert abs(est.mean - np.mean(totals)) <= 1e-9
    assert abs(est.stderr - np.std(totals, ddof=1) / math.sqrt(32)) <= 1e-9


def test_one_variable_reduces_to_classical_slice():
    F = parse_function("(1 + z1) / (1 - 0.4*z1)", 1)
    sample = sample_directions(1, 64, seed=9)
    est = star_several(F, 1.0, math.pi / 2, sample, M=4096)
    classical = slice_star_total(F, Direction((1 + 0j,)), 1.0, math.pi / 2, M=4096).total
    # the integrand in the sphere average is rotation invariant on S^1, so
    # every direction reproduces the zeta=1 value up to node placement
    assert est.stderr <= 1e-3
    assert abs(est.mean - classical) <= 3 * est.stderr + 1e-3


def test_lelong_number_tail_and_small_t():
    sample = sample_directions(2, 4000, seed=13)
    tail = lelong_number(ONE_PLUS_Z1, 1e3, 0, sample)
    assert tail.mean >= 0.99
    inner = lelong_number(ONE_PLUS_Z1, 0.5, 0, sample)
    assert inner.mean == 0.0  # root modulus 1/|zeta1| >= 1 always

    with pytest.raises(ValueError):
        lelong_number(ONE_PLUS_Z1, -1.0, 0, sample)
    with pytest.raises(ValueError):
        counting_several(ONE_PLUS_Z1, 2.0, 1.0, sample)  # a must be 0 or inf


def test_counting_increment_equals_lelong_integral():
    # N(r2) - N(r1) = int_{r1}^{r2} n(t)/t dt, checked with Simpson on the
    # same sample (the per-direction identity is exact; quadrature only has
    # to resolve the smooth mean t -> mean n(t))
    sample = sample_directions(2, 4000, seed=21)
    r1, r2 = 1.5, 2.5
    lhs = (
        counting_several(ONE_PLUS_Z1, r2, 0, sample).mean
        - counting_several(ONE_PLUS_Z1, r1, 0, sample).mean
    )
    nodes = 33
    ts = np.linspace(r1, r2, nodes)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (ts[1] - ts[0]) / 3.0
    ests = [lelong_number(ONE_PLUS_Z1, t, 0, sample) for t in ts]
    rhs = sum(w * e.mean / t for w, e, t in zip(weights, ests, ts))
    stderr_budget = sum(w * e.stderr / t for w, e, t in zip(weights, ests, ts))
    lhs_stderr = max(
        counting_several(ONE_PLUS_Z1, r, 0, sample).stderr for r in (r1, r2)
    )
    assert abs(lhs - rhs) <= 3 * (lhs_stderr + stderr_budget) + 3e-3


def test_star_grid_column_identities():
    sample = sample_directions(2, 800, seed=31)
    radii = (1.5, 2.0, 2.5)
    thetas = (0.0, math.pi / 2, math.pi)
    grid = star_grid(RATIO, radii, thetas, sample, M=2048)

    assert grid.skipped == 0
    for i, r in enumerate(radii):
        col0 = grid.cells[i][0]
        ninf = counting_several(RATIO, r, math.inf, sample)
        assert col0.mean == ninf.mean and col0.stderr == ninf.stderr

        colpi = grid.cells[i][2]
        nzero = counting_several(RATIO, r, 0, sample)
        assert abs(colpi.mean - nzero.mean) <= 1e-3  # Jensen quadrature only

        # theta -> T* is concave per direction, hence in the mean
        midpoint = 0.5 * (grid.cells[i][0].mean + grid.cells[i][2].mean)
        assert grid.cells[i][1].mean >= midpoint - 1e-12


def test_star_grid_validation():
    sample = sample_directions(2, 16, seed=1)
    with pytest.raises(ValueError):
        star_grid(RATIO, (2.0, 1.0), (0.0, 1.0), sample, M=64)[0]
    with pytest.raises(ValueError):
        star_grid(RATIO, (-1.0, 1.0), (0.0, 1.0), sample, M=64)
    with pytest.raises(ValueError):
        star_several(RATIO, 0.0, 1.0, sample, M=64)
    est = Estimate(mean=0.0, stderr=0.0, count_used=1)
    with pytest.raises(ValueError):
        StarGrid(
            r_values=(1.0, 2.0),
            theta_values=(1.0, 0.0),
            cells=((est, est), (est, est)),
            sample=sample,
            skipped=0,
        )


def test_all_directions_skipped_raises():
    shared_root = parse_function("(1 - z1) / (1 - z1)", 2)
    sample = sample_directions(2, 8, seed=2)
    with pytest.raises(AllDirectionsSkippedError):
        counting_several(shared_root, 2.0, math.inf, sample)


def test_bad_arguments_raise_before_the_ensemble_is_built():
    # every direction of this F is skipped, so a late check would raise
    # AllDirectionsSkippedError instead
    shared_root = parse_function("(1 - z1) / (1 - z1)", 2)
    sample = sample_directions(2, 8, seed=2)
    with pytest.raises(ValueError):
        counting_several(shared_root, 2.0, 5.0, sample)
    with pytest.raises(ValueError):
        lelong_number(shared_root, 1.0, 5.0, sample)
    with pytest.raises(ValueError):
        star_grid(shared_root, (2.0, 1.0), (0.0, 1.0), sample, M=64)
    with pytest.raises(ValueError):
        star_several(shared_root, 1.0, 4.0, sample, M=64)
    with pytest.raises(ValueError):
        star_grid(shared_root, (1.0, 2.0), (0.5, 4.0), sample, M=64)
    with pytest.raises(ValueError):
        star_several(shared_root, 1.0, 1.0, sample, M=8)
    with pytest.raises(ValueError):
        star_grid(shared_root, (1.0, 2.0), (0.5, 1.0), sample, M=8)
    with pytest.raises(ValueError):
        subharmonicity_stats(shared_root, (0.5, 1.0, 1.5), (0.5, 1.0, 1.5), sample, M=8)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_sphere_averages_reject_a_radius_that_is_not_positive_and_finite(value):
    sample = sample_directions(2, 8, seed=2)
    for call in (
        lambda: counting_several(RATIO, value, 0, sample),
        lambda: lelong_number(RATIO, value, 0, sample),
        lambda: star_several(RATIO, value, 1.0, sample, M=64),
        lambda: star_grid(RATIO, (0.5, value), (0.5, 1.0), sample, M=64),
        lambda: check_grid((value,), (0.5, 1.0), 64),
        lambda: check_stencil((0.5, 1.0, value), GRID_TH, None, 8),
        lambda: check_stencil(GRID_R, GRID_TH, value, 8),  # rho
    ):
        with pytest.raises(ValueError, match="must be positive and finite"):
            call()


def test_a_single_slice_counts_with_the_bits_of_its_batch_row_past_eight_poles():
    # one slice engine: a direction's SliceDivisor gives N and n of its row
    # in the sample's batch.  The divisor lists its poles by modulus, so N
    # is compared on the batch's columns in that order; the rows have nine
    # pole slots, past the 7 that numpy's per-row sum adds in order, and
    # both paths add the slots left to right
    sample = sample_directions(2, 40, seed=3)
    batch = sample.slices(NINE_POLES)
    assert batch.h_logroots.shape == (9, 40)
    divisors = [slice_divisor(NINE_POLES, Direction(tuple(row))) for row in sample.directions]
    assert all([m for _, m in div.poles] == [1] * 9 for div in divisors)
    ordered = np.sort(batch.h_logroots, axis=0)
    for r in (0.5, 1.0, 2.0, 5.0):
        big_N, small_n = big_N_rows(ordered, r), small_n_rows(batch.h_logroots, r)
        for i, div in enumerate(divisors):
            assert div.big_N(r, math.inf) == big_N[i]
            assert div.small_n(r, math.inf) == small_n[i]
    assert (small_n >= 8).sum() > 20  # at r = 5 most rows count 8 or 9 poles


def test_sphere_averages_reject_too_few_circle_nodes():
    sample = sample_directions(2, 8, seed=2)
    with pytest.raises(ValueError):
        star_several(RATIO, 1.0, 1.0, sample, M=8)
    with pytest.raises(ValueError):
        star_grid(RATIO, (0.5, 1.0), (0.5, 1.0), sample, M=8)


def test_sphere_skips_exactly_the_directions_indeterminacy_test_flags():
    # A double common factor: the two raw roots of the double root split by
    # about 1e-8, more than the tolerance, so only clustered roots see it.
    # Every slice is indeterminate and every direction must be skipped.
    F = parse_function("(1-z1)^2*(1+z2) / ((1-z1)^2*(1-z2))", 2)
    sample = sample_directions(2, 200, seed=3)
    assert all(indeterminacy_test(F, Direction(tuple(d)))[0] for d in sample.directions)
    with pytest.raises(AllDirectionsSkippedError):
        counting_several(F, 2.0, math.inf, sample)

    # a sample with a few indeterminate directions among regular ones
    G = parse_function("(1-z1)^2*(1+z2) / ((1-z2)^2*(1+z1))", 2)
    extra = [Direction.of(v) for v in ((1.0, 1.0), (1j, 1j), (-0.3 + 0.4j, -0.3 + 0.4j))]
    dirs = np.vstack([sample_directions(2, 40, seed=5).directions] + [d.components for d in extra])
    mixed = DirectionSample(n=2, seed=5, count=len(dirs), directions=dirs)
    flags = [indeterminacy_test(G, Direction(tuple(d)))[0] for d in dirs]
    assert sum(flags) == 3
    assert counting_several(G, 2.0, math.inf, mixed).count_used == flags.count(False)


def test_common_cube_factor_is_indeterminate_everywhere():
    # A triple root splits into three raw roots about 1e-5 apart, a 5-fold
    # one into five ~1e-3 apart; clustered as one root of that multiplicity,
    # it cancels against the denominator's.
    reduced = parse_function("(1+z2) / (1-z2)", 2)
    sample = sample_directions(2, 200, seed=3)
    for m in (3, 5):
        F = parse_function(f"(1-z1)^{m}*(1+z2) / ((1-z1)^{m}*(1-z2))", 2)
        assert all(indeterminacy_test(F, Direction(tuple(d)))[0] for d in sample.directions)
        with pytest.raises(AllDirectionsSkippedError):
            counting_several(F, 2.0, math.inf, sample)
        for d in sample.directions[:20]:
            zeta = Direction(tuple(d))
            for a in (0, math.inf):
                got = counting_record(F, zeta, 2.0, a)
                want = counting_record(reduced, zeta, 2.0, a)
                assert got.small_n == want.small_n
                assert abs(got.big_N - want.big_N) <= 1e-9


def test_ring_of_zeros_around_a_pole_is_not_indeterminate():
    # g's zeros lie on a circle of radius 0.1/|zeta_1| around h's pole
    # 1/zeta_1, so their centroid is the pole: taken for one 8-fold zero,
    # the ring would cancel against it and the sphere would skip the slice
    F = parse_function("((1-z1)^8 - 1e-8) / (1-z1)", 2)
    sample = sample_directions(2, 200, seed=3)
    assert not any(indeterminacy_test(F, Direction(tuple(d)))[0] for d in sample.directions)
    assert counting_several(F, 2.0, 0, sample).count_used == 200
    div = slice_divisor(F, Direction(tuple(sample.directions[0])))
    assert [m for _, m in div.zeros] == [1] * 8 and [m for _, m in div.poles] == [1]
    assert div.cancelled == ()


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


def test_skipped_fraction_is_tiny_for_random_rationals():
    rng = np.random.default_rng(2024)
    sample = sample_directions(2, 10_000, seed=77)
    for _ in range(3):
        F = _random_rational(rng)
        est = counting_several(F, 2.0, math.inf, sample)
        assert sample.count - est.count_used <= 10  # <= 1e-3 of the sample


def _compose(p, mat):
    rows = [linear_form(tuple(mat[i]), 2) for i in range(2)]
    out = MultiPoly.zero(2)
    for exp, c in p.terms.items():
        term = MultiPoly.constant(2, c)
        for row, e in zip(rows, exp):
            term = term * row**e
        out = out + term
    return out


def test_unitary_invariance_of_sphere_average():
    rng = np.random.default_rng(55)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    U, _ = np.linalg.qr(A)
    FU = MeroFunction.from_polys(
        _compose(RATIO.numerator, U), _compose(RATIO.denominator, U)
    )
    s1 = sample_directions(2, 4000, seed=60)
    s2 = sample_directions(2, 4000, seed=61)
    a = star_several(RATIO, 2.0, 1.0, s1, M=2048)
    b = star_several(FU, 2.0, 1.0, s2, M=2048)
    assert abs(a.mean - b.mean) <= 4 * (a.stderr + b.stderr)


def test_empirical_continuity_at_regular_direction():
    # zeta0 = (0.8, 0.6) is not indeterminate for RATIO; the slice star total
    # should converge along directions approaching it.
    zeta0 = Direction((0.8 + 0j, 0.6 + 0j))
    base = slice_star_total(RATIO, zeta0, 2.0, 1.0, M=4096).total
    v0 = np.array([0.8, 0.6], dtype=complex)
    step = np.array([0.3, -0.4], dtype=complex)  # tangent-ish perturbation
    gaps = []
    for dist in (1e-2, 1e-3, 1e-4):
        vk = v0 + dist * step / np.linalg.norm(step)
        zk = Direction.of(vk)
        assert np.linalg.norm(np.array(zk.components) - v0) <= 2 * dist
        gaps.append(abs(slice_star_total(RATIO, zk, 2.0, 1.0, M=4096).total - base))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3


def test_counting_jump_at_indeterminacy_point():
    # along zeta_k = (r_k, s_k) -> (1/sqrt2, 1/sqrt2), N(2,inf) stays
    # log 2 + log s_k, while at the limit the slice cancels and N = 0:
    # the jump is exactly log 2 + log(1/sqrt2) = log sqrt2.
    for s in (0.72, 0.709, 0.7072):
        r = math.sqrt(1.0 - s * s)
        zk = Direction((r + 0j, s + 0j))
        rec = counting_record(RATIO, zk, 2.0, math.inf)
        assert abs(rec.big_N - (math.log(2.0) + math.log(s))) <= 1e-9
    zeta0 = Direction.of((1.0, 1.0))
    rec0 = counting_record(RATIO, zeta0, 2.0, math.inf)
    assert rec0.big_N == 0.0
    jump = math.log(2.0) + math.log(1.0 / math.sqrt(2.0))
    assert abs(jump - math.log(math.sqrt(2.0))) <= 1e-15
    assert len(slice_divisor(RATIO, zeta0).cancelled) == 1


GRID_R = tuple(np.linspace(0.5, 2.0, 5))
GRID_TH = tuple(np.linspace(0.3, math.pi - 0.3, 5))


def test_subharmonicity_constant_function_all_zero():
    sample = sample_directions(2, 300, seed=8)
    stats = subharmonicity_stats(MeroFunction.one(2), GRID_R, GRID_TH, sample, M=128)
    assert len(stats) == 9
    assert all(st.mean_diff == 0.0 and st.stderr == 0.0 for st in stats)
    assert subharmonicity_report(MeroFunction.one(2), GRID_R, GRID_TH, sample, M=128) == []


def test_subharmonicity_harmonic_form_is_mean_value_flat():
    # F(Z) = P(Z.eta) with P=(1+u/2)^2, eta=(1,2): the sphere average is
    # harmonic, so circle means match centers up to quadrature noise.
    F = parse_function("1 + z1 + 2*z2 + 0.25*z1^2 + z1*z2 + z2^2", 2)
    sample = sample_directions(2, 1500, seed=88)
    stats = subharmonicity_stats(F, GRID_R, GRID_TH, sample, M=512)
    assert subharmonicity_report(F, GRID_R, GRID_TH, sample, M=512) == []
    for st in stats:
        assert abs(st.mean_diff) <= 3 * st.stderr + 1e-3


def test_subharmonicity_generic_product_strictly_positive_somewhere():
    F = parse_function("(1 + z1) * (1 + 2*z2)", 2)
    sample = sample_directions(2, 1500, seed=99)
    assert subharmonicity_report(F, GRID_R, GRID_TH, sample, M=512) == []
    stats = subharmonicity_stats(F, GRID_R, GRID_TH, sample, M=512)
    assert any(st.mean_diff > 3 * st.stderr and st.mean_diff > 0 for st in stats)


def test_subharmonicity_report_flags_points_of_a_one_direction_sample():
    # one direction gives every point a stderr of 0, and at M=16 the
    # quadrature error of its slice puts four points below the slack.  F is
    # test_starcore's RATIONAL
    F = parse_function(
        "(1 + (0.3-1.1*i)*z1^2*z2 - 0.7*z1*z2 + 2*z2^3) / (1 + (1.2+0.4*i)*z1 - 0.5*z1^2*z2^2)", 2
    )
    r_values = np.linspace(0.5, 2.0, 6)
    theta_values = np.linspace(0.3, math.pi - 0.3, 6)
    violations = subharmonicity_report(F, r_values, theta_values, sample_directions(2, 1, seed=0), M=16)
    assert [(v.i, v.j, v.r, v.stderr, v.threshold) for v in violations] == [
        (4, j, 1.7, 0.0, -QUAD_SLACK) for j in (1, 2, 3, 4)
    ]
    assert violations[0].theta == pytest.approx(0.808, abs=5e-4)
    assert violations[0].mean_diff == pytest.approx(-9.57e-4, abs=5e-7)


def test_subharmonicity_input_validation():
    sample = sample_directions(2, 32, seed=4)
    with pytest.raises(ValueError):
        subharmonicity_stats(RATIO, (1.0, 2.0), GRID_TH, sample, M=64)
    with pytest.raises(ValueError):
        # disk of this radius pokes below the real axis near theta=0.05
        subharmonicity_stats(
            RATIO, (0.5, 1.0, 1.5), (0.01, 0.05, 0.1), sample, M=64, rho=0.2
        )
    with pytest.raises(ValueError):
        subharmonicity_stats(RATIO, GRID_R, GRID_TH, sample, M=64, circle_nodes=2)


def test_subharmonicity_checks_the_grid_before_the_ensemble_is_built(monkeypatch):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("ensemble built before the grid was checked")

    # substitution is the first step of a slice-batch build; a fresh sample
    # per call has no kept batch that could hide a build
    monkeypatch.setattr("starfn.sphere.slice_coefficients", no_ensemble)
    cases = [
        ((1.0, 2.0), (0.5, 1.0), {}, "3x3"),
        ((-1.0, 0.5, 2.0), GRID_TH, {}, "radii must be positive"),
        (GRID_R, GRID_TH, {"rho": -0.1}, "rho must be positive"),
        ((0.5, 1.0, 1.5), (0.01, 0.05, 0.1), {"rho": 0.2}, "upper half-plane"),
    ]
    for r_values, theta_values, kwargs, message in cases:
        for check in (subharmonicity_stats, subharmonicity_report):
            sample = sample_directions(2, 8, seed=2)
            with pytest.raises(ValueError, match=message):
                check(RATIO, r_values, theta_values, sample, M=64, **kwargs)


def test_stencil_rejects_unsorted_axes_before_deriving_rho():
    sample = sample_directions(2, 8, seed=2)
    descending = tuple(reversed(GRID_R))
    for rho in (None, 0.05):
        with pytest.raises(ValueError, match="grid axes must be sorted ascending"):
            check_stencil(descending, GRID_TH, rho, 8)
        with pytest.raises(ValueError, match="grid axes must be sorted ascending"):
            subharmonicity_stats(RATIO, GRID_R, GRID_TH[::-1], sample, M=64, rho=rho)


CRITERION_6_R = np.linspace(0.5, 2.0, 10)
CRITERION_6_TH = np.linspace(0.15, math.pi - 0.15, 10)


def test_stencil_evaluates_each_distinct_radius_once(monkeypatch):
    # 8 interior rows, each with the radii of nodes 0, 1 = 7, 2 = 6, 3 = 5
    # and 4 plus the centre: mirrored nodes share their radius bit for bit
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return star_rows(*args, **kwargs)

    monkeypatch.setattr("starfn.sphere.star_rows", counted)
    sample = sample_directions(2, 50, seed=600)
    subharmonicity_stats(RATIO, CRITERION_6_R, CRITERION_6_TH, sample, M=64, circle_nodes=8)
    assert len(calls) == 48
    assert len(set(calls)) == 48


def test_subharmonicity_stats_adds_each_cell_in_the_order_of_a_plain_loop():
    # the stencil's values added one at a time, per ring (distinct node
    # radius, in order of first use) and within a ring in node order, each
    # T* from its own one-theta call.  On this grid node 4 of one row shares
    # its radius with node 0 of the row before, so rings mix rows
    r_values = tuple(np.linspace(0.6, 1.6, 5))
    theta_values = tuple(np.linspace(0.4, math.pi - 0.4, 5))
    F, M, C = parse_function("(1 - z1 + 0.5*z2^2) / (1 - 0.7*z2)", 2), 256, 8
    sample = sample_directions(2, 200, seed=5)
    batch = sample.slices(F)
    rho = check_stencil(r_values, theta_values, None, C)
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
    assert len(rings) == 14
    acc = np.zeros((3, 3, batch.kept))
    for radius, entries in rings.items():
        for theta, ii, jj in entries:
            acc[ii, jj] += batch.star_totals(radius, [theta], M)[0]
    for ii, r in enumerate(r_values[1:-1]):
        acc[ii] = acc[ii] / C - batch.star_totals(r, theta_values[1:-1], M)
    stats = subharmonicity_stats(F, r_values, theta_values, sample, M=M, circle_nodes=C)
    assert len(stats) == 9
    for st in stats:
        diff = acc[st.i - 1, st.j - 1]
        assert st.mean_diff == float(diff.mean())
        assert st.stderr == float(diff.std(ddof=1) / math.sqrt(batch.kept))


@pytest.mark.parametrize("extra", [-3, -1, 1, 3])
def test_mean_value_differences_refuses_totals_with_too_few_or_too_many_values(extra):
    # 3 values a grid row on the 5x5 grid: +-3 is a whole block, +-1 is not
    def totals(rings):
        return [np.zeros((sum(len(thetas) for _, thetas in rings) + extra, 2))]

    with pytest.raises(ValueError):
        mean_value_differences(GRID_R, GRID_TH, None, 8, totals)


# five (F, sample) calls of different kinds, each giving comparable values
PAIR_CALLS = (
    lambda F, sample: star_several(F, 2.0, 1.0, sample, M=64),
    lambda F, sample: counting_several(F, 2.0, math.inf, sample),
    lambda F, sample: lelong_number(F, 1.5, 0, sample),
    lambda F, sample: star_grid(F, (1.0, 2.0), (0.5, 2.5), sample, M=64).cells,
    lambda F, sample: subharmonicity_stats(F, GRID_R, GRID_TH, sample, M=64),
)


def _count_root_calls(monkeypatch) -> list[int]:
    calls = []

    def counted(coef):
        calls.append(coef.shape[0])
        return batched_roots(coef)

    monkeypatch.setattr("starfn.sphere.batched_roots", counted)
    return calls


def test_one_slice_batch_serves_every_call_on_a_pair(monkeypatch):
    calls = _count_root_calls(monkeypatch)
    sample = sample_directions(2, 300, seed=41)
    shared = [call(RATIO, sample) for call in PAIR_CALLS]
    assert len(calls) == 2  # the roots of g and of h, once
    assert sample.slices(RATIO) is sample.slices(RATIO)

    fresh = [call(RATIO, sample_directions(2, 300, seed=41)) for call in PAIR_CALLS]
    assert len(calls) == 12
    assert shared == fresh  # bit-identical to samples that kept nothing


def test_a_sample_keeps_the_batch_of_the_last_function_only(monkeypatch):
    calls = _count_root_calls(monkeypatch)
    sample = sample_directions(2, 100, seed=42)
    first = counting_several(RATIO, 2.0, math.inf, sample)
    counting_several(ONE_PLUS_Z1, 2.0, 0, sample)
    assert len(calls) == 4
    assert counting_several(RATIO, 2.0, math.inf, sample) == first
    assert len(calls) == 6  # RATIO was rebuilt
    counting_several(RATIO, 1.0, 0, sample)
    assert len(calls) == 6


def test_failures_are_raised_on_every_call_and_never_kept(monkeypatch):
    calls = _count_root_calls(monkeypatch)
    shared_root = parse_function("(1 - z1) / (1 - z1)", 2)
    sample = sample_directions(2, 8, seed=2)
    counting_several(RATIO, 2.0, math.inf, sample)
    for expected in (4, 6):
        with pytest.raises(AllDirectionsSkippedError):
            counting_several(shared_root, 2.0, math.inf, sample)
        assert len(calls) == expected
    three = parse_function("1 + z3", 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="sample dimension does not match F"):
            lelong_number(three, 1.0, 0, sample)
    assert len(calls) == 6
    counting_several(RATIO, 2.0, math.inf, sample)
    assert len(calls) == 8  # the failed build dropped the kept batch


def test_slice_batch_arrays_are_read_only():
    batch = sample_directions(2, 20, seed=43).slices(RATIO)
    assert isinstance(batch, SliceBatch)
    assert (batch.total, batch.kept, batch.skipped) == (20, 20, 0)
    for array in (batch.g_coef, batch.h_coef, batch.g_logroots, batch.h_logroots):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    # the log-moduli are root-major: one column per kept row, C-contiguous
    cubic = parse_function("(1 + z1^2 - 0.5*z2) / (1 - z1*z2 + 0.3*z2^3)", 2)
    wider = sample_directions(2, 20, seed=43).slices(cubic)
    assert (wider.g_logroots.shape, wider.h_logroots.shape) == ((2, 20), (3, 20))
    for b in (batch, wider):
        for coef, logroots in ((b.g_coef, b.g_logroots), (b.h_coef, b.h_logroots)):
            assert logroots.shape == (coef.shape[1] - 1, b.kept)
            assert logroots.flags.c_contiguous


def test_thread_env_does_not_change_results(monkeypatch):
    sample = sample_directions(2, 3000, seed=123)
    radii = (1.0, 2.0)
    thetas = (0.5, 1.5, 2.5)

    def snapshot():
        grid = star_grid(RATIO, radii, thetas, sample, M=2048)
        return [(c.mean, c.stderr, c.count_used) for row in grid.cells for c in row]

    monkeypatch.setenv("STARFN_THREADS", "1")
    sequential = snapshot()
    monkeypatch.setenv("STARFN_THREADS", "4")
    threaded = snapshot()
    monkeypatch.delenv("STARFN_THREADS")  # the default: every CPU the process may use
    default = snapshot()
    assert sequential == threaded == default  # bit-identical, not just close
