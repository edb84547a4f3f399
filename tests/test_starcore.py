import math

import numpy as np
import pytest

from starfn.funcdef import MeroFunction, MultiPoly, parse_function
from starfn.slicing import Direction, counting_big_N, slice_divisor
from starfn.sphere import sample_directions
from starfn.starcore import (
    LOG_CEILING,
    LOG_FLOOR,
    CircleSamples,
    RearrangedProfile,
    StarValue,
    circle_log_samples,
    level_threshold,
    slice_star_total,
    star_rearranged,
    star_thresholded,
)

CATALAN = 0.915965594177219015


def make_samples(values, r=1.0, direction=None):
    values = np.asarray(values, dtype=float)
    if direction is None:
        direction = Direction((1.0, 0.0))
    return CircleSamples(r=r, direction=direction, M=values.size, values=values, clipped=0)


def test_constant_function_samples():
    s = circle_log_samples(MeroFunction.one(2), Direction((1.0, 0.0)), 2.0, 64)
    assert np.all(s.values == 0.0)
    assert s.clipped == 0
    assert star_rearranged(s, 1.0) == 0.0
    t = level_threshold(s, 1.0)
    assert t == 0.0 and t.degenerate
    assert star_thresholded(s, 1.0) == 0.0


def test_samples_closed_form_cardioid():
    # |1 + e^{ix}| = 2|cos(x/2)|
    f = parse_function("1 + z1", 2)
    s = circle_log_samples(f, Direction((1.0, 0.0)), 1.0, 256)
    x = -math.pi + (np.arange(256) + 0.5) * (2 * math.pi / 256)
    expect = np.log(2 * np.abs(np.cos(x / 2)))
    assert np.allclose(s.values, expect, atol=1e-12)


def test_samples_ratio_closed_form():
    f = parse_function("(z1-1)/(z2-1)", 2)
    s = circle_log_samples(f, Direction((0.8, 0.6)), 2.0, 128)
    x = -math.pi + (np.arange(128) + 0.5) * (2 * math.pi / 128)
    w = 2.0 * np.exp(1j * x)
    expect = np.log(np.abs(1 - 0.8 * w)) - np.log(np.abs(1 - 0.6 * w))
    assert np.allclose(s.values, expect, atol=1e-12)


def test_star_quarter_circle_catalan():
    # sup over |E| = pi selects |x| <= pi/2 for log(2cos(x/2)); the integral
    # (1/2pi) * int_{-pi/2}^{pi/2} log(2 cos(x/2)) dx equals Catalan/pi
    f = parse_function("1 + z1", 2)
    s = circle_log_samples(f, Direction((1.0, 0.0)), 1.0, 16384)
    got = star_rearranged(s, math.pi / 2)
    assert got == pytest.approx(CATALAN / math.pi, abs=1e-5)
    # dense-grid rearrangement oracle, computed independently
    xd = -math.pi + (np.arange(1 << 18) + 0.5) * (2 * math.pi / (1 << 18))
    vals = np.sort(np.log(2 * np.abs(np.cos(xd / 2))))[::-1]
    oracle = vals[: (1 << 17)].sum() / (1 << 18)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_level_threshold_quarter():
    f = parse_function("1 + z1", 2)
    s = circle_log_samples(f, Direction((1.0, 0.0)), 1.0, 4096)
    t = level_threshold(s, math.pi / 2)
    assert not t.degenerate
    assert float(t) == pytest.approx(math.log(math.sqrt(2)), abs=1e-3)


def test_threshold_tends_to_min():
    f = parse_function("(z1-1)/(z2-1)", 2)
    s = circle_log_samples(f, Direction((0.8, 0.6)), 2.0, 512)
    t = level_threshold(s, math.pi - 1e-9)
    assert float(t) == pytest.approx(float(s.values.min()), abs=1e-12)


def test_methods_agree_on_ties():
    vals = np.repeat([2.0, 1.0, 1.0, 0.5, 0.5, 0.5, -1.0, -1.0], 8)
    s = make_samples(vals)
    scale = 1 + np.abs(vals).max()
    for theta in np.linspace(1e-6, math.pi - 1e-6, 97):
        a = star_rearranged(s, theta)
        b = star_thresholded(s, theta)
        assert abs(a - b) <= 1e-10 * scale


def test_methods_agree_random_function():
    f = parse_function("(1 + z1 - 0.4*z2 + 0.2*z1^2*z2)/(1 - 0.3*z1*z2)", 2)
    rng = np.random.default_rng(23)
    zeta = Direction.of(rng.normal(size=2) + 1j * rng.normal(size=2))
    s = circle_log_samples(f, zeta, 1.7, 2048)
    scale = 1 + np.abs(s.values).max()
    for theta in rng.uniform(1e-3, math.pi - 1e-3, size=50):
        assert abs(star_rearranged(s, theta) - star_thresholded(s, theta)) <= 1e-10 * scale


def test_manual_bathtub_small_case():
    vals = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0, 9.0, 7.0, 9.0, 3.0])
    s = make_samples(vals)
    theta = 0.3
    share = theta * 16 / math.pi  # ~1.527 samples' worth of measure
    srt = np.sort(vals)[::-1]
    k = int(share)
    expect = (srt[:k].sum() + (share - k) * srt[k]) / 16
    assert star_rearranged(s, theta) == pytest.approx(expect, rel=1e-15)


def test_boundary_theta_zero_and_pi():
    f = parse_function("(z1-1)/(z2-1)", 2)
    zeta = Direction((0.8, 0.6))
    s = circle_log_samples(f, zeta, 2.0, 8192)
    assert star_rearranged(s, 0.0) == 0.0
    assert star_rearranged(s, math.pi) == pytest.approx(float(s.values.mean()), rel=1e-13)

    sv = slice_star_total(f, zeta, 2.0, 0.0, M=8192)
    assert sv.fstar == 0.0
    assert sv.total == counting_big_N(f, zeta, 2.0, math.inf)

    sv_pi = slice_star_total(f, zeta, 2.0, math.pi, M=8192)
    assert abs(sv_pi.total - counting_big_N(f, zeta, 2.0, 0)) <= 1e-6


def test_concavity_at_breakpoints():
    f = parse_function("(1 + 0.7*z1 + 0.3*z2^2)/(1 - 0.25*z1*z2)", 2)
    s = circle_log_samples(f, Direction.of((1, 2j)), 1.3, 1024)
    M = s.M
    theta = np.arange(M + 1) * math.pi / M
    vals = np.array([star_rearranged(s, float(t)) for t in theta])
    second = np.diff(vals, 2)
    scale = max(1.0, float(np.abs(s.values).max()))
    assert second.max() <= 1e-12 * scale


def test_monotone_in_samples():
    rng = np.random.default_rng(31)
    base = rng.normal(size=128)
    bigger = base + np.abs(rng.normal(size=128))
    s_small = make_samples(base)
    s_big = make_samples(bigger)
    for theta in np.linspace(0, math.pi, 29):
        assert star_rearranged(s_big, theta) >= star_rearranged(s_small, theta) - 1e-14


def test_refinement_stability():
    f = parse_function("(z1-1)/(z2-1)", 2)
    zeta = Direction((0.8, 0.6))
    for theta in (0.4, 1.2, 2.8):
        v1 = star_rearranged(circle_log_samples(f, zeta, 2.0, 2048), theta)
        v2 = star_rearranged(circle_log_samples(f, zeta, 2.0, 4096), theta)
        assert abs(v2 - v1) <= 5.0 / 2048


def test_exact_pole_or_zero_at_node_clamps():
    # A node landing exactly on a pole gives +inf (log|h| = -inf), on a zero
    # gives -inf, and on a cancelled common root gives NaN; the sanitize step
    # must clamp/zero these and count the clips, never abort.
    from starfn.starcore import sanitize_log_values

    raw = np.array([0.3, np.inf, -1.2, -np.inf, np.nan, 0.0])
    vals, clipped = sanitize_log_values(raw)
    assert clipped == 2
    assert vals[1] == LOG_CEILING and vals[3] == LOG_FLOOR
    assert vals[4] == 0.0
    assert np.all(np.isfinite(vals))


def test_near_pole_node_stays_finite():
    # generic case: a pole close to (but, in floats, never exactly on) a
    # node produces a large finite sample and no clipping
    from starfn.slicing import midpoint_angles

    M = 64
    nodes = 2.0 * np.exp(1j * midpoint_angles(M))
    w0 = complex(nodes[5])
    H = MultiPoly(1, {(0,): 1.0, (1,): -1.0 / w0})
    F = MeroFunction.from_polys(MultiPoly.constant(1, 1.0), H)
    s = circle_log_samples(F, Direction((1.0,)), 2.0, M)
    assert np.all(np.isfinite(s.values))
    assert s.values.max() > 10.0  # the near-hit node dominates
    assert np.all(s.values <= LOG_CEILING) and np.all(s.values >= LOG_FLOOR)


def test_degenerate_direction_gives_zero_star():
    f = parse_function("(z1-1)/(z2-1)", 2)
    zeta0 = Direction((1 / math.sqrt(2), 1 / math.sqrt(2)))
    s = circle_log_samples(f, zeta0, 2.0, 512)
    assert np.all(s.values == 0.0)
    sv = slice_star_total(f, zeta0, 2.0, math.pi / 2, M=512)
    assert sv.total == 0.0


def test_cancelled_slice_samples_match_the_reduced_function():
    # g and h share the double root 1/zeta_1 of (1 - z zeta_1)^2; it cancels
    # in log|g| - log|h| up to rounding, as in the divisor
    F = parse_function("(1-z1)^2*(1+z2) / ((1-z1)^2*(1-z2))", 2)
    reduced = parse_function("(1+z2) / (1-z2)", 2)
    inexact = 0
    for row in sample_directions(2, 200, seed=3).directions:
        zeta = Direction(tuple(row))
        inexact += any(zg != zh for zg, zh, _ in slice_divisor(F, zeta).cancelled)
        for r in (0.5, 1.0, 2.0):
            got = circle_log_samples(F, zeta, r, 1024).values
            want = circle_log_samples(reduced, zeta, r, 1024).values
            assert np.abs(got - want).max() <= 1e-9
            for theta in (math.pi / 3, math.pi):
                got = slice_star_total(F, zeta, r, theta, M=1024)
                want = slice_star_total(reduced, zeta, r, theta, M=1024)
                assert abs(got.total - want.total) <= 1e-12
    assert inexact > 100


def test_fstar_continuity_toward_degenerate_direction():
    # Observed-limit check along zeta_k -> zeta_0 = (1,1)/sqrt(2): the
    # integral part F* tends to the F* value at zeta_0 (which is 0, the
    # slice being constant), while N(2,inf) jumps: log(2 s_k) vs 0.
    f = parse_function("(z1-1)/(z2-1)", 2)
    theta = math.pi / 2
    gaps = []
    for s_k in (0.69, 0.7, 0.705, 0.7071):
        r_k = math.sqrt(1 - s_k * s_k)
        zeta = Direction((r_k, s_k))
        sv = slice_star_total(f, zeta, 2.0, theta, M=8192)
        assert sv.big_N_inf == pytest.approx(math.log(2 * s_k), abs=1e-9)
        gaps.append(sv.fstar)  # F* at zeta_0 is exactly 0
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-3  # recorded observed limit: 0


def test_star_value_invariants():
    with pytest.raises(ValueError):
        StarValue(r=1.0, theta=4.0, fstar=0.0, big_N_inf=0.0, total=0.0)
    with pytest.raises(ValueError):
        StarValue(r=1.0, theta=1.0, fstar=0.5, big_N_inf=0.25, total=0.7)


def test_profile_invariants():
    s = make_samples(np.sin(np.linspace(0, 7, 128)))
    prof = s.profile
    assert np.all(np.diff(prof.sorted_values) <= 0)
    assert np.allclose(np.diff(prof.prefix_sums), prof.sorted_values, atol=1e-12)
    with pytest.raises(ValueError):
        RearrangedProfile(np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0]))


def test_samples_validation():
    with pytest.raises(ValueError):
        make_samples(np.zeros(8))  # M < 16
    with pytest.raises(ValueError):
        CircleSamples(r=1.0, direction=Direction((1.0,)), M=16, values=np.zeros(15), clipped=0)
    with pytest.raises(ValueError):
        star_rearranged(make_samples(np.zeros(16)), -0.1)
