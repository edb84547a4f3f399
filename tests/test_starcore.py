import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from starfn import starcore
from starfn.funcdef import MeroFunction, MultiPoly, parse_function
from starfn.slicing import (
    Direction,
    batched_roots,
    big_N_rows,
    circle_log_values,
    counting_big_N,
    log_moduli,
    make_slice,
    midpoint_angles,
    slice_coefficients,
    slice_divisor,
    unit_nodes,
)
from starfn.sphere import sample_directions
from starfn.starcore import (
    _circle_abs2,
    _top_means,
    BLOCK_CELLS,
    LOG_CEILING,
    LOG_FLOOR,
    CircleSamples,
    RearrangedProfile,
    StarValue,
    circle_log_samples,
    level_threshold,
    sanitize_log_values,
    slice_star_total,
    star_rearranged,
    star_rings,
    star_rows,
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
    for theta in (0.0, math.pi):
        with pytest.raises(ValueError, match=r"theta must lie in \(0, pi\)"):
            level_threshold(s, theta)


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
    for k in (0, 1, 37, 128):
        assert abs(prof.fstar(k * math.pi / 128) - prof.sorted_values[:k].sum() / 128) <= 1e-12
    with pytest.raises(ValueError):
        RearrangedProfile(np.array([0.0, 1.0]))


def test_samples_validation():
    with pytest.raises(ValueError):
        make_samples(np.zeros(8))  # M < 16
    with pytest.raises(ValueError):
        CircleSamples(r=1.0, direction=Direction((1.0,)), M=16, values=np.zeros(15), clipped=0)
    with pytest.raises(ValueError):
        star_rearranged(make_samples(np.zeros(16)), -0.1)



def test_samples_and_profiles_reject_nan_and_a_negative_clip_count():
    # NaN fails no comparison, so each check must let it fail on its own
    for bad in (math.nan, LOG_FLOOR - 1.0, LOG_CEILING * 2, math.inf):
        values = np.zeros(16)
        values[5] = bad
        with pytest.raises(ValueError, match="finite and inside the clamp bounds"):
            make_samples(values)
    with pytest.raises(ValueError, match="clipped must be >= 0"):
        CircleSamples(r=1.0, direction=Direction((1.0,)), M=16, values=np.zeros(16), clipped=-3)
    for profile in ([3.0, math.nan, 1.0], [math.nan], [math.nan, 2.0], [2.0, math.nan]):
        with pytest.raises(ValueError, match="nonincreasing and hold no NaN"):
            RearrangedProfile(np.array(profile))
    edges = make_samples(np.array([LOG_CEILING] + [0.0] * 14 + [LOG_FLOOR]))
    assert edges.profile.sorted_values[0] == LOG_CEILING


# ---------------------------------------------------------------------------
# the T* kernel star_rows: circle values from |g|^2 and |h|^2, Horner's rule
# for the rows the gate sends back

RATIONAL = parse_function(
    "(1 + (0.3-1.1*i)*z1^2*z2 - 0.7*z1*z2 + 2*z2^3) / (1 + (1.2+0.4*i)*z1 - 0.5*z1^2*z2^2)", 2
)
EQUAL_DEGREES = parse_function("(1 + (0.4+0.9*i)*z1*z2 - 1.3*z2^2) / (1 - 0.8*z1 + (0.2-0.6*i)*z1^2)", 2)
POLYNOMIAL = parse_function("1 + z1 + 2*z2 + 0.25*z1^2 + z1*z2 + z2^2", 2)


def _slice_rows(F, dirs):
    """Coefficient rows of g and h, and the pole log-moduli root-major."""
    g = slice_coefficients(F.numerator, dirs)
    h = slice_coefficients(F.denominator, dirs)
    return g, h, log_moduli(batched_roots(h))


def _horner_star_rows(g, h, poles, r, thetas, M):
    """The reference T* kernel: every circle value by Horner's rule."""
    vals, _ = sanitize_log_values(circle_log_values(g, h, r * unit_nodes(M)))
    return _top_means(np.sort(vals), thetas) + big_N_rows(poles, r)


def _zero_near_node(F, zeta, M, gap=1e-7):
    """zeta turned by a phase, and a radius r, that put a zero of the slice
    at r(1 + gap) in line with the first of the M nodes."""
    z0 = slice_divisor(F, zeta).zeros[0][0]
    phase = np.exp(1j * (np.angle(z0) - midpoint_angles(M)[0]))
    return Direction(tuple(c * phase for c in zeta.components)), abs(z0) / (1 + gap)


def _trig_rows_ok(g, h, r, M):
    return bool(_circle_abs2(g, r, M)[1][0] and _circle_abs2(h, r, M)[1][0])


def _batches_with_a_gated_row(M, rows, edge):
    """Slice rows of the three F shapes on `rows` directions, with direction
    `edge` turned to put a zero 1e-7 outside the circle next to a node, so
    that the gate sends that row to Horner's rule; and the radius."""
    dirs = sample_directions(2, rows, seed=5).directions.copy()
    turned, r = _zero_near_node(RATIONAL, Direction(tuple(dirs[edge])), M)
    dirs[edge] = turned.components
    # numerator and denominator of unequal degrees, of equal degrees, and
    # a constant denominator
    batches = [_slice_rows(F, dirs) for F in (RATIONAL, EQUAL_DEGREES, POLYNOMIAL)]
    assert [(g.shape[1], h.shape[1]) for g, h, _ in batches] == [(4, 5), (3, 3), (3, 1)]
    g, h, _ = batches[0]
    assert _trig_rows_ok(g[7:8], h[7:8], r, M)
    assert not _trig_rows_ok(g[edge : edge + 1], h[edge : edge + 1], r, M)
    return batches, r


def _star_rows_at(monkeypatch, threads, batches, r, thetas, M):
    if threads is None:
        monkeypatch.delenv("STARFN_THREADS", raising=False)
    else:
        monkeypatch.setenv("STARFN_THREADS", threads)
    return [star_rows(g, h, poles, r, thetas, M) for g, h, poles in batches]


def test_a_row_of_star_rows_does_not_depend_on_its_batch_or_threads(monkeypatch):
    # the rows span five blocks (BLOCK_CELLS // M rows each), a count that 3
    # threads cannot share evenly, and row `edge`, which the gate sends to
    # Horner's rule, ends the third block.  M=192 with 16 thetas is the
    # criterion-6 stencil's shape
    for M, thetas in (
        (192, list(np.linspace(0.1, 3.0, 16))),
        (512, [0.4, math.pi / 2, 2.9]),
        (4096, [0.4, math.pi / 2, 2.9]),
    ):
        chunk = BLOCK_CELLS // M
        rows = 4 * chunk + chunk // 4
        blocks, edge = -(-rows // chunk), 3 * chunk - 1
        assert blocks > 3 and blocks % 3
        batches, r = _batches_with_a_gated_row(M, rows, edge)
        results = {
            threads: _star_rows_at(monkeypatch, threads, batches, r, thetas, M)
            for threads in ("1", "2", "3", None)
        }
        for threads in ("2", "3", None):
            for serial, threaded in zip(results["1"], results[threads]):
                assert np.array_equal(serial, threaded)
        picked = [(7, edge, edge + 1), (rows // 2,), (rows - 1,)]
        for (g, h, poles), batch, rows_picked in zip(batches, results["1"], picked):
            for i in rows_picked:
                one = star_rows(g[i : i + 1], h[i : i + 1], poles[:, i : i + 1], r, thetas, M)
                assert np.array_equal(one[:, 0], batch[:, i])


def test_star_rows_does_not_depend_on_the_block_size(monkeypatch):
    # from 7-row blocks at M=192 (one row at larger M) to one block for the
    # whole call, serial and on 2 threads
    for M, rows, thetas in (
        (192, 1100, list(np.linspace(0.1, 3.0, 16))),
        (1024, 150, [0.4, math.pi / 2, 2.9]),
        (4096, 150, [0.4, math.pi / 2, 2.9]),
    ):
        batches, r = _batches_with_a_gated_row(M, rows, 100)
        results = []
        for cells in (7 * 192, 256 * 192, 512 * 192, 1 << 20):
            monkeypatch.setattr(starcore, "BLOCK_CELLS", cells)
            for threads in ("1", "2"):
                results.append(_star_rows_at(monkeypatch, threads, batches, r, thetas, M))
        for result in results[1:]:
            for want, got in zip(results[0], result):
                assert np.array_equal(want, got)


def test_star_rows_starts_no_more_threads_than_blocks(monkeypatch):
    # rows at M=192 that make two blocks, a full one and one of 44 rows
    workers = []

    class Recording(starcore.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(starcore, "ThreadPoolExecutor", Recording)
    monkeypatch.setenv("STARFN_THREADS", "64")
    rows = BLOCK_CELLS // 192 + 44
    g, h, poles = _slice_rows(RATIONAL, sample_directions(2, rows, seed=6).directions)
    assert -(-rows // (BLOCK_CELLS // 192)) == 2
    threaded = star_rows(g, h, poles, 1.2, [0.5, 2.0], 192)
    assert workers == [2]
    monkeypatch.setenv("STARFN_THREADS", "1")
    assert np.array_equal(threaded, star_rows(g, h, poles, 1.2, [0.5, 2.0], 192))
    assert workers == [2]


def test_star_rows_claims_each_block_once_with_more_threads_than_cores(monkeypatch):
    # 40 blocks at M=4096; 8 threads and a 1 us switch interval make the
    # threads race for the next block as often as they can
    rows = 40 * (BLOCK_CELLS // 4096)
    g, h, poles = _slice_rows(RATIONAL, sample_directions(2, rows, seed=7).directions)
    thetas = [0.4, 2.9]
    monkeypatch.setenv("STARFN_THREADS", "1")
    serial = star_rows(g, h, poles, 1.2, thetas, 4096)
    claimed, top_means = [], starcore._top_means

    def recording(asc, ths):
        claimed.append(asc.shape[0])
        return top_means(asc, ths)

    monkeypatch.setattr(starcore, "_top_means", recording)
    monkeypatch.setenv("STARFN_THREADS", "8")
    result = []
    runner = threading.Thread(target=lambda: result.append(star_rows(g, h, poles, 1.2, thetas, 4096)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(claimed) == 40 and sum(claimed) == rows
    assert np.array_equal(result[0], serial)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_star_rows_rejects_a_bad_thread_count(monkeypatch, value):
    monkeypatch.setenv("STARFN_THREADS", value)
    g, h, poles = _slice_rows(RATIONAL, sample_directions(2, 4, seed=6).directions)
    with pytest.raises(ValueError, match="STARFN_THREADS"):
        star_rows(g, h, poles, 1.2, [0.5], 192)


def test_star_rings_gives_each_value_the_bits_of_its_ring_alone(monkeypatch):
    # 30 rings make two blocks at M=4096 (24 rows each) and one below.  The
    # thetas hold both ends (k = 0 and k = M), pi/2 (frac = 0 at every M
    # here), a repeated theta and ranks shared between rings; ring 5's radius
    # puts a zero 1e-7 outside the circle next to a node and ring 27's puts
    # it 1e-7 inside, so the gate sends both, each at its own radius, to
    # Horner's rule (in one block at M=256, in two at M=4096); ring 9
    # repeats ring 3's radius.  The slices have unequal degrees, a constant
    # h and a constant g
    zeta = Direction.of((0.6 + 0.2j, -0.5 + 0.6j))
    reciprocal = MeroFunction(POLYNOMIAL.denominator, POLYNOMIAL.numerator, 2)
    for M in (256, 4096):
        turned, r_gated = _zero_near_node(RATIONAL, zeta, M)
        inside, r_inside = _zero_near_node(RATIONAL, zeta, M, gap=-1e-7)
        assert inside == turned and r_inside != r_gated
        radii = list(np.linspace(0.5, 2.0, 30))
        radii[5], radii[9], radii[27] = r_gated, radii[3], r_inside
        base = [0.0, 0.4, math.pi / 2, 2.9, math.pi]
        rings = [(r, base[i % 5 :] + base[: i % 3] + [1.1, 1.1]) for i, r in enumerate(radii)]
        for F in (RATIONAL, POLYNOMIAL, reciprocal):
            poles, s = slice_divisor(F, turned).logroots(math.inf), make_slice(F, turned)
            g, h = s.g, s.h
            if F is RATIONAL:
                assert not _trig_rows_ok(g, h, r_gated, M) and not _trig_rows_ok(g, h, r_inside, M)
                assert _trig_rows_ok(g, h, radii[0], M)
            want = np.concatenate([star_rows(g, h, poles, r, thetas, M)[:, 0] for r, thetas in rings])
            for threads in ("1", "2"):
                monkeypatch.setenv("STARFN_THREADS", threads)
                assert star_rings(g, h, poles, rings, M).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="outside"):
            star_rings(g, h, poles, [(1.0, [0.5, math.pi + 1e-9])], M)


@pytest.mark.parametrize("F", [RATIONAL, EQUAL_DEGREES], ids=["unequal", "equal"])
def test_star_rows_agrees_with_the_horner_path(F):
    # every fourth direction is turned to put a zero of its slice 1e-7
    # outside the circle, next to a node: those rows take Horner's rule and
    # must give its bits.  The gate lets a sample of the others be off by
    # up to about (2d+1) eps / TRIG_GATE (1e-9 to 2e-9 here); the 1e-12 tolerance
    # is what these directions, measured, stay within
    M, thetas = 1024, [0.3, math.pi / 2, 2.8]
    for i, row in enumerate(sample_directions(2, 64, seed=8).directions):
        zeta, r = Direction(tuple(row)), 1.3
        if i % 4 == 0:
            zeta, r = _zero_near_node(F, zeta, M)
        div, s = slice_divisor(F, zeta), make_slice(F, zeta)
        g, h = s.g, s.h
        exact = not _trig_rows_ok(g, h, r, M)
        assert exact or i % 4
        got = star_rows(g, h, div.logroots(math.inf), r, thetas, M)[:, 0]
        for theta, value in zip(thetas, got):
            want = slice_star_total(F, zeta, r, theta, M).total
            if exact:
                assert value == want
            else:
                assert abs(value - want) <= 1e-12 * (1 + abs(want))


def test_star_rows_clamps_an_exact_zero_and_zeroes_a_common_one():
    # (w - z) vanishes exactly at the node w; over h = 1 + 0.3z the node
    # gives log 0 = -inf, clamped to LOG_FLOOR, and over h = w - z it gives
    # the NaN of a common factor, set to 0: the Horner values, bit for bit
    M, r, thetas = 256, 1.0, [0.2, math.pi / 2, math.pi]
    w = unit_nodes(M)[5]
    g = np.array([[w, -1.0]])
    for h, bad in ((np.array([[1.0, 0.3]]), np.isneginf), (g, np.isnan)):
        raw = circle_log_values(g, h, r * unit_nodes(M))
        assert np.count_nonzero(bad(raw)) == 1
        assert not _trig_rows_ok(g, h, r, M)
        poles = log_moduli(batched_roots(h))
        got = star_rows(g, h, poles, r, thetas, M)
        assert np.array_equal(got, _horner_star_rows(g, h, poles, r, thetas, M))
    floor = star_rows(g, np.array([[1.0, 0.3]]), np.full((1, 1), np.inf), r, [math.pi], M)
    assert abs(floor[0, 0] - LOG_FLOOR / M) < 1.0  # the mean of the samples holds LOG_FLOOR / M


def test_star_rows_memory_does_not_grow_with_the_block_at_large_M(monkeypatch):
    # a block holds about BLOCK_CELLS samples, 12 rows at M=8192, so the
    # temporaries of 2000 rows on one thread stay far below one 256-row
    # block (17 MB); each thread holds the temporaries of its own block
    M, thetas = 8192, [0.4, math.pi / 2, 2.9]
    g, h, poles = _slice_rows(RATIONAL, sample_directions(2, 2000, seed=6).directions)
    star_rows(g[:1], h[:1], poles[:, :1], 1.3, thetas, M)  # fill the per-M caches
    peaks = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("STARFN_THREADS", threads)
        tracemalloc.start()
        try:
            star_rows(g, h, poles, 1.3, thetas, M)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["1"] < 4e6
    assert peaks["2"] <= 2 * peaks["1"]
