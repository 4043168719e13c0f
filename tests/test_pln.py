import math

import numpy as np
import pytest

from conftest import hausdorff
from stabgeo import bodies, pl1d, pln
from stabgeo.bodies import revolution_ball
from stabgeo.errors import EmptyFunctionError, NormalizationError
from stabgeo.pln import (
    LevelStack,
    axis_dilated_stack,
    containment_margin,
    gaussian_stack,
    minimal_midpoint_stack,
    pl_trace,
    random_log_concave_stack,
    section_profile,
    stack_from_level_sets,
    stack_integral,
)

_trapz = getattr(np, "trapezoid", None) or np.trapz

KAPPA_3 = 4.0 * math.pi / 3.0


def frustum_volume_3d(body):
    """Oracle: the solid of a piecewise-linear 3-D meridian is a stack of
    frusta, each of volume pi h (a^2 + a b + b^2) / 3."""
    h, a, b = np.diff(body.t), body.radius[:-1], body.radius[1:]
    return float(np.sum(math.pi * h * (a * a + a * b + b * b) / 3.0))


def ball_stack(levels_and_radii, dim=3, samples=257):
    lv = np.array([t for t, _ in levels_and_radii])
    bd = tuple(revolution_ball(dim, r, samples) for _, r in levels_and_radii)
    return LevelStack(dim, lv, bd)


# ---------------------------------------------------------------------------
# construction and integrals
# ---------------------------------------------------------------------------


def test_stack_validation():
    with pytest.raises(ValueError):  # not nested
        ball_stack([(2.0, 1.0), (1.0, 0.5)])
    with pytest.raises(ValueError):  # heights not decreasing
        ball_stack([(1.0, 0.5), (2.0, 1.0)])
    with pytest.raises(EmptyFunctionError):
        LevelStack(3, np.array([]), ())


def test_constructors_copy_the_callers_arrays():
    # each constructor stores a read-only array of its own: the caller's
    # array, or a view of it, stays writeable, and writing to it changes
    # nothing stored
    t = np.linspace(-1.0, 1.0, 9)
    r = 1.0 - 0.5 * t * t
    V = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [-0.5, -1.0]])
    x = np.linspace(-3.0, 3.0, 31)
    v = np.exp(-x * x)
    levels = np.array([1.0, 0.5])
    balls = (revolution_ball(3, 0.5, 17), revolution_ball(3, 1.0, 17))
    for args in ((t, r, V, x, v, levels), (t[:], r[:], V[:], x[:], v[:], levels[:])):
        before = [a.copy() for a in args]
        K = bodies.RevolutionBody(3, args[0], args[1])
        P = bodies.ConvexPolygon(args[2])
        f = pl1d.GridFn1D(args[3], args[4])
        S = LevelStack(3, args[5], balls)
        stored = (K.t, K.radius, P.vertices, f.grid, f.values, S.levels)
        for given, kept in zip(args, stored):
            assert given.flags.writeable and not kept.flags.writeable
            assert not np.may_share_memory(given, kept)
        for given in args:
            given *= 2.0
        for kept, old in zip(stored, before):
            assert np.array_equal(kept, old)
        for given, old in zip(args, before):
            given[...] = old


def test_constructors_keep_handed_over_arrays():
    # a read-only array that owns its data is stored as it is; a read-only
    # view of a writeable array is still copied
    t = np.linspace(-1.0, 1.0, 9)
    r = 1.0 - 0.5 * t * t
    t_frozen = bodies._handover(t.copy())
    assert bodies.RevolutionBody(3, t_frozen, r).t is t_frozen
    x = np.linspace(-3.0, 3.0, 31)
    x_frozen = bodies._handover(x.copy())
    assert pl1d.GridFn1D(x_frozen, np.exp(-x * x)).grid is x_frozen
    view = t.view()
    view.setflags(write=False)
    kept = bodies.RevolutionBody(3, view, r).t
    assert not np.may_share_memory(kept, t)
    # the package's own builders hand over what they make
    K = bodies.RevolutionBody(3, t, r)
    assert not bodies.scale(K, 2.0).t.flags.writeable
    assert t.flags.writeable


def test_stack_nesting_check_is_exact():
    # a level body poking 1e-4 out of the next one, at an angle midway
    # between two directions of a 64-direction support table, is not nested
    outer = revolution_ball(3, 1.0, 2049)
    inner = revolution_ball(3, 0.9, 2049)
    phi = 20.0 * math.pi / 64.0
    for reach, nested in ((1.0 + 1e-4, False), (1.0 - 1e-4, True)):
        t, r = bodies.upper_hull(np.append(inner.t, reach * math.cos(phi) * np.array([-1.0, 1.0])),
                                 np.append(inner.radius, [reach * math.sin(phi)] * 2))
        spiked = bodies.RevolutionBody(3, t, r)
        if nested:
            LevelStack(3, np.array([2.0, 1.0]), (spiked, outer))
        else:
            with pytest.raises(ValueError, match="not nested"):
                LevelStack(3, np.array([2.0, 1.0]), (spiked, outer))


def neighbour_midpoint_excess(st):
    """Log-concavity certificate of a stack on a geometric level grid: how
    far, relative to the largest meridian circumradius, the halved
    ``profile_sum`` of two neighbouring level bodies reaches outside the
    body between them.  Log-concave when at most 1e-6.  The level-volume
    profile itself need not be log-concave in t, so it cannot serve as the
    certificate."""
    ratios = st.levels[1:] / st.levels[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9, atol=0.0)
    R = max(float(np.max(np.hypot(b.t, b.radius))) for b in st.bodies)
    worst = -math.inf
    for lo, mid, hi in zip(st.bodies[:-2], st.bodies[1:-1], st.bodies[2:]):
        ts, rs = bodies.profile_sum(lo, hi)
        worst = max(worst, pln._excess(0.5 * ts, 0.5 * rs, mid) / R)
    return worst


def test_log_concave_stack_contains_neighbour_midpoints():
    # on the geometric grid 4, 2, 1 the middle body must contain the
    # midpoint of its neighbours, radius (0.2 + 1.0) / 2 = 0.6
    levels = np.array([4.0, 2.0, 1.0])
    for mid, ok in ((0.7, True), (0.5, False)):
        bd = tuple(revolution_ball(3, r, 129) for r in (0.2, mid, 1.0))
        assert (neighbour_midpoint_excess(LevelStack(3, levels, bd)) <= 1e-6) == ok


# the level counts, sample counts and floors of the benchmark's stacks
BUILDER_SIZES = ((8, 33, 1e-4), (12, 33, 1e-5), (16, 65, 1e-5), (24, 129, 1e-4),
                 (32, 129, 1e-5), (48, 257, 1e-5))


def test_log_concave_builders_contain_neighbour_midpoints():
    for dim in (2, 3, 4):
        for levels, samples, _ in BUILDER_SIZES[::2]:
            st = gaussian_stack(dim, level_count=levels, samples=samples)
            assert neighbour_midpoint_excess(st) <= 1e-6
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for levels, samples, floor in BUILDER_SIZES:
                st = random_log_concave_stack(dim, rng, levels, floor, samples)
                assert neighbour_midpoint_excess(st) <= 1e-6


def test_body_index_at_takes_arrays():
    st = ball_stack([(2.0, 0.5), (1.0, 1.0)])
    t = np.array([[3.0, 2.0, 2.0 * (1.0 + 1e-12)], [1.5, 1.0, 0.1]])
    assert st.body_index_at(t).tolist() == [[-1, 0, 0], [0, 1, 1]]
    assert [st.body_index_at(x) for x in t.ravel()] == [-1, 0, 0, 0, 1, 1]
    assert st.body_at(3.0) is None and st.body_at(0.1) is st.bodies[1]


def test_stack_integral_indicator():
    st = ball_stack([(1.0, 1.0)], samples=2049)
    assert stack_integral(st) == pytest.approx(frustum_volume_3d(st.bodies[0]), rel=1e-6)


def test_stack_integral_two_levels():
    # layer-cake sum: 1 * |B(0.5)| + 1 * |B(1)|, about 9 kappa / 8
    st = ball_stack([(2.0, 0.5), (1.0, 1.0)], samples=2049)
    exact = sum(frustum_volume_3d(b) for b in st.bodies)
    assert stack_integral(st) == pytest.approx(exact, rel=1e-6)


def test_stack_integral_gaussian():
    # exp(-|x|^2) on 64 log-spaced levels integrates to pi^(3/2) within 2%
    levels = np.geomspace(1.0 * (1e-6) ** (1.0 / 128.0), 1e-6, 64)

    def body_fn(s):
        return revolution_ball(3, math.sqrt(math.log(1.0 / s)), 257)

    st = stack_from_level_sets(3, body_fn, levels)
    assert stack_integral(st) == pytest.approx(math.pi ** 1.5, rel=0.02)
    # and the error shrinks when the level grid is refined
    levels2 = np.geomspace(1.0 * (1e-6) ** (1.0 / 512.0), 1e-6, 256)
    st2 = stack_from_level_sets(3, body_fn, levels2)
    err1 = abs(stack_integral(st) - math.pi ** 1.5)
    err2 = abs(stack_integral(st2) - math.pi ** 1.5)
    assert err2 < err1


# ---------------------------------------------------------------------------
# section profile
# ---------------------------------------------------------------------------


def test_section_profile_indicator():
    # indicator of the unit ball: F = |B| (about kappa_3) on (0, 1]
    st = ball_stack([(1.0, 1.0), (0.5, 1.0)], samples=2049)
    F = section_profile(st)
    assert F.domain == "half-line"
    assert np.allclose(F.values, frustum_volume_3d(st.bodies[0]), rtol=1e-6)


def test_section_profile_gaussian_closed_form():
    # exact level-set sampling: F(t) = |{f >= t}|, the volume of the
    # inscribed ball of radius (ln(1/t))^(1/2)
    levels = np.geomspace(0.9, 1e-5, 48)

    def body_fn(s):
        return revolution_ball(3, math.sqrt(math.log(1.0 / s)), 513)

    st = LevelStack(3, levels, tuple(body_fn(s) for s in levels))
    F = section_profile(st)
    expect = np.array([frustum_volume_3d(b) for b in st.bodies[::-1]])
    assert float(np.max(np.abs(F.values - expect) / expect)) <= 1e-5


def test_section_profile_decreasing():
    rng = np.random.default_rng(0)
    st = random_log_concave_stack(3, rng)
    F = section_profile(st)
    assert np.all(np.diff(F.values) <= 0)


def test_layer_cake_consistency():
    # the step sum and the trapezoid of the section profile agree to the
    # level-grid tolerance, and the gap shrinks with level refinement
    def gap(levels):
        st = gaussian_stack(3, level_count=levels, samples=129)
        F = section_profile(st)
        trap = float(_trapz(F.values, F.grid)) + F.grid[0] * F.values[0]
        return abs(stack_integral(st) - trap)

    ratio = 1.0 - (1e-6) ** (1.0 / 47.0)
    assert gap(48) <= 0.75 * ratio
    assert gap(192) < gap(48)


# ---------------------------------------------------------------------------
# minimal midpoint stack
# ---------------------------------------------------------------------------


def test_minimal_midpoint_equality_returns_f():
    f = gaussian_stack(3, level_count=40, samples=257)
    m = minimal_midpoint_stack(f, f)
    assert len(m.levels) == len(f.levels)
    assert np.allclose(m.levels, f.levels, rtol=1e-12)
    for bf, bm in zip(f.bodies, m.bodies):
        assert hausdorff(bm, bf) <= 1e-7 * float(np.max(np.hypot(bf.t, bf.radius)))


def test_minimal_midpoint_indicator_balls():
    f = ball_stack([(1.0, 1.0)], samples=2049)
    g = ball_stack([(1.0, 2.0)], samples=2049)
    m = minimal_midpoint_stack(f, g)
    assert len(m.levels) == 1
    assert hausdorff(m.bodies[0], bodies.Ball(3, 1.5)) <= 1e-3


def test_minimal_midpoint_deficit_direction():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = random_log_concave_stack(3, rng)
        g = random_log_concave_stack(3, rng)
        m = minimal_midpoint_stack(f, g)
        assert stack_integral(m) - 1.0 >= -1e-9


def _all_pairs_midpoint_levels(f, g, levels):
    """Oracle: each level at u is the hull of the halved sums of every pair
    (i, j) with f_i g_j >= u^2, with no pruning."""
    out = []
    for u in levels:
        sums = [bodies.profile_sum(bf, bg)
                for fi, bf in zip(f.levels, f.bodies)
                for gj, bg in zip(g.levels, g.bodies)
                if fi * gj >= u * u * (1.0 - 1e-9)]
        out.append(bodies.upper_hull(np.concatenate([0.5 * ts for ts, _ in sums]),
                                     np.concatenate([0.5 * rs for _, rs in sums])))
    return out


@pytest.mark.parametrize("shape", ["12x8", "32x24", "aligned"])
def test_minimal_midpoint_matches_all_pairs_oracle(shape):
    rng = np.random.default_rng(11)
    if shape == "aligned":
        f = random_log_concave_stack(3, rng, level_count=16, samples=65)
        g = random_log_concave_stack(3, rng, level_count=16, samples=65)
    else:
        kf, kg = map(int, shape.split("x"))
        f = random_log_concave_stack(3, rng, level_count=kf, samples=65, floor=1e-5)
        g = random_log_concave_stack(3, rng, level_count=kg, samples=65, floor=1e-4)
    m = minimal_midpoint_stack(f, g)
    u = np.geomspace(math.sqrt(f.levels[0] * g.levels[0]),
                     math.sqrt(f.levels[-1] * g.levels[-1]), len(m.levels))
    assert np.allclose(m.levels, u, rtol=1e-14, atol=0.0)
    for body, (t, r) in zip(m.bodies, _all_pairs_midpoint_levels(f, g, m.levels)):
        scale = float(np.max(r))
        assert abs(body.t[0] - t[0]) <= 1e-12 * t[-1]
        assert abs(body.t[-1] - t[-1]) <= 1e-12 * t[-1]
        # both profiles are piecewise linear: compare them at every vertex
        x = np.union1d(body.t, t)
        assert float(np.max(np.abs(body.radius_at(x) - np.interp(x, t, r)))) <= 1e-12 * scale


def test_sectioncap_margin_is_exact_between_vertices():
    # min(f-body, g-body) - m-body peaks at 0.3 where the cone 1 - |t| meets
    # the cylinder of radius 0.6, at t = +-0.4, a vertex of neither profile
    one = np.array([1.0])

    def stack(t, r):
        return LevelStack(3, one, (bodies.RevolutionBody(3, np.array(t), np.array(r)),))

    cone = stack([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    cylinder = stack([-1.0, 1.0], [0.6, 0.6])
    m = stack([-0.8, 0.0, 0.8], [0.0, 0.6, 0.0])
    assert pln._sectioncap_margin(cone, cylinder, m) == pytest.approx(0.3, rel=1e-14)
    assert pln._sectioncap_margin(cylinder, cone, m) == pytest.approx(0.3, rel=1e-14)
    assert pln._sectioncap_margin(cone, cylinder, cone) == 0.0


def test_minimal_midpoint_merges_once_per_level(monkeypatch):
    # one batched merge of the kept pairs and one hull per output level, and
    # no merge per pair
    rng = np.random.default_rng(12)
    f = random_log_concave_stack(3, rng, level_count=12, samples=33, floor=1e-5)
    g = random_log_concave_stack(3, rng, level_count=8, samples=17, floor=1e-4)
    calls = dict.fromkeys(("upper_hull", "profile_sums", "profile_sum"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(bodies, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bodies, name, counted)
    m = minimal_midpoint_stack(f, g)
    assert len(m.levels) == 12
    assert calls == {"upper_hull": 12, "profile_sums": 12, "profile_sum": 0}


def test_containment_margin_small():
    # the only slack is the inscription error of the reconstructed profiles
    rng = np.random.default_rng(2)
    f = random_log_concave_stack(3, rng)
    g = random_log_concave_stack(3, rng)
    m = minimal_midpoint_stack(f, g)
    scale = max(b.alpha for b in m.bodies)
    assert containment_margin(f, g, m) <= 5e-3 * scale


def test_containment_margin_is_exact():
    # minimal midpoint stacks hold every pair they must, to rounding
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f = random_log_concave_stack(3, rng, level_count=16, samples=65)
        g = random_log_concave_stack(3, rng, level_count=12, samples=65, floor=1e-4)
        m = minimal_midpoint_stack(f, g)
        scale = max(b.alpha for b in m.bodies)
        assert containment_margin(f, g, m) <= 1e-12 * scale
    # a spike 1e-4 out of the unit ball, midway between two directions of a
    # 64-direction support table (which misses it), is read at its full
    # height above the ball
    ball = revolution_ball(3, 1.0, 2049)
    inner = revolution_ball(3, 0.9, 2049)
    phi = 20.0 * math.pi / 64.0
    t0, r0 = (1.0 + 1e-4) * math.cos(phi), (1.0 + 1e-4) * math.sin(phi)
    t, r = bodies.upper_hull(np.append(inner.t, [-t0, t0]), np.append(inner.radius, [r0, r0]))
    f = LevelStack(3, np.array([1.0]), (bodies.RevolutionBody(3, t, r),))
    m = LevelStack(3, np.array([1.0]), (ball,))
    margin = containment_margin(f, f, m)
    assert margin == pytest.approx(r0 - float(ball.radius_at(t0)), rel=1e-9)
    assert margin > 1e-4


def test_minksum_chain_on_level_lattice():
    # M(sqrt(rs)) >= ((F(r)^(1/n) + G(s)^(1/n))/2)^n >= sqrt(F(r) G(s)) for
    # the (r, s) pairs whose geometric mean lies on the output level grid
    rng = np.random.default_rng(3)
    n = 3
    for _ in range(8):
        f = random_log_concave_stack(n, rng)
        g = random_log_concave_stack(n, rng)
        m = minimal_midpoint_stack(f, g)
        K = len(f.levels)
        for k in range(K):
            Mk = m.volumes[k]
            for i in range(max(0, 2 * k - (K - 1)), min(K - 1, 2 * k) + 1):
                j = 2 * k - i
                Fr, Gs = f.volumes[i], g.volumes[j]
                mid = ((Fr ** (1 / n) + Gs ** (1 / n)) / 2.0) ** n
                assert Mk >= mid - 1e-7 * mid
                assert mid >= math.sqrt(Fr * Gs) - 1e-9 * mid


def test_midpoint_empty_level_ranges_error():
    # squared levels that underflow leave every output level without a valid
    # pair; the builder reports this instead of returning an empty stack
    f = LevelStack(3, np.array([1e-200]), (revolution_ball(3, 1.0, 65),))
    g = LevelStack(3, np.array([1e-200, 0.5e-200]),
                   (revolution_ball(3, 1.0, 65), revolution_ball(3, 1.0, 65)))
    with pytest.raises(EmptyFunctionError):
        minimal_midpoint_stack(f, g)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_equality_family():
    f = gaussian_stack(3, level_count=48, samples=257)
    tr = pl_trace(f, f, f)
    assert tr.eps == pytest.approx(0.0, abs=1e-12)
    assert tr.b == pytest.approx(1.0, abs=1e-6)
    assert float(np.max(np.abs(tr.alpha - 1.0))) <= 1e-6
    assert float(np.max(np.abs(tr.beta - 1.0))) <= 1e-6
    assert float(np.nanmax(np.abs(tr.sigma - 1.0))) <= 1e-5
    assert float(np.nanmax(tr.eta)) <= 1e-9
    assert not tr.J_mask.any()
    assert tr.l1_fg <= 1e-12 and tr.l1_fm <= 1e-12 and tr.l1_gm <= 1e-12
    assert tr.sectioncap_margin <= 1e-12


def test_trace_requires_probability_stacks():
    f = gaussian_stack(3, level_count=24, samples=129)
    bad = LevelStack(f.dim, f.levels * 2.0, f.bodies)
    with pytest.raises(NormalizationError):
        pl_trace(bad, f, f)


def test_trace_dilation_family():
    f = gaussian_stack(3, level_count=48, samples=257)
    g = axis_dilated_stack(f, 1.2)
    m = minimal_midpoint_stack(f, g)
    tr = pl_trace(f, g, m)
    assert tr.eps > 0
    assert tr.b_gap > 0
    assert tr.b >= 1.0 - 1e-12
    assert tr.jsize_lhs <= tr.jsize_rhs + 1e-12
    assert tr.sectioncap_margin <= 1e-9
    assert np.isfinite(tr.ratio_to_sqrt_omega(tr.l1_fg))
    assert float(np.nanmin(tr.sigma)) >= 1.0 - 1e-12
    assert float(np.nanmin(tr.eta)) >= 0.0
    # masks partition the level grid
    assert np.all(tr.I_mask ^ tr.J_mask)


def test_trace_swap_normalizes_b():
    f = gaussian_stack(3, level_count=48, samples=257)
    g = axis_dilated_stack(f, 1.2)
    m = minimal_midpoint_stack(g, f)
    tr = pl_trace(g, f, m)  # reversed order forces the swap branch
    assert tr.swapped
    assert tr.b >= 1.0 - 1e-12


def test_trace_dilation_scan_slope_and_ratio():
    f = gaussian_stack(3, level_count=48, samples=257)
    epss, l1s, ratios = [], [], []
    for d in np.geomspace(0.02, 0.3, 10):
        g = axis_dilated_stack(f, 1.0 + d)
        m = minimal_midpoint_stack(f, g)
        tr = pl_trace(f, g, m)
        epss.append(tr.eps)
        l1s.append(tr.l1_fg)
        ratios.append(tr.ratio_to_sqrt_omega(tr.l1_fg))
    slope = np.polyfit(np.log(epss), np.log(l1s), 1)[0]
    assert slope >= 1.0 / 6.0 - 0.01
    assert np.all(np.isfinite(ratios))
    assert max(ratios) < 100.0
