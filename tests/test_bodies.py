import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    contains_points,
    hausdorff,
    mc_volume,
    meridian_polygon,
    profile_sum_merge,
    regular_polygon,
    support_function,
    translate_polygon,
    unit_square,
    upper_hull_lexsort,
    vertex_distances,
)
from stabgeo import bodies, pln
from stabgeo.bodies import (
    Ball,
    ConvexPolygon,
    RevolutionBody,
    minkowski_midpoint,
    revolution_ball,
    revolution_cylinder,
    symmetric_difference_volume,
    unit_ball_volume,
    volume,
)
from stabgeo.errors import DegenerateBodyError, UnsupportedCombinationError

TWO_PI = 2.0 * math.pi  # exact value of kappa_2 * int_{-1}^{1} 1 dt


# ---------------------------------------------------------------------------
# unit-ball volumes
# ---------------------------------------------------------------------------


def test_kappa_low_dimensions():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)


@given(st.integers(min_value=3, max_value=15))
def test_kappa_recursion(n):
    assert unit_ball_volume(n) == pytest.approx(
        unit_ball_volume(n - 2) * TWO_PI / n, rel=1e-13
    )


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def test_volume_ball_closed_form():
    assert volume(Ball(3, 1.0)) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)


def test_volume_ball_profile():
    b = revolution_ball(3, 1.0, samples=2001)
    assert volume(b) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-5)


def test_volume_cylinder_exact_quadrature():
    # constant profile: kappa_2 * 2 = 2 pi
    c = revolution_cylinder(3, 1.0, 1.0, samples=2001)
    assert volume(c) == pytest.approx(TWO_PI, abs=1e-9)


def test_volume_polygon_shoelace():
    assert volume(unit_square()) == pytest.approx(4.0, abs=1e-12)


def test_volume_degenerate_profile_rejected():
    t = np.linspace(-1, 1, 11)
    with pytest.raises(DegenerateBodyError):
        RevolutionBody(3, t, np.zeros_like(t))


def test_interior_zero_profile_rejected():
    t = np.linspace(-1, 1, 101)
    r = np.maximum(np.abs(t) - 0.5, 0.0)  # two lobes, zero in the middle
    with pytest.raises(DegenerateBodyError):
        RevolutionBody(3, t, r)


@pytest.mark.parametrize("samples", [3, 9, 129, 2049])
def test_volume_double_cone_is_exact(samples):
    # two cones of height 1 over the unit disk: 2 pi / 3 at every resolution
    t = np.linspace(-1.0, 1.0, samples)
    assert volume(RevolutionBody(3, t, 1.0 - np.abs(t))) == pytest.approx(
        2.0 * math.pi / 3.0, rel=1e-14)
    # a cone over the unit 4-ball section: 2 kappa_4 / 5
    assert volume(RevolutionBody(5, t, 1.0 - np.abs(t))) == pytest.approx(
        2.0 * unit_ball_volume(4) / 5.0, rel=1e-14)


def test_volume_frustum_sum_on_a_non_uniform_grid():
    # frusta pi h (a^2 + a b + b^2) / 3 on cells of widths 0.5, 1, 0.5
    t = np.array([-1.0, -0.5, 0.5, 1.0])
    r = np.array([0.5, 1.0, 1.0, 0.5])
    expect = math.pi * (2.0 * 0.5 * (0.25 + 0.5 + 1.0) / 3.0 + 1.0)
    assert volume(RevolutionBody(3, t, r)) == pytest.approx(expect, rel=1e-14)


def test_two_vertex_cylinder_is_accepted():
    K = RevolutionBody(4, np.array([-1.5, 1.5]), np.array([0.5, 0.5]))
    assert volume(K) == pytest.approx(3.0 * unit_ball_volume(3) * 0.125, rel=1e-14)


def test_concavity_is_judged_per_vertex():
    # a concave profile with cells of 1e-12 at t = +-0.5: rounding tilts
    # their slopes by about 1e-4, but each vertex stays within rounding of
    # the chord through its neighbours (a mean-step rule rejected this)
    x = 0.5 + 1e-12 * np.arange(-3, 4)
    t = np.concatenate([[-1.0], -x[::-1], [0.0], x, [1.0]])
    RevolutionBody(3, t, np.sqrt(1.0 - t * t))
    # vertices 0.67e-7 below their chords, on cells of 0.5 among 2000
    # cells of 1e-6: the dip is rejected although the mean cell is short
    fine = np.linspace(0.999, 1.0, 1001)
    t = np.concatenate([-fine[::-1], [-0.5, 0.5], fine])
    r = np.ones_like(t)
    r[[1001, 1002]] = 1.0 - 1e-7
    with pytest.raises(DegenerateBodyError, match="concave"):
        RevolutionBody(3, t, r)
    # uniform grids keep the bound: a dip of 1.5e-9 passes, 2.5e-9 does not
    t = np.linspace(-1.0, 1.0, 5)
    RevolutionBody(3, t, np.array([1.0, 1.0, 1.0 - 1.5e-9, 1.0, 1.0]))
    with pytest.raises(DegenerateBodyError, match="concave"):
        RevolutionBody(3, t, np.array([1.0, 1.0, 1.0 - 2.5e-9, 1.0, 1.0]))


def test_equal_abscissae_keep_the_larger_radius():
    K = RevolutionBody(3, np.array([-1.0, -1.0, 0.0, 1.0, 1.0]),
                       np.array([0.0, 0.5, 1.0, 0.5, 0.2]))
    assert K.t.tolist() == [-1.0, 0.0, 1.0]
    assert K.radius.tolist() == [0.5, 1.0, 0.5]
    with pytest.raises(DegenerateBodyError, match="increasing"):
        RevolutionBody(3, np.array([-1.0, 0.5, 0.0, 1.0]), np.ones(4))


# ---------------------------------------------------------------------------
# support functions
# ---------------------------------------------------------------------------


def test_support_ball_unit_directions():
    rng = np.random.default_rng(0)
    for _ in range(8):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        assert support_function(Ball(3, 1.0), w) == pytest.approx(1.0, abs=1e-12)


def test_support_cylinder_diagonal():
    c = revolution_cylinder(3, 1.0, 1.0, samples=101)
    w = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert support_function(c, w) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_support_midpoint_ball_cylinder_axis():
    # support functions average under the Minkowski midpoint: (1 + 1)/2 = 1
    b = revolution_ball(3, 1.0, 2049)
    c = revolution_cylinder(3, 1.0, 1.0, samples=2049)
    m = minkowski_midpoint(b, c)
    assert support_function(m, [1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Minkowski midpoint
# ---------------------------------------------------------------------------


def test_midpoint_idempotent_polygon():
    rng = np.random.default_rng(1)
    for _ in range(5):
        K = bodies.random_polygon(rng)
        M = minkowski_midpoint(K, K)
        diam = np.ptp(K.vertices)
        assert hausdorff(M, K) <= 1e-12 * diam


def test_midpoint_idempotent_revolution():
    rng = np.random.default_rng(2)
    for _ in range(3):
        K = bodies.random_revolution_body(3, rng, samples=1025)
        M = minkowski_midpoint(K, K)
        assert hausdorff(M, K) <= 1e-9 * K.alpha


def test_hausdorff_oracle_matches_all_pairs():
    # the oracle measures each vertex against the edges near its angle only;
    # against every edge it reads the same, far apart or nearly equal
    rng = np.random.default_rng(25)
    for trial in range(60):
        P = bodies.random_polygon(rng).vertices
        Q = bodies.random_polygon(rng, points=int(rng.integers(3, 40))).vertices
        if trial % 3 == 0:
            Q = P * (1.0 + 1e-3 * rng.normal()) + 1e-3 * rng.normal(size=2)
        Q = Q + (trial % 2) * rng.normal(size=2)
        E = np.roll(Q, -1, axis=0) - Q
        R = P[:, None] - Q
        s = np.clip(np.sum(R * E, axis=2) / np.sum(E * E, axis=1), 0.0, 1.0)
        d = np.min(np.linalg.norm(R - s[..., None] * E, axis=2), axis=1)
        d[np.all(E[:, 0] * R[..., 1] - E[:, 1] * R[..., 0] >= 0.0, axis=1)] = 0.0
        assert np.max(np.abs(vertex_distances(P, Q) - d)) <= 1e-15 * np.max(np.abs(R))


def test_midpoint_balls_average_radii():
    m = minkowski_midpoint(Ball(3, 1.0), Ball(3, 3.0))
    assert isinstance(m, Ball)
    assert m.radius == pytest.approx(2.0, abs=1e-15)


def test_midpoint_square_disk_support():
    # (h_square + h_disk)/2 at (1, 0) is (1 + 1)/2 = 1; a regular 256-gon
    # with a vertex on the x-axis has the same support there as the disk
    disk = regular_polygon(256, 1.0)
    m = minkowski_midpoint(unit_square(), disk)
    assert support_function(m, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_midpoint_mixed_representation_rejected():
    with pytest.raises(UnsupportedCombinationError):
        minkowski_midpoint(unit_square(), revolution_ball(2, 1.0, 101))


def test_profile_sum_matches_polygon_edge_merge():
    rng = np.random.default_rng(21)
    cases = [(revolution_cylinder(3, 1.0, 1.0, samples=9),
              bodies.RevolutionBody(3, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))]
    for _ in range(40):
        n = int(rng.integers(2, 6))
        cases.append(tuple(
            bodies.random_revolution_body(n, rng, samples=int(rng.integers(5, 66)),
                                          amplitude=rng.uniform(0.0, 1.0))
            for _ in range(2)))
    for K, C in cases:
        ts, rs = bodies.profile_sum(K, C)
        V = bodies._polygon_minkowski_sum(ConvexPolygon(meridian_polygon(K)),
                                          ConvexPolygon(meridian_polygon(C)))
        top = V[V[:, 1] >= 0.0]
        top = top[np.argsort(top[:, 0])]
        scale = np.max(K.radius) + np.max(C.radius)
        assert ts[0] == pytest.approx(top[0, 0], abs=1e-14 * scale)
        assert ts[-1] == pytest.approx(top[-1, 0], abs=1e-14 * scale)
        assert np.max(np.abs(np.interp(top[:, 0], ts, rs) - top[:, 1])) <= 1e-12 * scale
        assert np.max(np.abs(np.interp(ts, top[:, 0], top[:, 1]) - rs)) <= 1e-12 * scale


def test_profile_sums_rows_are_the_pairwise_merges():
    # bodies of 9 to 65 vertices, so most rows are padded; tied slopes on the
    # cylinders' flat tops and in every self-pair; a midpoint stack's own
    # levels, which have more vertices than its inputs; and one table merged
    # with itself
    st = pln.gaussian_stack(3, level_count=6, samples=33)
    m = pln.minimal_midpoint_stack(st, st)
    left = [revolution_ball(3, 1.0, 9), revolution_ball(3, 2.0, 17),
            revolution_cylinder(3, 1.0, 0.5, 9), revolution_cylinder(3, 0.5, 1.0, 17),
            *st.bodies, *m.bodies]
    right = left[::-1] + [bodies.random_revolution_body(3, np.random.default_rng(24), 65)]
    assert len({len(K.t) for K in left}) > 4
    i, j = (a.ravel() for a in np.meshgrid(np.arange(len(left)), np.arange(len(right)),
                                           indexing="ij"))
    for A, B, rows in ((left, right, j), (left, left, np.flip(i))):
        ts, rs = bodies.profile_sums(bodies.profile_table(A), i, bodies.profile_table(B), rows)
        assert ts.shape[1] == max(len(K.t) for K in A) + max(len(C.t) for C in B) - 1
        for p, (K, C) in enumerate(zip((A[k] for k in i), (B[k] for k in rows))):
            et, er = profile_sum_merge(K, C)
            n = len(et)
            assert (0.5 * ts[p, :n]).tobytes() == (0.5 * et).tobytes()
            assert (0.5 * rs[p, :n]).tobytes() == (0.5 * er).tobytes()
            assert np.all(ts[p, n:] == et[-1]) and np.all(rs[p, n:] == er[-1])
            pt, pr = bodies.profile_sum(K, C)
            assert pt.tobytes() == et.tobytes() and pr.tobytes() == er.tobytes()


def _edge_merge_loop(P, Q):
    """The edge-by-edge merge loop for P + Q (oracle): vertices from the sum
    of the lowest (then leftmost) vertices as a running sum of edges, with a
    P edge and a Q edge within 1e-12 rad merged into one."""
    def edge_sequence(V):
        V = np.roll(V, -np.lexsort((V[:, 0], V[:, 1]))[0], axis=0)
        E = np.roll(V, -1, axis=0) - V
        ang = np.arctan2(E[:, 1], E[:, 0])
        return V, E, np.where(ang < ang[0] - 1e-15, ang + 2.0 * math.pi, ang)

    VP, EP, angP = edge_sequence(P.vertices)
    VQ, EQ, angQ = edge_sequence(Q.vertices)
    edges = []
    i = j = 0
    while i < len(EP) or j < len(EQ):
        if i < len(EP) and j < len(EQ) and abs(angP[i] - angQ[j]) <= 1e-12:
            edges.append(EP[i] + EQ[j])
            i += 1
            j += 1
        elif j >= len(EQ) or (i < len(EP) and angP[i] < angQ[j]):
            edges.append(EP[i])
            i += 1
        else:
            edges.append(EQ[j])
            j += 1
    return VP[0] + VQ[0] + np.vstack([[0.0, 0.0], np.cumsum(edges, axis=0)[:-1]])


def test_polygon_sum_matches_edge_merge_loop():
    rng = np.random.default_rng(23)
    pairs = []
    for _ in range(150):
        P, Q = bodies.random_polygon(rng), bodies.random_polygon(rng)
        S, T = bodies.random_o_symmetric_polygon(rng), bodies.random_o_symmetric_polygon(rng)
        R = regular_polygon(int(rng.integers(3, 13)), float(rng.uniform(0.1, 10.0)),
                            float(rng.uniform(0.0, 2.0 * math.pi)))
        pairs += [(P, Q), (S, T), (P, S), (R, R), (R, regular_polygon(len(R.vertices))),
                  (R, unit_square())]
    for P, Q in pairs:
        V = bodies._polygon_minkowski_sum(P, Q)
        W = _edge_merge_loop(P, Q)
        assert V.shape == W.shape
        assert np.max(np.abs(V - W)) <= 1e-15 * np.max(np.abs(W))


def test_polygon_self_sum_is_exactly_doubled():
    rng = np.random.default_rng(24)
    for P in ([bodies.random_polygon(rng) for _ in range(50)]
              + [bodies.random_o_symmetric_polygon(rng) for _ in range(50)]
              + [regular_polygon(k, 1.0, 0.3) for k in range(3, 13)]):
        V = P.vertices
        V = np.roll(V, -np.lexsort((V[:, 0], V[:, 1]))[0], axis=0)
        assert np.array_equal(bodies._polygon_minkowski_sum(P, P), 2.0 * V)


def test_merge_indices():
    # A has edges 0, 1 and B has edges 2, 3, 4, merged as B A B A B
    i, j = bodies.merge_indices(np.array([2, 0, 3, 1, 4]), 2)
    assert i.tolist() == [0, 0, 1, 1, 2, 2]
    assert j.tolist() == [0, 1, 1, 2, 2, 3]


def _majorant_bruteforce(t, v, x):
    """max over chords of point pairs straddling x (the least concave majorant)."""
    i, j = np.meshgrid(np.arange(len(t)), np.arange(len(t)), indexing="ij")
    i, j = i[t[i] < t[j]], j[t[i] < t[j]]
    out = np.array([np.max(v[t == xx]) for xx in x])
    for xx_k, xx in enumerate(x):
        m = (t[i] <= xx) & (xx <= t[j])
        w = (xx - t[i[m]]) / (t[j[m]] - t[i[m]])
        if m.any():
            out[xx_k] = max(out[xx_k], float(np.max((1 - w) * v[i[m]] + w * v[j[m]])))
    return out


def test_upper_hull_matches_bruteforce():
    rng = np.random.default_rng(22)
    clouds = [(np.linspace(0.0, 1.0, 60), np.append(np.sqrt(np.linspace(0.0, 1.0, 59)), 9.0))]
    for _ in range(30):
        k = int(rng.integers(3, 50))
        t = rng.integers(0, 20, size=k).astype(float)  # repeated abscissae
        clouds.append((t, rng.normal(size=k)))
    for t, v in clouds:
        ht, hv = bodies.upper_hull(t, v)
        assert np.all(np.diff(ht) > 0)
        assert ht[0] == t.min() and ht[-1] == t.max()
        x = np.unique(t)
        assert np.max(np.abs(np.interp(x, ht, hv) - _majorant_bruteforce(t, v, x))) <= 1e-12


def test_upper_hull_keeps_the_lexsort_selection():
    rng = np.random.default_rng(23)
    clouds = []
    for _ in range(300):
        k = int(rng.integers(1, 200))
        # few distinct values: long runs of one abscissa, duplicate (t, v)
        # points, and zeros of both signs as abscissae and as the highest point
        d = int(rng.integers(1, 4))
        t = rng.integers(-d, d + 1, size=k) * 1.0
        v = rng.integers(-2, 1 + 2 * (d > 1), size=k) * float(rng.choice([1.0, 0.5]))
        t[rng.random(k) < 0.2] = -0.0
        v[rng.random(k) < 0.2] = -0.0
        clouds.append((t, v))
    for _ in range(30):
        k = int(rng.integers(3, 400))
        clouds.append((np.round(rng.normal(size=k), 1), rng.normal(size=k)))
    st = pln.gaussian_stack(3, level_count=6, samples=17)
    sums = [bodies.profile_sum(K, C) for K in st.bodies for C in st.bodies]
    clouds.append((np.concatenate([ts for ts, _ in sums]), np.concatenate([rs for _, rs in sums])))
    for t, v in clouds:
        ht, hv = bodies.upper_hull(t, v)
        et, ev = upper_hull_lexsort(t, v)
        assert ht.tobytes() == et.tobytes() and hv.tobytes() == ev.tobytes()


# ---------------------------------------------------------------------------
# symmetric difference
# ---------------------------------------------------------------------------


def test_symmetric_difference_self_is_zero():
    K = revolution_ball(3, 1.0, 513)
    assert symmetric_difference_volume(K, K) == 0.0


def test_symmetric_difference_shell():
    # closed-form shell volume (4 pi / 3)(1 - 0.9^3)
    expected = 4.0 * math.pi / 3.0 * (1.0 - 0.9 ** 3)
    got = symmetric_difference_volume(Ball(3, 1.0), Ball(3, 0.9))
    assert got == pytest.approx(expected, abs=1e-6)


def test_symmetric_difference_disjoint_squares():
    A = unit_square()
    B = translate_polygon(unit_square(), [3.0, 0.0])
    assert symmetric_difference_volume(A, B) == pytest.approx(8.0, abs=1e-12)


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_clip_inside_test_scales_with_the_polygons(s):
    # two unit squares overlapping in a quarter; an absolute tolerance on the
    # inside test's cross product (units length^2) kept whole squares at
    # small scales
    A = ConvexPolygon(s * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    B = translate_polygon(A, [0.5 * s, 0.5 * s])
    assert bodies.intersection_area(A, B) / s ** 2 == pytest.approx(0.25, rel=1e-12)
    assert symmetric_difference_volume(A, B) / s ** 2 == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("s", [1e-9, 1e-7, 1e-3, 1.0, 1e3, 1e6])
def test_polygon_membership_scales_with_the_polygon(s):
    # an absolute tolerance on the cross product (units length^2) counted
    # points 0.2 s outside the square [-s, s]^2 as inside at small scales,
    # and edge midpoints as outside at large ones
    P = ConvexPolygon(s * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    pts = s * np.array([[1.2, 0.0], [0.0, -1.0 - 1e-9], [0.8, 0.0], [1.0, 1.0], [1.0, 0.3]])
    assert contains_points(P, pts).tolist() == [False, False, True, True, True]
    assert hausdorff(P, bodies.scale(P, 1.5)) / s == \
        pytest.approx(0.5 * math.sqrt(2.0), rel=1e-12)
    V = regular_polygon(7, s, 0.3).vertices
    assert contains_points(ConvexPolygon(V), 0.5 * (V + np.roll(V, -1, axis=0))).all()


def test_clip_edge_along_a_clip_line_at_the_tolerance():
    # the edge P0 -> P1 runs exactly along the clip edge (0,0) -> (3,1), 1e-14
    # times the coordinate size outside it, and rounding puts its two ends on
    # either side of the tolerance: the crossing has a zero denominator
    P = ConvexPolygon(np.array([[0.9565469048856082, 0.3188489682951711],
                                [2.456546904885608, 0.8188489682951712],
                                [0.7565469048856082, 1.1188489682951712]]))
    Q = ConvexPolygon(np.array([[0.0, 0.0], [3.0, 1.0], [-1.0, 3.0]]))
    assert bodies.intersection_area(P, Q) == pytest.approx(volume(P), abs=1e-11)


def test_nestedness():
    rng = np.random.default_rng(3)
    for _ in range(5):
        K = bodies.random_revolution_body(3, rng, samples=1025)
        C = bodies.scale(K, 1.3)
        got = symmetric_difference_volume(K, C)
        assert got == pytest.approx(volume(C) - volume(K), rel=1e-9)


def test_symmetric_difference_splits_crossing_cells():
    # the cone 1 - |t| (3 vertices) against the cylinder of radius 1/2 (2
    # vertices): the profiles cross at t = +-1/2, inside cells of both, and
    # |K delta C| = 2 pi int_0^1 |u^2 - 1/4| du = pi / 2 in 3-D, while in 2-D
    # it is 2 * 2 int_0^1 |u - 1/2| du = 1
    t = np.array([-1.0, 0.0, 1.0])
    for n, expect in ((3, math.pi / 2.0), (2, 1.0)):
        K = RevolutionBody(n, t, 1.0 - np.abs(t))
        C = RevolutionBody(n, np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert symmetric_difference_volume(K, C) == pytest.approx(expect, rel=1e-14)
        assert symmetric_difference_volume(C, K) == pytest.approx(expect, rel=1e-14)


def test_symmetric_difference_matches_a_fine_oracle():
    # random pairs on unrelated grids against a midpoint sum of
    # |r1^(n-1) - r2^(n-1)| on 2 * 10^5 cells that end at every vertex
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        K = bodies.random_revolution_body(n, rng, samples=int(rng.integers(3, 40)))
        C = bodies.random_revolution_body(n, rng, samples=int(rng.integers(3, 40)))
        x = np.union1d(np.linspace(-2.0, 2.0, 200_001), np.concatenate([K.t, C.t]))
        mid = 0.5 * (x[1:] + x[:-1])
        f = np.abs(K.radius_at(mid) ** (n - 1) - C.radius_at(mid) ** (n - 1))
        oracle = unit_ball_volume(n - 1) * float(np.dot(np.diff(x), f))
        assert symmetric_difference_volume(K, C) == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# Monte-Carlo volumes
# ---------------------------------------------------------------------------


def test_mc_volume_ball():
    est, se = mc_volume(Ball(3, 1.0), 10 ** 6, seed=42)
    assert abs(est - 4.0 * math.pi / 3.0) <= 3.0 * se


def test_mc_volume_cylinder():
    c = revolution_cylinder(3, 1.0, 1.0, samples=2049)
    est, se = mc_volume(c, 10 ** 6, seed=43)
    assert abs(est - TWO_PI) <= 3.0 * se


def test_mc_volume_matches_quadrature_on_random_bodies():
    rng = np.random.default_rng(7)
    for k in range(20):
        K = bodies.random_revolution_body(3, rng, samples=1025,
                                          amplitude=rng.uniform(0.0, 1.0))
        est, se = mc_volume(K, 10 ** 5, seed=100 + k)
        assert abs(est - volume(K)) <= 3.0 * se


def test_mc_volume_deterministic():
    a = mc_volume(Ball(3, 1.0), 10 ** 4, seed=5)
    b = mc_volume(Ball(3, 1.0), 10 ** 4, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_volume_homogeneity():
    rng = np.random.default_rng(9)
    for lam in (0.5, 2.0):
        for K in (Ball(4, 1.3), bodies.random_polygon(rng),
                  bodies.random_o_symmetric_polygon(rng)):
            n = K.dim
            assert volume(bodies.scale(K, lam)) == pytest.approx(
                lam ** n * volume(K), rel=1e-9)
        for _ in range(3):
            K = bodies.random_revolution_body(3, rng, samples=513)
            assert volume(bodies.scale(K, lam)) == pytest.approx(
                lam ** 3 * volume(K), rel=1e-12)


def test_support_additivity():
    rng = np.random.default_rng(10)
    # exact representations: edge-merge sums and balls are exact
    for _ in range(4):
        K = bodies.random_o_symmetric_polygon(rng)
        C = bodies.random_o_symmetric_polygon(rng)
        M = minkowski_midpoint(K, C)
        for _ in range(32):
            w = rng.normal(size=2)
            w /= np.linalg.norm(w)
            lhs = support_function(M, w)
            rhs = 0.5 * (support_function(K, w) + support_function(C, w))
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)
    # coaxial revolution sums are exact on the meridian vertices
    for _ in range(3):
        K = bodies.random_revolution_body(3, rng, samples=2049)
        C = bodies.random_revolution_body(3, rng, samples=2049)
        M = minkowski_midpoint(K, C)
        for _ in range(32):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            lhs = support_function(M, w)
            rhs = 0.5 * (support_function(K, w) + support_function(C, w))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_brunn_minkowski_inequality():
    rng = np.random.default_rng(11)
    for _ in range(50):
        K = bodies.random_o_symmetric_polygon(rng)
        C = bodies.random_polygon(rng)
        M = minkowski_midpoint(K, C)
        assert volume(M) ** 0.5 >= 0.5 * (volume(K) ** 0.5 + volume(C) ** 0.5) - 1e-9
    for _ in range(50):
        n = int(rng.integers(2, 6))
        K = bodies.random_revolution_body(n, rng, samples=513)
        C = bodies.random_revolution_body(n, rng, samples=513)
        M = minkowski_midpoint(K, C)
        assert volume(M) ** (1.0 / n) >= 0.5 * (
            volume(K) ** (1.0 / n) + volume(C) ** (1.0 / n)) - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_polygon_hull_is_valid(seed):
    rng = np.random.default_rng(seed)
    K = bodies.random_polygon(rng)
    assert volume(K) > 0


@pytest.mark.parametrize("generator", [bodies.random_polygon, bodies.random_o_symmetric_polygon])
def test_random_polygons_are_the_qhull_cycle(generator, monkeypatch):
    # the generated vertex cycle is scipy's hull of the drawn points, up to
    # where the cycle starts: at the lowest of the leftmost vertices
    from scipy.spatial import ConvexHull

    drawn = []

    def hull_cycle(pts, _hull=bodies._hull_cycle):
        drawn.append(pts)
        return _hull(pts)

    monkeypatch.setattr(bodies, "_hull_cycle", hull_cycle)
    for seed in range(1000):
        V = generator(np.random.default_rng(seed)).vertices
        pts = drawn[-1]
        Q = pts[ConvexHull(pts).vertices]
        assert len(Q) == len(V), seed
        start = int(np.flatnonzero((Q == V[0]).all(axis=1))[0])
        assert np.array_equal(np.roll(Q, -start, axis=0), V), seed
        left = V[V[:, 0] == V[:, 0].min()]
        assert V[0, 1] == left[:, 1].min(), seed


def test_polygon_symmetry_is_read_from_the_vertices():
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    assert ConvexPolygon(square).o_symmetric
    assert ConvexPolygon(square + [1e-10, 0.0]).o_symmetric  # within 1e-9 of the size
    assert not ConvexPolygon(square + [1e-6, 0.0]).o_symmetric
    assert regular_polygon(6).o_symmetric and not regular_polygon(5).o_symmetric
    rng = np.random.default_rng(0)
    assert bodies.random_o_symmetric_polygon(rng).o_symmetric
    P = bodies.random_polygon(rng)
    assert not P.o_symmetric
    # (P - P)/2 is o-symmetric although P is not
    assert minkowski_midpoint(P, ConvexPolygon(-P.vertices)).o_symmetric
    with pytest.raises(DegenerateBodyError):
        ConvexPolygon(square + [1e-6, 0.0], o_symmetric=True)


def _nearest_vertex_defect(V):
    """Max distance from -v to the nearest vertex, by the full search (oracle)."""
    return float(np.max(np.min(np.linalg.norm(V[:, None] + V[None], axis=2), axis=1)))


def test_polygon_symmetry_pairs_agree_with_the_nearest_vertex_search():
    rng = np.random.default_rng(7)
    for trial in range(60):
        if trial % 2:
            V = bodies.random_o_symmetric_polygon(rng).vertices
        else:  # a symmetric ellipse sampled at 2k points
            k = int(rng.integers(2, 200))
            ang = rng.uniform(0.0, 2.0 * math.pi) + math.pi * np.arange(2 * k) / k
            V = np.column_stack([rng.uniform(0.5, 3.0) * np.cos(ang), np.sin(ang)])
        V = np.roll(V, int(rng.integers(len(V))), axis=0) * 10.0 ** rng.uniform(-6, 6)
        scale = float(np.max(np.abs(V)))
        for rel in (0.0, 1e-10, 1e-8):
            W = V + rel * scale * rng.uniform(-1.0, 1.0, V.shape)
            if trial % 3 == 0:  # one vertex moved only
                W = V.copy()
                W[int(rng.integers(len(V)))] += rel * scale
            expected = _nearest_vertex_defect(W) <= 1e-9 * float(np.max(np.abs(W)))
            assert ConvexPolygon(W).o_symmetric == expected
            if rel == 0.0:
                assert expected
            if rel == 1e-8 and trial % 3:
                assert not expected


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_ball_radius_must_be_finite_and_positive(radius):
    with pytest.raises(DegenerateBodyError, match="finite and positive"):
        Ball(3, radius)


def test_polygon_validation_errors():
    with pytest.raises(DegenerateBodyError):
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateBodyError):  # clockwise
        ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateBodyError):  # duplicate adjacent vertices
        ConvexPolygon(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateBodyError):  # bad symmetry flag
        ConvexPolygon(np.array([[0.0, -1.0], [1.0, 2.0], [-1.0, 1.0]]),
                      o_symmetric=True)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateBodyError, match="vertices must be finite"):
            ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]]))
