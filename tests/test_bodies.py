import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgeo import bodies
from stabgeo.bodies import (
    Ball,
    ConvexPolygon,
    RevolutionBody,
    mc_volume,
    minkowski_midpoint,
    regular_polygon,
    revolution_ball,
    revolution_cylinder,
    support_function,
    symmetric_difference_volume,
    unit_ball_volume,
    volume,
)
from stabgeo.errors import DegenerateBodyError, UnsupportedCombinationError

TWO_PI = 2.0 * math.pi  # exact value of kappa_2 * int_{-1}^{1} 1 dt


def unit_square():
    return ConvexPolygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
                         o_symmetric=True)


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
    # constant integrand: the trapezoid sum is exact, kappa_2 * 2 = 2 pi
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


def test_support_zero_direction_rejected():
    with pytest.raises(ValueError):
        support_function(Ball(2, 1.0), [0.0, 0.0])


def test_support_midpoint_ball_cylinder_axis():
    # support functions average under the Minkowski midpoint: (1 + 1)/2 = 1
    b = Ball(3, 1.0)
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
        assert bodies.polygon_hausdorff(M, K) <= 1e-12 * diam


def test_midpoint_idempotent_revolution():
    rng = np.random.default_rng(2)
    for _ in range(3):
        K = bodies.random_revolution_body(3, rng, samples=1025)
        M = minkowski_midpoint(K, K)
        assert bodies.support_hausdorff(M, K) <= 1e-9 * K.alpha


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


def _meridian_polygon(K):
    """The meridian {(t, y): |y| <= r(t)} as a ccw vertex cycle."""
    upper = np.column_stack([K.t, K.radius])[::-1]
    lower = np.column_stack([K.t, -K.radius])
    if K.radius[-1] == 0.0:
        upper = upper[1:]
    if K.radius[0] == 0.0:
        lower = lower[1:]
    return ConvexPolygon(np.vstack([upper, lower]), o_symmetric=True)


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
        V = bodies._polygon_minkowski_sum(_meridian_polygon(K), _meridian_polygon(C))
        top = V[V[:, 1] >= 0.0]
        top = top[np.argsort(top[:, 0])]
        scale = K.max_radius + C.max_radius
        assert ts[0] == pytest.approx(top[0, 0], abs=1e-14 * scale)
        assert ts[-1] == pytest.approx(top[-1, 0], abs=1e-14 * scale)
        assert np.max(np.abs(np.interp(top[:, 0], ts, rs) - top[:, 1])) <= 1e-12 * scale
        assert np.max(np.abs(np.interp(ts, top[:, 0], top[:, 1]) - rs)) <= 1e-12 * scale


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
    B = bodies.translate_polygon(unit_square(), [3.0, 0.0])
    assert symmetric_difference_volume(A, B) == pytest.approx(8.0, abs=1e-12)


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_clip_inside_test_scales_with_the_polygons(s):
    # two unit squares overlapping in a quarter; an absolute tolerance on the
    # inside test's cross product (units length^2) kept whole squares at
    # small scales
    A = ConvexPolygon(s * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    B = bodies.translate_polygon(A, [0.5 * s, 0.5 * s])
    assert bodies.intersection_area(A, B) / s ** 2 == pytest.approx(0.25, rel=1e-12)
    assert symmetric_difference_volume(A, B) / s ** 2 == pytest.approx(1.5, rel=1e-12)


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


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
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


def test_mc_volume_sample_floor():
    with pytest.raises(ValueError):
        mc_volume(Ball(2, 1.0), 999, seed=0)


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
                lam ** 3 * volume(K), rel=1e-5)


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
    # gridded meridians: support-envelope reconstruction is grid-accurate
    for _ in range(3):
        K = bodies.random_revolution_body(3, rng, samples=2049)
        C = bodies.random_revolution_body(3, rng, samples=2049)
        M = minkowski_midpoint(K, C)
        for _ in range(32):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            lhs = support_function(M, w)
            rhs = 0.5 * (support_function(K, w) + support_function(C, w))
            assert abs(lhs - rhs) <= 1e-4 * max(abs(rhs), 1.0)


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
