import math

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import bounding_box, contains_points, translate_polygon, unit_square
from stabgeo import bodies, fmp
from stabgeo.bodies import Ball, ConvexPolygon, revolution_ball, revolution_cylinder, volume
from stabgeo.errors import ConvergenceError, UnsupportedCombinationError
from stabgeo.fmp import fmp_bound_check, gamma_star, homothetic_distance

# frozen by direct evaluation of ((2 - 2^((n-1)/n))^(3/2) / (122 n^7))^2,
# cross-checked against a 30-digit mpmath evaluation
GAMMA_STAR_1 = 6.718624025799517e-05   # = 122^-2
GAMMA_STAR_2 = 8.242867841740335e-10
GAMMA_STAR_3 = 9.866590906471668e-13


def test_gamma_star_frozen_values():
    assert gamma_star(1) == pytest.approx(GAMMA_STAR_1, rel=1e-12)
    assert gamma_star(1) == pytest.approx(122.0 ** -2, rel=1e-15)
    assert gamma_star(2) == pytest.approx(GAMMA_STAR_2, rel=1e-12)
    assert gamma_star(3) == pytest.approx(GAMMA_STAR_3, rel=1e-12)
    # six significant digits
    assert f"{gamma_star(2):.5e}" == "8.24287e-10"
    assert f"{gamma_star(3):.5e}" == "9.86659e-13"


def test_gamma_star_invalid_dim():
    with pytest.raises(ValueError):
        gamma_star(0)


def test_sigma_symmetry_and_floor():
    K, C = Ball(3, 1.0), Ball(3, 2.0)
    assert fmp_bound_check(K, C).sigma == fmp_bound_check(C, K).sigma == 8.0
    assert fmp_bound_check(K, K).sigma == 1.0


# ---------------------------------------------------------------------------
# homothetic distance
# ---------------------------------------------------------------------------


def test_homothetic_self_and_homothety():
    K = unit_square()
    assert homothetic_distance(K, K) == pytest.approx(0.0, abs=1e-12)
    assert homothetic_distance(Ball(3, 1.0), Ball(3, 2.5)) == pytest.approx(0.0, abs=1e-9)


def test_homothetic_symmetry_and_scale_invariance():
    rng = np.random.default_rng(0)
    K = bodies.random_revolution_body(3, rng, samples=1025)
    C = bodies.random_revolution_body(3, rng, samples=1025)
    a = homothetic_distance(K, C)
    assert homothetic_distance(C, K) == pytest.approx(a, rel=1e-9)
    for lam, mu in ((0.5, 3.0), (3.0, 0.5)):
        got = homothetic_distance(bodies.scale(K, lam), bodies.scale(C, mu))
        assert got == pytest.approx(a, rel=1e-7)


def test_homothetic_ball_vs_cylinder_mc_crosscheck():
    # |B^ delta C^| on volume-normalized profiles, cross-checked by Monte
    # Carlo on the symmetric difference (points in exactly one body)
    ball = revolution_ball(3, 1.0, 2049)
    cyl = revolution_cylinder(3, 1.0, math.sqrt(2.0 / 3.0), samples=2049)
    assert volume(cyl) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-9)
    A = homothetic_distance(ball, cyl)
    nK = bodies.scale(ball, volume(ball) ** (-1 / 3))
    nC = bodies.scale(cyl, volume(cyl) ** (-1 / 3))
    rng = np.random.default_rng(123)
    lo, hi = bounding_box(nC)
    lo2, hi2 = bounding_box(nK)
    lo, hi = np.minimum(lo, lo2), np.maximum(hi, hi2)
    n_samples = 10 ** 6
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    inK = contains_points(nK, pts)
    inC = contains_points(nC, pts)
    p = float(np.count_nonzero(inK ^ inC)) / n_samples
    box = float(np.prod(hi - lo))
    mc = box * p
    se = box * math.sqrt(p * (1 - p) / n_samples)
    assert abs(A - mc) <= 3.0 * se


def test_homothetic_translation_search_polygons():
    # shifted copies of the same polygon are homothetic: A = 0
    rng = np.random.default_rng(1)
    K = bodies.random_polygon(rng)
    C = translate_polygon(K, [0.7, -0.4])
    assert homothetic_distance(K, C) == pytest.approx(0.0, abs=1e-6)


def _simplex_homothetic(K, C):
    """The Nelder-Mead translation search the Newton iteration replaced
    (oracle): one simplex seeded at the centroid difference of the
    volume-normalized polygons."""
    nK = bodies.scale(K, volume(K) ** -0.5)
    nC = bodies.scale(C, volume(C) ** -0.5)
    diam = max(np.ptp(nK.vertices), np.ptp(nC.vertices))

    def neg_overlap(x):
        return -bodies.intersection_area(nK, translate_polygon(nC, x))

    x0 = bodies.polygon_centroid(nK.vertices) - bodies.polygon_centroid(nC.vertices)
    res = minimize(neg_overlap, x0, method="Nelder-Mead",
                   options=dict(xatol=1e-8 * diam, fatol=1e-12, maxiter=2000))
    return 2.0 + 2.0 * float(res.fun)


def test_homothetic_matches_simplex_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        K = bodies.random_polygon(rng)
        C = bodies.random_polygon(rng)
        A, A_oracle = homothetic_distance(K, C), _simplex_homothetic(K, C)
        assert A <= A_oracle + 1e-12
        assert abs(A - A_oracle) <= 1e-9


_TRIANGLES = (np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 2.0]]),
              np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 2.0]]))


@pytest.mark.parametrize("T", _TRIANGLES)
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("offset", [0.0, 1.0, 1e3])
def test_homothetic_triangle_besicovitch(T, scale, offset):
    # |T cap (x - T)| is at most 2/3 |T|, with equality when the centroids
    # meet, so A(T, -T) = 2 - 4/3 = 2/3
    diam = np.ptp(T)
    V = scale * (T + offset * diam * np.array([0.6, 0.8]))
    A = homothetic_distance(ConvexPolygon(V), ConvexPolygon(-V))
    assert A == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("shift", [[0.7, -0.4], [1e-9, 3e-10], [40.0, 25.0]])
def test_homothetic_translated_copy_kinks_at_zero(shift):
    # every edge pair is parallel, so the overlap has a kink at its maximum
    rng = np.random.default_rng(1)
    for points in (3, 5, 12):
        K = bodies.random_polygon(rng, points=points)
        assert homothetic_distance(K, translate_polygon(K, shift)) <= 1e-12


def test_homothetic_crossed_rectangles_flat_maximum():
    # the overlap is the 0.5 x 0.5 crossing for every x in a square of
    # translations, so the maximum is flat and A = 2 - 2 * 0.25
    R = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.5], [0.0, 0.5]])
    K = ConvexPolygon(R + [3.0, 1.0])
    C = ConvexPolygon(R[:, ::-1][::-1] - [1.0, 2.0])
    assert homothetic_distance(K, C) == pytest.approx(1.5, abs=1e-12)


def test_homothetic_ridge_pairs_match_simplex_oracle():
    # pairs with parallel, same-facing edges: the overlap's gradient jumps
    # where such edges line up, and the maximum often sits on that ridge
    tri = ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
    tri2 = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    A, A_oracle = homothetic_distance(tri, tri2), _simplex_homothetic(tri, tri2)
    assert abs(A - A_oracle) <= 1e-9 and A <= A_oracle + 1e-12
    rng = np.random.default_rng(5)
    for _ in range(10):
        K = bodies.random_polygon(rng, points=8)
        V = np.delete(K.vertices, int(rng.integers(len(K.vertices))), axis=0)
        C = ConvexPolygon(V * rng.uniform(0.5, 2.0) + rng.normal(size=2))
        assert homothetic_distance(K, C) <= _simplex_homothetic(K, C) + 1e-12


@pytest.mark.parametrize("angle", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11])
def test_homothetic_nearly_parallel_edges(angle):
    # same-facing edges at a small angle: the overlap's curvature is about
    # 1/angle in a thin band where they cross, which the search must cut
    # into instead of creeping up to it
    rng = np.random.default_rng(6)
    c, s = math.cos(angle), math.sin(angle)
    for _ in range(8):
        K = bodies.random_polygon(rng, points=7)
        V = np.delete(K.vertices, int(rng.integers(len(K.vertices))), axis=0)
        C = ConvexPolygon(V * rng.uniform(0.6, 1.5) @ np.array([[c, s], [-s, c]])
                          + rng.normal(size=2))
        assert homothetic_distance(K, C) <= _simplex_homothetic(K, C) + 1e-12


@pytest.mark.parametrize("aspect", [1e-3, 1e-5, 1e-7])
def test_homothetic_slivers_match_simplex_oracle(aspect):
    # a sliver's overlap is nearly flat along its long axis and falls to 0
    # past its ends, where the slope of the overlap along a step is 0
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(4)
    for _ in range(5):
        K = bodies.random_polygon(rng)
        pts = rng.normal(size=(8, 2)) * [1.0, aspect] @ np.array([[0.6, 0.8], [-0.8, 0.6]])
        C = ConvexPolygon(pts[ConvexHull(pts).vertices])
        assert homothetic_distance(K, C) <= _simplex_homothetic(K, C) + 1e-11


def test_overlap_derivatives_match_central_differences():
    rng = np.random.default_rng(8)
    for _ in range(10):
        P = bodies.random_polygon(rng).vertices
        Q = bodies.random_polygon(rng).vertices
        x = rng.normal(size=2) * 0.3

        def g(z):
            return bodies.intersection_area(ConvexPolygon(P), ConvexPolygon(Q + z))

        grad, hess = fmp._overlap_derivatives(P, Q)(x)
        h, e = 1e-6, np.eye(2)
        fd = [(g(x + h * e[i]) - g(x - h * e[i])) / (2.0 * h) for i in range(2)]
        np.testing.assert_allclose(grad, fd, atol=1e-8)
        # g is piecewise quadratic, so second differences are exact up to
        # rounding inside a piece
        h = 1e-4
        fd2 = [[(g(x + h * (e[i] + e[j])) - g(x + h * (e[i] - e[j]))
                 - g(x - h * (e[i] - e[j])) + g(x - h * (e[i] + e[j]))) / (4.0 * h * h)
                for j in range(2)] for i in range(2)]
        np.testing.assert_allclose(hess, fd2, atol=1e-6)


def test_homothetic_step_budget_carries_best(monkeypatch):
    rng = np.random.default_rng(3)
    K, C = bodies.random_polygon(rng), bodies.random_polygon(rng)
    monkeypatch.setattr(fmp, "_NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError) as info:
        homothetic_distance(K, C)
    # best is a translation of the volume-normalized C that beats the start
    nK = bodies.scale(K, volume(K) ** -0.5)
    nC = bodies.scale(C, volume(C) ** -0.5)
    x0 = bodies.polygon_centroid(nK.vertices) - bodies.polygon_centroid(nC.vertices)
    best = info.value.best
    assert bodies.intersection_area(nK, translate_polygon(nC, best)) > \
        bodies.intersection_area(nK, translate_polygon(nC, x0))


# ---------------------------------------------------------------------------
# bound check
# ---------------------------------------------------------------------------


def test_fmp_equal_bodies_equality():
    for K in (Ball(3, 1.0), unit_square()):
        rep = fmp_bound_check(K, K)
        assert rep.sigma == 1.0
        assert rep.A == pytest.approx(0.0, abs=1e-9)
        assert rep.lhs_additive == pytest.approx(rep.rhs_additive, rel=1e-6)
        assert rep.lhs_product == pytest.approx(rep.rhs_product, rel=1e-6)


def test_fmp_homothetic_balls():
    rep = fmp_bound_check(Ball(3, 1.0), Ball(3, 2.0))
    assert rep.sigma == 8.0
    assert rep.A == pytest.approx(0.0, abs=1e-12)
    # additive form is an equality for homothets
    assert rep.lhs_additive == pytest.approx(rep.rhs_additive, rel=1e-12)
    # product form stays strict through the (sigma - 1)^2 term
    assert rep.lhs_product > rep.rhs_product
    assert rep.eta == pytest.approx((8.0 - 1.0) ** 2 / (32.0 * 3.0 * 64.0), rel=1e-12)


def test_fmp_direction_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(40):
        K = bodies.random_o_symmetric_polygon(rng)
        C = bodies.random_o_symmetric_polygon(rng)
        rep = fmp_bound_check(K, C)
        assert rep.lhs_additive >= rep.rhs_additive - 1e-9 * rep.lhs_additive
        assert rep.lhs_product >= rep.rhs_product - 1e-9 * rep.lhs_product
    for _ in range(10):
        n = int(rng.integers(2, 6))
        K = bodies.random_revolution_body(n, rng, samples=513)
        C = bodies.random_revolution_body(n, rng, samples=513)
        rep = fmp_bound_check(K, C)
        assert rep.lhs_additive >= rep.rhs_additive - 1e-9 * rep.lhs_additive
        assert rep.lhs_product >= rep.rhs_product - 1e-9 * rep.lhs_product
        # symmetric difference of volume-1 bodies
        assert rep.sigma >= 1.0 and 0.0 <= rep.A <= 2.0 + 1e-9


_BALL3, _BALL2 = Ball(3, 1.0), Ball(2, 1.0)
_PROFILE3, _PROFILE2 = revolution_ball(3, 1.0, 2049), revolution_ball(2, 1.0, 33)
_MIXED_PAIRS = {
    "ball-polygon": (_BALL2, unit_square()),
    # a Ball is not resampled to meet a profile: the 2049-sample ball is
    # 5.8e-6 smaller, which a Ball sampled at 2049 points would hide
    "ball-profile": (_BALL3, _PROFILE3),
    "planar-ball-profile": (_BALL2, _PROFILE2),
    "polygon-profile": (unit_square(), _PROFILE2),
    "polygon-profile3": (unit_square(), _PROFILE3),
    "ball-dims": (_BALL3, _BALL2),
    "profile-dims": (_PROFILE3, _PROFILE2),
}


@pytest.mark.parametrize("swap", [False, True], ids=["given", "swapped"])
@pytest.mark.parametrize("pair", _MIXED_PAIRS.values(), ids=_MIXED_PAIRS.keys())
@pytest.mark.parametrize("kernel", [bodies.minkowski_midpoint, bodies.symmetric_difference_volume,
                                    homothetic_distance, fmp_bound_check],
                         ids=lambda k: k.__name__)
def test_binary_kernels_refuse_mixed_kinds_and_dimensions(kernel, pair, swap):
    # the refusal names both operands, in order
    K, C = pair[::-1] if swap else pair
    names = f"{K.dim}-D {type(K).__name__} and a {C.dim}-D {type(C).__name__}"
    with pytest.raises(UnsupportedCombinationError, match=names):
        kernel(K, C)


def test_fmp_dimension_mismatch():
    with pytest.raises(UnsupportedCombinationError):
        fmp_bound_check(Ball(3, 1.0), Ball(2, 1.0))


def test_product_form_algebraic_bridge():
    # (1/2)(|K|^(1/n) + |C|^(1/n)) >= |K C|^(1/2n) [1 + (s-1)^2/(32 n^2 s^((4n-1)/2n))]
    for n in range(1, 11):
        for s in np.geomspace(1.0, 1e4, 41):
            lhs = 0.5 * (1.0 + s ** (1.0 / n))
            rhs = s ** (1.0 / (2.0 * n)) * (
                1.0 + (s - 1.0) ** 2 / (32.0 * n * n * s ** ((4.0 * n - 1.0) / (2.0 * n)))
            )
            assert lhs >= rhs - 1e-12 * lhs
