import math

import numpy as np
import pytest

from stabgeo import bodies
from stabgeo.bodies import Ball, ConvexPolygon, revolution_cylinder, volume
from stabgeo.errors import UnsupportedCombinationError
from stabgeo.fmp import fmp_bound_check, gamma_star, homothetic_distance, sigma_ratio

# frozen by direct evaluation of ((2 - 2^((n-1)/n))^(3/2) / (122 n^7))^2,
# cross-checked against a 30-digit mpmath evaluation
GAMMA_STAR_1 = 6.718624025799517e-05   # = 122^-2
GAMMA_STAR_2 = 8.242867841740335e-10
GAMMA_STAR_3 = 9.866590906471668e-13


def unit_square():
    return ConvexPolygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
                         o_symmetric=True)


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
    assert sigma_ratio(K, C) == sigma_ratio(C, K) == 8.0
    assert sigma_ratio(K, K) == 1.0


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
    cyl = revolution_cylinder(3, 1.0, math.sqrt(2.0 / 3.0), samples=2049)
    assert volume(cyl) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-9)
    A = homothetic_distance(Ball(3, 1.0), cyl)
    nK = bodies.as_revolution(bodies.scale(Ball(3, 1.0), volume(Ball(3, 1.0)) ** (-1 / 3)), 2049)
    nC = bodies.scale(cyl, volume(cyl) ** (-1 / 3))
    rng = np.random.default_rng(123)
    lo, hi = bodies.bounding_box(nC)
    lo2, hi2 = bodies.bounding_box(nK)
    lo, hi = np.minimum(lo, lo2), np.maximum(hi, hi2)
    n_samples = 10 ** 6
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    inK = bodies.contains_points(nK, pts)
    inC = bodies.contains_points(nC, pts)
    p = float(np.count_nonzero(inK ^ inC)) / n_samples
    box = float(np.prod(hi - lo))
    mc = box * p
    se = box * math.sqrt(p * (1 - p) / n_samples)
    assert abs(A - mc) <= 3.0 * se


def test_homothetic_translation_search_polygons():
    # shifted copies of the same polygon are homothetic: A = 0
    rng = np.random.default_rng(1)
    K = bodies.random_polygon(rng)
    C = bodies.translate_polygon(K, [0.7, -0.4])
    assert homothetic_distance(K, C) == pytest.approx(0.0, abs=1e-6)


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
