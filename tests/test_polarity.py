import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from conftest import contains_points, hausdorff, support_function, unit_square
from stabgeo import bodies, polarity
from stabgeo.bodies import Ball, ConvexPolygon, revolution_ball, revolution_cylinder, volume
from stabgeo.errors import ConvergenceError, DegenerateBodyError, InvalidCenterError
from stabgeo.polarity import (
    bm_distance_to_ball,
    bs_deficit,
    cap_cut_body,
    polar,
    santalo_point,
    spherical_cap_volume,
)

LN_SQRT2 = 0.5 * math.log(2.0)
SQUARE_DEFICIT = math.pi ** 2 / 8.0 - 1.0  # |K| = 4, |K^o| = 2, kappa_2^2 = pi^2


# ---------------------------------------------------------------------------
# polar bodies
# ---------------------------------------------------------------------------


def test_polar_ball_self_dual():
    p = polar(Ball(4, 1.0))
    assert isinstance(p, Ball) and p.radius == 1.0
    p2 = polar(Ball(3, 2.0))
    assert p2.radius == pytest.approx(0.5, abs=1e-15)


def test_polar_revolution_ball_profile():
    b = revolution_ball(3, 1.0, 2049)
    p = polar(b)
    s = np.linspace(-1.0, 1.0, 2049)
    expect = np.sqrt(np.maximum(1.0 - s ** 2, 0.0))
    # interior matches the dual ball; the polar of the sample hull carries
    # genuine flat caps of height ~sqrt(grid step / 2) at the axis tips
    phi = p.radius_at(s)
    assert float(np.max(np.abs(phi - expect)[1:-1])) <= 2e-4
    assert abs(phi[0]) <= 0.03 and abs(phi[-1]) <= 0.03


def test_polar_square_by_hand():
    # half-plane intersection of <x, (+-1, +-1)> <= 1: vertices (+-1,0),(0,+-1)
    p = polar(unit_square())
    expected = {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
    got = {(round(x, 12), round(y, 12)) for x, y in p.vertices}
    assert got == expected
    assert volume(p) == pytest.approx(2.0, abs=1e-12)


def test_polar_involution_polygons():
    rng = np.random.default_rng(0)
    for _ in range(20):
        K = bodies.random_o_symmetric_polygon(rng)
        KK = polar(polar(K))
        diam = np.ptp(K.vertices)
        assert hausdorff(KK, K) <= 1e-9 * diam


def test_polar_involution_revolution():
    rng = np.random.default_rng(1)
    for _ in range(5):
        K = bodies.random_revolution_body(3, rng, samples=2049)
        KK = polar(polar(K))
        assert hausdorff(KK, K) <= 1e-12 * (2.0 * K.alpha)


def _polar_profile_bruteforce(t, r, s_grid):
    """Polar profile at s_grid by the exhaustive minimum over the samples (oracle)."""
    pos = r > 0
    tp = t[pos]
    rp = r[pos]
    out = np.full(len(s_grid), np.inf)
    chunk = max(1, int(2 ** 22 // max(len(tp), 1)))
    for j0 in range(0, len(s_grid), chunk):
        j1 = min(len(s_grid), j0 + chunk)
        vals = (1.0 - np.outer(s_grid[j0:j1], tp)) / rp[None, :]
        out[j0:j1] = vals.min(axis=1)
    return np.maximum(out, 0.0)


def test_polar_matches_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(20):
        K = bodies.random_revolution_body(3, rng, samples=801,
                                          amplitude=rng.uniform(0.0, 1.0))
        P = polar(K)
        brute = _polar_profile_bruteforce(K.t, K.radius, P.t)
        assert float(np.max(np.abs(P.radius - brute))) <= 1e-12


def test_polar_inclusion_reversal():
    rng = np.random.default_rng(3)
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    W = np.column_stack([np.cos(theta), np.sin(theta)])
    for _ in range(5):
        K = bodies.random_o_symmetric_polygon(rng)
        C = bodies.scale(K, 1.3)  # K subset C
        pK, pC = polar(K), polar(C)
        for w in W:
            assert support_function(pC, w) <= support_function(pK, w) + 1e-12


@pytest.mark.parametrize("e", [1e-3, 1e-6, 5e-12])
def test_flat_vertex_is_no_corner(e):
    # a vertex on the square's top edge would give the polar two equal
    # vertices and the Santalo search a flat direction
    K = ConvexPolygon(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [1.0 - e, 1.0],
                                [-1.0, 1.0]]))
    assert len(K.vertices) == 4 and K.o_symmetric
    assert volume(polar(K)) == 2.0
    res = santalo_point(K)
    assert res.point.tolist() == [0.0, 0.0]
    assert res.bs_deficit == SQUARE_DEFICIT


def test_polar_center_outside_rejected():
    with pytest.raises(InvalidCenterError):
        polar(unit_square(), z=[2.0, 0.0])
    with pytest.raises(InvalidCenterError):
        polar(unit_square(), z=[1.0, 0.0])  # boundary


# ---------------------------------------------------------------------------
# Santalo point
# ---------------------------------------------------------------------------


def test_santalo_o_symmetric_returns_origin():
    res = santalo_point(revolution_ball(3, 1.0, 513))
    assert np.allclose(res.point, 0.0)
    res2 = santalo_point(unit_square())
    assert np.allclose(res2.point, 0.0)
    assert res2.bs_deficit == pytest.approx(SQUARE_DEFICIT, abs=1e-12)


def test_santalo_equilateral_triangle_centroid():
    ang = np.array([0.5, 0.5 + 2.0 / 3.0, 0.5 + 4.0 / 3.0]) * math.pi
    V = np.column_stack([np.cos(ang), np.sin(ang)]) + np.array([0.3, -0.2])
    K = ConvexPolygon(V)
    res = santalo_point(K)
    centroid = bodies.polygon_centroid(V)
    diam = polarity._polygon_diameter(K)
    assert np.linalg.norm(res.point - centroid) <= 1e-6 * diam


def _grid_search_oracle(K, n_grid=200):
    """Brute-force Santalo oracle: evaluate |K^z| on an n_grid x n_grid sweep
    of interior points, then sharpen the arg-min with one quadratic fit on
    the 3x3 neighbourhood (plain grid search stops at half a cell)."""
    V = K.vertices
    lo = V.min(axis=0)
    hi = V.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n_grid + 2)[1:-1]
    ys = np.linspace(lo[1], hi[1], n_grid + 2)[1:-1]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = np.column_stack([X.ravel(), Y.ravel()])
    inside = contains_points(K, Z)
    # shrink towards the centroid slightly so every candidate is strictly interior
    c = bodies.polygon_centroid(V)
    Z = c + (Z[inside] - c) * (1.0 - 1e-9)
    rel = V[None, :, :] - Z[:, None, :]
    a = rel
    b = np.roll(rel, -1, axis=1)
    det = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    ux = (b[..., 1] - a[..., 1]) / det
    uy = (a[..., 0] - b[..., 0]) / det
    area = 0.5 * np.abs(np.sum(ux * np.roll(uy, -1, axis=1)
                               - np.roll(ux, -1, axis=1) * uy, axis=1))
    k = int(np.argmin(area))
    z0 = Z[k]
    # quadratic refinement on the surrounding stencil
    hstep = np.array([xs[1] - xs[0], ys[1] - ys[0]])
    pts = []
    vals = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            z = z0 + hstep * np.array([dx, dy])
            if not contains_points(K, z[None, :])[0]:
                continue
            pts.append(z)
            vals.append(volume(polar(K, z)))
    P = np.array(pts) - z0
    A = np.column_stack([np.ones(len(P)), P[:, 0], P[:, 1], P[:, 0] ** 2,
                         P[:, 0] * P[:, 1], P[:, 1] ** 2])
    coef, *_ = np.linalg.lstsq(A, np.array(vals), rcond=None)
    H = np.array([[2.0 * coef[3], coef[4]], [coef[4], 2.0 * coef[5]]])
    gvec = np.array([coef[1], coef[2]])
    try:
        step = np.linalg.solve(H, -gvec)
    except np.linalg.LinAlgError:
        step = np.zeros(2)
    if np.linalg.norm(step) > np.linalg.norm(hstep):
        step = np.zeros(2)
    return z0 + step


def test_santalo_scalene_triangle_vs_grid_oracle():
    K = ConvexPolygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 2.0]]))
    res = santalo_point(K)
    diam = polarity._polygon_diameter(K)
    # optimality certificate
    resid = np.linalg.norm(bodies.polygon_centroid(polar(K, res.point).vertices)
                           - res.point)
    assert resid <= 1e-6 * diam
    z_oracle = _grid_search_oracle(K)
    assert np.linalg.norm(res.point - z_oracle) <= 1e-3 * diam


TRIANGLE_DEFICIT = 4.0 * math.pi ** 2 / 27.0 - 1.0  # |K| |K^c| = 27/4 at the centroid


@pytest.mark.parametrize("offset", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("tri", [[[0.0, 0.0], [4.0, 0.0], [0.0, 2.0]],
                                 [[0.0, 0.0], [1.0, 0.0], [3.0, 0.5]]],
                         ids=["right", "obtuse"])
def test_santalo_triangle_closed_form(tri, scale, offset):
    # every triangle is affinely regular: its Santalo point is its centroid
    # and its deficit is 4 pi^2 / 27 - 1, wherever it sits and at any size
    V = np.asarray(tri) * scale
    diam = float(np.max(np.linalg.norm(V[:, None] - V[None], axis=2)))
    V = V + offset * diam * np.array([0.6, -0.8])
    res = santalo_point(ConvexPolygon(V))
    centroid = V[0] + (V - V[0]).mean(axis=0)
    assert res.bs_deficit == pytest.approx(TRIANGLE_DEFICIT, abs=1e-12)
    assert np.linalg.norm(res.point - centroid) <= 1e-12 * diam


def _multistart_santalo(K):
    """The Nelder-Mead multistart search the Newton iteration replaced
    (oracle): five starts at and around the centroid, then refinement until
    the centroid certificate holds to 1e-6 diameters."""
    diam = polarity._polygon_diameter(K)

    def objective(z):
        try:
            return volume(polar(K, z))
        except InvalidCenterError:
            return np.inf

    c0 = bodies.polygon_centroid(K.vertices)
    starts = [c0] + [c0 + 0.05 * diam * np.asarray(d, float)
                     for d in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    best = None
    for s in starts:
        if not np.isfinite(objective(s)):
            continue
        res = minimize(objective, s, method="Nelder-Mead",
                       options=dict(xatol=1e-10 * diam, fatol=1e-14, maxiter=4000))
        if best is None or res.fun < best.fun:
            best = res
    z = best.x
    for _ in range(4):
        resid = np.linalg.norm(bodies.polygon_centroid(polar(K, z).vertices) - z)
        if resid <= 1e-6 * diam:
            return z
        z = minimize(objective, z, method="Nelder-Mead",
                     options=dict(xatol=1e-12 * diam, fatol=1e-16, maxiter=4000)).x
    raise AssertionError("the multistart oracle did not converge")


def test_santalo_matches_multistart_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        K = bodies.random_polygon(rng)
        diam = polarity._polygon_diameter(K)
        res = santalo_point(K)
        z = _multistart_santalo(K)
        assert np.linalg.norm(res.point - z) <= 1e-8 * diam
        oracle_deficit = math.pi ** 2 / (volume(K) * volume(polar(K, z))) - 1.0
        assert res.bs_deficit == pytest.approx(oracle_deficit, abs=1e-12)
        resid = np.linalg.norm(bodies.polygon_centroid(
            polarity._polar_vertices(K.vertices, res.point)))
        assert resid <= 1e-10 * diam


def test_santalo_certificate_at_rounding_level():
    # the last Newton steps change |K^z| by less than its rounding, so they
    # must be taken on the predicted decrease, not on a comparison of areas
    rng = np.random.default_rng(0)
    for _ in range(300):
        K = bodies.random_polygon(rng, points=int(rng.integers(3, 40)))
        z = santalo_point(K).point
        diam = polarity._polygon_diameter(K)
        c = bodies.polygon_centroid(polarity._polar_vertices(K.vertices, z))
        assert diam * np.linalg.norm(c) <= 1e-11


def test_polygon_diameter_in_linear_memory():
    # the blocks hold the same norms as the all-pairs table, so the maximum
    # is the same bit for bit
    for n in (3, 257, 301, 1001):
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        K = ConvexPolygon(np.column_stack([2.0 * np.cos(theta) + 0.3, np.sin(theta)]))
        V = K.vertices
        assert polarity._polygon_diameter(K) == float(
            np.max(np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2)))
    # a general 2001-vertex polygon: the all-pairs table alone is 64 MB
    theta = np.linspace(0.0, 2.0 * np.pi, 2001, endpoint=False)
    K = ConvexPolygon(np.column_stack([2.0 * np.cos(theta) + 0.3, np.sin(theta)]))
    tracemalloc.start()
    try:
        polarity._polygon_diameter(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


# ---------------------------------------------------------------------------
# volume-product deficit
# ---------------------------------------------------------------------------


def test_bs_deficit_ball_equality():
    assert abs(bs_deficit(Ball(3, 1.0)).bs_deficit) <= 1e-12
    assert abs(bs_deficit(revolution_ball(3, 1.0, 2049)).bs_deficit) <= 1e-6


def test_bs_deficit_square():
    assert bs_deficit(unit_square()).bs_deficit == pytest.approx(SQUARE_DEFICIT, abs=1e-12)


def test_bs_deficit_cap_family_monotone():
    caps = np.geomspace(1e-3, 3e-2, 5)[::-1]  # decreasing cap volume
    vals = [bs_deficit(cap_cut_body(3, c, samples=8193)).bs_deficit for c in caps]
    assert vals[0] > 0
    assert all(a > b > -1e-12 for a, b in zip(vals, vals[1:]))


def test_bs_direction_random_bodies():
    rng = np.random.default_rng(4)
    for _ in range(24):
        n = int(rng.integers(2, 6))
        K = bodies.random_revolution_body(n, rng, samples=2049,
                                          amplitude=rng.uniform(0.0, 1.0))
        assert bs_deficit(K).bs_deficit >= -1e-6
    for _ in range(12):
        K = bodies.random_o_symmetric_polygon(rng)
        assert bs_deficit(K).bs_deficit >= -1e-12


@pytest.mark.parametrize("samples", [3, 9, 129, 2049])
def test_bs_deficit_double_cone_is_exact(samples):
    # |K| = 2 pi / 3 and K^o is the cylinder [-1, 1] x B(1), |K^o| = 2 pi,
    # so the deficit is (4 pi / 3)^2 / (4 pi^2 / 3) - 1 = 1/3 at every size
    t = np.linspace(-1.0, 1.0, samples)
    K = bodies.RevolutionBody(3, t, 1.0 - np.abs(t))
    assert bs_deficit(K).bs_deficit == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_polar_of_double_cone_is_a_two_vertex_cylinder():
    t = np.linspace(-1.0, 1.0, 9)
    P = polar(bodies.RevolutionBody(3, t, 1.0 - np.abs(t)))
    assert P.t.tolist() == [-1.0, 1.0]
    assert P.radius.tolist() == pytest.approx([1.0, 1.0], rel=1e-15)
    assert volume(P) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert polar(P).t.tolist() == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("tilt", [1e-9, -1e-9])
def test_polar_of_a_nearly_even_flat_top(tilt):
    # the flat top spans t = 0 and tilts by rounding; its dual is the top
    # vertex of the polar and must be kept whichever way it tilts
    t = np.array([-1.0, -0.5, 0.5, 1.0])
    r = np.array([0.5, 1.0, 1.0 + tilt, 0.5])
    K = bodies.RevolutionBody(3, t, r)
    E = bodies.RevolutionBody(3, t, 0.5 * (r + r[::-1]))
    P, Q = polar(K), polar(E)
    nodes = np.union1d(P.t, Q.t)
    assert np.max(np.abs(P.radius_at(nodes) - Q.radius_at(nodes))) <= 1e-8
    assert P.radius_at(0.0) == pytest.approx(1.0, rel=1e-8)
    assert volume(P) == pytest.approx(volume(Q), rel=1e-8)
    assert bm_distance_to_ball(K) == pytest.approx(bm_distance_to_ball(E), rel=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bs_deficit_sampled_balls_are_nonnegative(n):
    # a sampled ball is inscribed in the ball, a different body, so its
    # exact deficit is positive and falls with the resolution
    vals = [bs_deficit(revolution_ball(n, 1.0, s)).bs_deficit for s in (17, 129, 2049)]
    assert vals[0] > vals[1] > vals[2] >= 0.0


def test_bs_deficit_random_bodies_are_nonnegative():
    # Blaschke-Santalo holds for the stored body itself at every resolution
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        K = bodies.random_revolution_body(n, rng, samples=int(rng.integers(3, 130)),
                                          amplitude=rng.uniform(0.0, 1.0))
        assert bs_deficit(K).bs_deficit >= 0.0


def test_volume_product_affine_invariance():
    rng = np.random.default_rng(5)
    for _ in range(5):
        K = bodies.random_revolution_body(3, rng, samples=1025)
        base = bs_deficit(K).volume_product
        for a, c in ((2.0, 0.5), (0.7, 1.9)):
            KT = bodies.RevolutionBody(3, K.t * a, K.radius * c)
            prod = bs_deficit(KT).volume_product
            assert prod == pytest.approx(base, rel=1e-8)


def test_section_inequality_body_times_polar():
    # phi(r) psi(s) <= 1 - r s for all grid pairs with r s < 1
    rng = np.random.default_rng(6)
    for _ in range(5):
        K = bodies.random_revolution_body(3, rng, samples=513)
        P = polar(K)
        rs = np.outer(K.t, P.t)
        prod = np.outer(K.radius, P.radius)
        mask = rs < 1.0
        assert float(np.max((prod - (1.0 - rs))[mask])) <= 1e-9


# ---------------------------------------------------------------------------
# Banach-Mazur distance
# ---------------------------------------------------------------------------


def test_bm_distance_ball():
    assert bm_distance_to_ball(Ball(3, 1.0)) == 0.0
    assert bm_distance_to_ball(revolution_ball(3, 1.0, 8193)) <= 1e-4


def test_bm_distance_cylinder():
    c = revolution_cylinder(3, 1.0, 1.0, samples=2049)
    assert bm_distance_to_ball(c) == pytest.approx(LN_SQRT2, abs=1e-4)


def test_bm_distance_john_bound():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        K = bodies.random_revolution_body(n, rng, samples=1025,
                                          amplitude=rng.uniform(0.0, 1.0))
        assert bm_distance_to_ball(K) <= math.log(n) + 1e-3


def _bm_distance_by_segments(K):
    """Oracle: ln(circumradius / inradius) of the transformed meridian from
    point-to-segment distances over the raw samples, minimized on a dense
    grid of the transform parameter and refined by a bounded search."""
    t, r = K.t, K.radius
    P = np.column_stack([t, r])
    A = np.vstack([P[:-1], [[t[0], 0.0], [t[-1], 0.0]]])
    B = np.vstack([P[1:], [[t[0], r[0]], [t[-1], r[-1]]]])

    def ratio(u):
        e = math.exp(u)
        a, b = A * [1.0 / e, e], B * [1.0 / e, e]
        d = b - a
        den = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
        s = np.clip(-np.einsum("ij,ij->i", a, d) / den, 0.0, 1.0)
        rin = float(np.min(np.hypot(*(a + s[:, None] * d).T)))
        rout = float(np.max(np.hypot(*np.vstack([a, b]).T)))
        return math.log(rout / rin)

    span = math.log(K.dim) + 1.5
    grid = np.linspace(-span, span, 801)
    vals = [ratio(u) for u in grid]
    k = int(np.argmin(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(ratio, bounds=(lo, hi), method="bounded",
                          options=dict(xatol=1e-12))
    return min(float(res.fun), vals[k])


def test_bm_distance_matches_segment_oracle():
    rng = np.random.default_rng(17)
    for _ in range(24):
        n = int(rng.integers(2, 6))
        samples = int(rng.choice([9, 17, 65, 257, 1025, 2049]))
        K = bodies.random_revolution_body(n, rng, samples=samples,
                                          amplitude=rng.uniform(0.0, 1.0))
        assert abs(bm_distance_to_ball(K) - _bm_distance_by_segments(K)) <= 5e-9


# ---------------------------------------------------------------------------
# cap-cut family
# ---------------------------------------------------------------------------


def test_cap_cut_zero_is_ball():
    # the stored body is the sample hull; its Hausdorff gap to the exact
    # ball is the pole-chord sagitta ~ 1/(2 (samples - 1))
    K = cap_cut_body(3, 0.0, samples=8193)
    assert hausdorff(K, Ball(3, 1.0)) <= 1e-4


def test_cap_cut_root_recovery():
    # closed-form 3-D cap volume pi c^2 (3 - c)/3 with c = 0.1
    c = 0.1
    eps = math.pi * c * c * (3.0 - c) / 3.0
    K = cap_cut_body(3, eps, samples=1025)
    assert K.alpha == pytest.approx(0.9, abs=1e-10)
    assert spherical_cap_volume(3, c) == pytest.approx(eps, rel=1e-12)


def test_cap_cut_bm_monotone_in_eps():
    grid = np.geomspace(1e-4, 3e-2, 6)
    vals = [bm_distance_to_ball(cap_cut_body(3, e, samples=8193)) for e in grid]
    assert vals[0] > 0
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("h", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0])
def test_spherical_cap_volume_thin_caps(h):
    # polynomial closed forms for odd n
    assert spherical_cap_volume(3, h) == pytest.approx(
        math.pi * h * h * (3.0 - h) / 3.0, rel=1e-12)
    assert spherical_cap_volume(5, h) == pytest.approx(
        0.5 * math.pi ** 2 * (4.0 * h ** 3 / 3.0 - h ** 4 + h ** 5 / 5.0), rel=1e-12)


def test_cap_cut_degenerate_rejected():
    with pytest.raises(DegenerateBodyError):
        cap_cut_body(3, bodies.unit_ball_volume(3) / 2.0)


def test_santalo_convergence_failure_carries_best(monkeypatch):
    # a nearly degenerate sliver still raises with the best iterate attached
    V = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 2.0]])
    K = ConvexPolygon(V)
    monkeypatch.setattr(polarity, "_CERTIFICATE_TOL", 1e-18)
    try:
        res = santalo_point(K)
    except ConvergenceError as e:
        assert e.best is not None
    else:
        # certificate may legitimately converge that far; then it must agree
        resid = np.linalg.norm(bodies.polygon_centroid(polar(K, res.point).vertices)
                               - res.point)
        assert resid <= 1e-18 * polarity._polygon_diameter(K)
