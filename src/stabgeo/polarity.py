"""Polar duality, the Santalo point and the volume-product deficit.

The polar of K with respect to an interior point z is
``K^z = {x : <x - z, y - z> <= 1 for all y in K}``.  For an o-symmetric body
of revolution with z = o the polar meridian is the 2-D polar of the meridian
(the supremum defining the polar reduces to the meridian plane), so polarity
stays inside the profile representation: the edges of the meridian's upper
hull map to the vertices of the polar profile.  Polygons use exact
half-plane intersection: each edge maps to one polar vertex.  The Santalo
point of a polygon is found by Newton's method on the closed-form area of
its polar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# nothing here calls minimize any more; the name stays a module attribute
# because perfbench's tracer patches polarity.minimize and its tests
# require every traced name to exist
from scipy.optimize import minimize, minimize_scalar  # noqa: F401
from scipy.special import betainc

from . import bodies
from .bodies import (
    Ball,
    BodyRef,
    ConvexPolygon,
    RevolutionBody,
    polygon_area,
    unit_ball_volume,
    volume,
)
from .errors import (
    ConvergenceError,
    DegenerateBodyError,
    InvalidCenterError,
    UnsupportedCombinationError,
)


@dataclass(frozen=True)
class SantaloResult:
    """Volume-product optimum of a body.

    ``bs_deficit`` is the smallest eps with (1 + eps) |K| |K^z| >= kappa_n^2,
    i.e. eps = kappa_n^2 / (|K| |K^z|) - 1; it is nonnegative up to
    quadrature noise and zero exactly for ellipsoids.
    """

    point: np.ndarray
    polar_volume: float
    volume_product: float
    bs_deficit: float


# ---------------------------------------------------------------------------
# polar bodies
# ---------------------------------------------------------------------------


def _polar_profile_bruteforce(t, r, s_grid):
    """Chunked exhaustive version of the polar-profile minimum (oracle)."""
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


def _polar_vertices(V: np.ndarray, z) -> np.ndarray:
    """Vertices of K^z - z for the polygon with ccw vertex cycle V.  Edge i,
    V_i -> V_{i+1}, lies on the line <n_i, x - z> = s_i with
    n_i = (E_i.y, -E_i.x), E_i = V_{i+1} - V_i and
    s_i = (V_i - z) x (V_{i+1} - z), and maps to the polar vertex n_i / s_i.
    Everything is computed from V - z, so it does not depend on where the
    polygon sits."""
    a = V - z
    b = np.roll(a, -1, axis=0)
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    scale = float(np.max(np.abs(a))) or 1.0
    if np.any(det <= 1e-12 * scale * scale):
        raise InvalidCenterError("polar center must lie strictly inside the body")
    return np.column_stack([(b[:, 1] - a[:, 1]) / det, (a[:, 0] - b[:, 0]) / det])


def polar(K: BodyRef, z=None) -> BodyRef:
    """Polar body K^z; z defaults to the origin."""
    if isinstance(K, Ball):
        if z is not None and float(np.linalg.norm(z)) > 1e-12 * K.radius:
            raise UnsupportedCombinationError(
                "off-center polars of balls are not representable; use a profile body"
            )
        return Ball(K.dim, 1.0 / K.radius)
    if isinstance(K, RevolutionBody):
        if z is not None and float(np.linalg.norm(z)) > 1e-12 * K.alpha:
            raise UnsupportedCombinationError(
                "polar of a revolution body is only supported about the origin"
            )
        # each upper meridian edge lies on a line <a, x> = 1 whose dual a is
        # a polar vertex; vertical end edges t = t_end give (1/t_end, 0)
        t, r = bodies.upper_hull(K.t, K.radius)
        cross = t[:-1] * r[1:] - t[1:] * r[:-1]
        s_v = np.diff(r) / cross
        psi_v = -np.diff(t) / cross
        if r[0] > 0:
            s_v, psi_v = np.append(1.0 / t[0], s_v), np.append(0.0, psi_v)
        if r[-1] > 0:
            s_v, psi_v = np.append(s_v, 1.0 / t[-1]), np.append(psi_v, 0.0)
        s = np.linspace(-1.0 / K.alpha, 1.0 / K.alpha, len(K.t))
        psi = np.interp(s, s_v, psi_v)
        return RevolutionBody(K.dim, s, 0.5 * (psi + psi[::-1]))
    if isinstance(K, ConvexPolygon):
        z = np.zeros(2) if z is None else np.asarray(z, dtype=float)
        W = _polar_vertices(K.vertices, z) + z
        scale = float(np.max(np.abs(K.vertices - z)))
        sym = K.o_symmetric and float(np.linalg.norm(z)) <= 1e-12 * scale
        return ConvexPolygon(W, o_symmetric=sym)
    raise UnsupportedCombinationError(f"polar: unsupported body {type(K).__name__}")


# ---------------------------------------------------------------------------
# Santalo point and volume-product deficit
# ---------------------------------------------------------------------------


def _polygon_diameter(K: ConvexPolygon) -> float:
    V = K.vertices
    D = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2)
    return float(np.max(D))


def _result_at(K: BodyRef, z) -> SantaloResult:
    if isinstance(K, ConvexPolygon):
        # both areas about z itself: shoelace sums over absolute coordinates
        # cancel when the polygon sits far from the origin
        vol = polygon_area(K.vertices - z)
        vol_polar = polygon_area(_polar_vertices(K.vertices, z))
    else:
        vol, vol_polar = volume(K), volume(polar(K))
    prod = vol * vol_polar
    deficit = unit_ball_volume(K.dim) ** 2 / prod - 1.0
    return SantaloResult(np.asarray(z, float), vol_polar, prod, deficit)


# Newton iterations allowed; from the centroid, random polygons and slivers
# of aspect 1e-5 take at most 5
_NEWTON_CAP = 50
# a step this short (in diameters) ends the search
_NEWTON_STEP_TOL = 1e-15
# below this predicted decrease (relative to |K^z|) rounding hides the change
# in |K^z|, so the full Newton step is taken without the descent test
_NEWTON_FLAT = 1e-12


def santalo_point(K: BodyRef, certificate_tol=1e-6) -> SantaloResult:
    """Minimize z -> |K^z| over the interior of K.

    O-symmetric bodies return z = o directly (the minimizer by symmetry).
    For a general polygon, edge i (V_i -> V_{i+1}) has the outward normal
    n_i = (E_i.y, -E_i.x), E_i = V_{i+1} - V_i, and c_i = V_i x V_{i+1};
    then s_i(z) = c_i - <n_i, z> > 0 inside K, the vertices of K^z - z
    are n_i / s_i (see ``_polar_vertices``) and

        |K^z| = 1/2 sum_i (n_i x n_{i+1}) w_i w_{i+1},   w_i = 1 / s_i,

    a strictly convex function whose gradient and 2x2 Hessian come from
    the same w_i.  Damped Newton starts at the centroid, in coordinates
    centred there and scaled by the diameter; each step is halved until
    every s_i stays positive and |K^z| does not increase (a step whose
    predicted decrease rounding cannot resolve is taken whole), and the
    search stops on a step of at most 1e-15 diameters.  The result must
    satisfy the optimality certificate
    |centroid(K^z) - z| <= certificate_tol * diam (Meyer-Pajor: the
    minimizer is the one z that is the centroid of K^z), measured in those
    unit-diameter coordinates: K^z scales inversely to K, so in the given
    units the residual is |centroid(K^z) - z| * diam.  Otherwise
    ``ConvergenceError`` carries the last iterate.
    """
    if bodies.is_o_symmetric(K):
        return _result_at(K, np.zeros(K.dim))
    if not isinstance(K, ConvexPolygon):
        raise UnsupportedCombinationError(
            "santalo_point needs a polygon or an o-symmetric body"
        )
    V = K.vertices
    diam = _polygon_diameter(K)
    c0 = V[0] + bodies.polygon_centroid(V - V[0])
    P = (V - c0) / diam
    Q = np.roll(P, -1, axis=0)
    n = np.column_stack([Q[:, 1] - P[:, 1], P[:, 0] - Q[:, 0]])
    n_next = np.roll(n, -1, axis=0)
    c = P[:, 0] * Q[:, 1] - Q[:, 0] * P[:, 1]
    a = n[:, 0] * n_next[:, 1] - n[:, 1] * n_next[:, 0]
    a_prev = np.roll(a, 1)

    def weights(z):
        s = c - n @ z
        return 1.0 / s if np.all(s > 0.0) else None

    def area(w):
        return 0.5 * float(np.sum(a * w * np.roll(w, -1)))

    z = np.zeros(2)
    w = weights(z)
    f = area(w)
    for _ in range(_NEWTON_CAP):
        w_next = np.roll(w, -1)
        q = 0.5 * w * w * (a * w_next + a_prev * np.roll(w, 1))
        grad = q @ n
        cross = (n.T * (0.5 * a * (w * w_next) ** 2)) @ n_next
        hess = (n.T * (2.0 * w * q)) @ n + cross + cross.T
        step = -np.linalg.solve(hess, grad)
        flat = -float(grad @ step) <= _NEWTON_FLAT * f
        while float(np.hypot(*step)) > _NEWTON_STEP_TOL:
            w_new = weights(z + step)
            if w_new is not None:
                f_new = area(w_new)
                if flat or f_new <= f:
                    break
            step = 0.5 * step
        else:
            break
        z, w, f = z + step, w_new, f_new
    else:
        raise ConvergenceError(
            f"Santalo search took {_NEWTON_CAP} Newton steps", best=c0 + diam * z
        )
    z = c0 + diam * z
    resid = diam * float(np.linalg.norm(bodies.polygon_centroid(_polar_vertices(V, z))))
    if resid > certificate_tol:
        raise ConvergenceError(
            f"Santalo certificate residual {resid:.3g} above tolerance", best=z
        )
    return _result_at(K, z)


def bs_deficit(K: BodyRef) -> SantaloResult:
    """Volume-product deficit at the Santalo point (see SantaloResult)."""
    return santalo_point(K)


# ---------------------------------------------------------------------------
# Banach-Mazur distance to the ball (revolution-preserving transforms)
# ---------------------------------------------------------------------------


def bm_distance_to_ball(K: BodyRef) -> float:
    """Banach-Mazur distance ln(R/r) to the ball, minimized over the
    revolution-preserving transform class (axis scaling x cross-section
    scaling).  For o-symmetric bodies the sandwiching is centred at o, so
    the distance is the log circum/in-radius ratio of the transformed
    meridian polygon; after scale normalization one parameter u remains,
    the map (t, r) -> (t e^-u, r e^u).  It has determinant 1, so each
    meridian edge keeps its cross product c, and on the upper-hull vertices
    (t_k, r_k) and edges (dt_j, dr_j, c_j)

        R(u)^2   = max_k  t_k^2 e^-2u + r_k^2 e^2u
        1/r(u)^2 = max_j (dt_j^2 e^-2u + dr_j^2 e^2u) / c_j^2

    (the polygon is convex and contains o, so its inradius about o is the
    distance to the nearest edge line).  Both are maxima of log-convex
    terms, so ln(R/r) is convex in u and one bounded scalar search finds
    its global minimum.
    """
    if isinstance(K, Ball):
        return 0.0
    if not isinstance(K, RevolutionBody):
        raise UnsupportedCombinationError("bm_distance_to_ball needs a body of revolution")
    t, r = bodies.upper_hull(K.t, K.radius)
    dt, dr = np.diff(t), np.diff(r)
    c2 = (t[:-1] * r[1:] - t[1:] * r[:-1]) ** 2
    # the vertical end edges t = +-alpha (distance alpha e^-u); when r_end = 0
    # the term is the distance to a boundary point, which never sets the max
    edge_a = np.append(dt * dt / c2, 0.0)
    edge_b = np.append(dr * dr / c2, 1.0 / (K.alpha * K.alpha))
    t2, r2 = t * t, r * r

    def ratio(u):
        w = math.exp(2.0 * u)
        out2 = np.max(t2 / w + r2 * w)
        inv_in2 = np.max(edge_a / w + edge_b * w)
        return 0.5 * math.log(out2 * inv_in2)

    span = math.log(K.dim) + 1.5
    res = minimize_scalar(ratio, bounds=(-span, span), method="bounded",
                          options=dict(xatol=1e-12))
    return float(res.fun)


# ---------------------------------------------------------------------------
# cap-cut extremal family
# ---------------------------------------------------------------------------


def spherical_cap_volume(n: int, h: float) -> float:
    """Volume of the cap of the unit n-ball of height h (0 <= h <= 1),
    kappa_{n-1} * int_{1-h}^{1} (1 - t^2)^((n-1)/2) dt, in closed form via
    the regularized incomplete beta function."""
    if not 0.0 <= h <= 1.0:
        raise ValueError("cap height must lie in [0, 1]")
    p = (n + 1) / 2.0
    x = 1.0 - h
    half_beta = 0.5 * math.exp(math.lgamma(0.5) + math.lgamma(p) - math.lgamma(0.5 + p))
    integral = half_beta * (1.0 - betainc(0.5, p, x * x))
    return unit_ball_volume(n - 1) * integral


def cap_cut_body(n: int, eps: float,
                 samples=bodies.DEFAULT_PROFILE_SAMPLES) -> RevolutionBody:
    """Unit ball with two opposite caps of volume eps removed:
    B^n intersected with {|<x, u>| <= 1 - h}, h solving cap volume = eps."""
    if eps < 0:
        raise ValueError("cap volume must be nonnegative")
    if eps >= unit_ball_volume(n) / 2.0:
        raise DegenerateBodyError("cap volume this large degenerates the body")
    if eps == 0.0:
        return bodies.revolution_ball(n, 1.0, samples)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if spherical_cap_volume(n, mid) < eps:
            lo = mid
        else:
            hi = mid
    h = 0.5 * (lo + hi)
    return bodies.revolution_from_function(
        n, lambda u: np.sqrt(np.maximum(1.0 - u * u, 0.0)), 1.0 - h, samples
    )
