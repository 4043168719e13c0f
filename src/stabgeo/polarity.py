"""Polar duality, Santalo-point optimization and the volume-product deficit.

The polar of K with respect to an interior point z is
``K^z = {x : <x - z, y - z> <= 1 for all y in K}``.  For an o-symmetric body
of revolution with z = o the polar meridian is the 2-D polar of the meridian
(the supremum defining the polar reduces to the meridian plane), so polarity
stays inside the profile representation: the edges of the meridian's upper
hull map to the vertices of the polar profile.  Polygons use exact
half-plane intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import betainc

from . import bodies
from .bodies import (
    Ball,
    BodyRef,
    ConvexPolygon,
    RevolutionBody,
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
        V = K.vertices
        scale = float(np.max(np.abs(V - z))) or 1.0
        rel = V - z
        E = np.roll(V, -1, axis=0) - V
        cross = E[:, 0] * (z[1] - V[:, 1]) - E[:, 1] * (z[0] - V[:, 0])
        if np.any(cross <= 1e-12 * scale * scale):
            raise InvalidCenterError("polar center must lie strictly inside the body")
        a = rel
        b = np.roll(rel, -1, axis=0)
        det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        ux = (b[:, 1] - a[:, 1]) / det
        uy = (a[:, 0] - b[:, 0]) / det
        W = np.column_stack([ux, uy]) + z
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
    P = polar(K, None if np.allclose(z, 0.0) else z)
    vol_polar = volume(P)
    prod = volume(K) * vol_polar
    n = K.dim
    deficit = unit_ball_volume(n) ** 2 / prod - 1.0
    return SantaloResult(np.asarray(z, float), vol_polar, prod, deficit)


def santalo_point(K: BodyRef, certificate_tol=1e-6) -> SantaloResult:
    """Minimize z -> |K^z| over the interior of K.

    O-symmetric bodies return z = o directly (the minimizer by symmetry).
    General polygons run a Nelder-Mead descent with multistart; the result
    must satisfy the optimality certificate that z is the centroid of K^z.
    """
    if bodies.is_o_symmetric(K):
        dim = K.dim
        return _result_at(K, np.zeros(dim))
    if not isinstance(K, ConvexPolygon):
        raise UnsupportedCombinationError(
            "santalo_point needs a polygon or an o-symmetric body"
        )
    diam = _polygon_diameter(K)

    def objective(z):
        try:
            return volume(polar(K, z))
        except InvalidCenterError:
            return np.inf

    c0 = bodies.polygon_centroid(K.vertices)
    starts = [c0]
    for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        starts.append(c0 + 0.05 * diam * np.asarray(d, float))
    best = None
    for s in starts:
        if not np.isfinite(objective(s)):
            continue
        res = minimize(
            objective,
            s,
            method="Nelder-Mead",
            options=dict(xatol=1e-10 * diam, fatol=1e-14, maxiter=4000),
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise ConvergenceError("no feasible start for the Santalo search", best=c0)
    z = best.x
    for _ in range(4):
        resid = float(np.linalg.norm(bodies.polygon_centroid(polar(K, z).vertices) - z))
        if resid <= certificate_tol * diam:
            return _result_at(K, z)
        res = minimize(
            objective,
            z,
            method="Nelder-Mead",
            options=dict(xatol=1e-12 * diam, fatol=1e-16, maxiter=4000),
        )
        z = res.x
    raise ConvergenceError(
        f"Santalo certificate residual {resid:.3g} above tolerance", best=z
    )


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
