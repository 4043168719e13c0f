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


# perfbench's tracer patches minimize and minimize_scalar here by name, so
# these shims stay until ROADMAP item 1 drops that.  Nothing in the package
# calls them; they are its only import of scipy, a test dependency, made
# when something asks for them (ImportError where scipy is not installed)
def __getattr__(name):
    if name in ("minimize", "minimize_scalar"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SantaloResult:
    """Volume-product optimum of a body.

    ``bs_deficit`` is the smallest eps with (1 + eps) |K| |K^z| >= kappa_n^2,
    i.e. eps = kappa_n^2 / (|K| |K^z|) - 1; both volumes are exact for the
    stored bodies, so it is nonnegative up to rounding at every resolution,
    and zero exactly for ellipsoids.
    """

    point: np.ndarray
    polar_volume: float
    volume_product: float
    bs_deficit: float


# ---------------------------------------------------------------------------
# polar bodies
# ---------------------------------------------------------------------------


def _polar_vertices(V: np.ndarray, z) -> np.ndarray:
    """Vertices of K^z - z for the polygon with ccw vertex cycle V.  Edge i,
    V_i -> V_{i+1}, lies on the line <n_i, x - z> = s_i with
    n_i = (E_i.y, -E_i.x), E_i = V_{i+1} - V_i and
    s_i = (V_i - z) x (V_{i+1} - z), and maps to the polar vertex n_i / s_i.
    Everything is computed from V - z, so it does not depend on where the
    polygon sits."""
    a = V - z
    b = bodies._next_vertices(a)
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
        # a polar vertex, the vertical end edge t = alpha gives (1/alpha, 0).
        # The right half of the polar comes from the edges right of the axis
        # and the one across it, whose dual is the top vertex (its s is
        # clamped at 0 against rounding); the hull of these duals puts them
        # in order, and mirroring it makes the polar exactly even
        t, r = bodies.upper_hull(K.t, K.radius)
        i = int(np.searchsorted(t, 0.0, side="right")) - 1
        dt, dr = np.diff(t[i:]), np.diff(r[i:])
        cross = t[i:-1] * dr - r[i:-1] * dt  # accurate for short edges too
        s, psi = np.maximum(dr / cross, 0.0), -dt / cross
        if r[-1] > 0:
            s, psi = np.append(s, 1.0 / t[-1]), np.append(psi, 0.0)
        s, psi = bodies.upper_hull(s, psi)
        left = s[::-1] > 0.0
        return RevolutionBody(K.dim, bodies._handover(np.concatenate((-s[::-1][left], s))),
                              np.concatenate((psi[::-1][left], psi)))
    if isinstance(K, ConvexPolygon):
        z = np.zeros(2) if z is None else np.asarray(z, dtype=float)
        return ConvexPolygon(bodies._handover(_polar_vertices(K.vertices, z) + z))
    raise UnsupportedCombinationError(f"polar: unsupported body {type(K).__name__}")


# ---------------------------------------------------------------------------
# Santalo point and volume-product deficit
# ---------------------------------------------------------------------------


def _polygon_diameter(K: ConvexPolygon) -> float:
    """Largest vertex distance, its rows in blocks of at most 2^16 pairs, so
    memory stays linear in the vertex count."""
    V = K.vertices
    rows = max(1, 2 ** 16 // len(V))
    return float(np.max([np.max(np.linalg.norm(V[k:k + rows, None] - V, axis=2))
                         for k in range(0, len(V), rows)]))


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
# the Meyer-Pajor certificate |centroid(K^z) - z| allowed, in diameters
_CERTIFICATE_TOL = 1e-6


def santalo_point(K: BodyRef) -> SantaloResult:
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
    |centroid(K^z) - z| <= 1e-6 * diam (Meyer-Pajor: the
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
    c0 = bodies.polygon_centroid(V)
    P = (V - c0) / diam
    Q = bodies._next_vertices(P)
    n = np.column_stack([Q[:, 1] - P[:, 1], P[:, 0] - Q[:, 0]])
    n_next = bodies._next_vertices(n)
    c = P[:, 0] * Q[:, 1] - Q[:, 0] * P[:, 1]
    a = n[:, 0] * n_next[:, 1] - n[:, 1] * n_next[:, 0]
    a_prev = bodies._prev_vertices(a)

    def weights(z):
        s = c - n @ z
        return 1.0 / s if np.all(s > 0.0) else None

    def area(w):
        return 0.5 * float(np.sum(a * w * bodies._next_vertices(w)))

    z = np.zeros(2)
    w = weights(z)
    f = area(w)
    for _ in range(_NEWTON_CAP):
        w_next = bodies._next_vertices(w)
        q = 0.5 * w * w * (a * w_next + a_prev * bodies._prev_vertices(w))
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
    if resid > _CERTIFICATE_TOL:
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
    the map (t, r) -> (t e^-u, r e^u).  The inradius about o is 1 over the
    circumradius of the polar, whose vertices (s, psi) map to
    (s e^u, psi e^-u), so on the vertices of K and of its polar

        R(u)^2   = max_k  t_k^2 e^-2u + r_k^2 e^2u
        1/r(u)^2 = max_j  s_j^2 e^2u + psi_j^2 e^-2u

    Both are maxima of log-convex terms, so ln(R/r) is convex in u and one
    bounded scalar search finds its global minimum.
    """
    if isinstance(K, Ball):
        return 0.0
    if not isinstance(K, RevolutionBody):
        raise UnsupportedCombinationError("bm_distance_to_ball needs a body of revolution")
    P = polar(K)
    t2, r2, s2, psi2 = K.t * K.t, K.radius * K.radius, P.t * P.t, P.radius * P.radius

    def ratio(u):
        w = math.exp(2.0 * u)
        return 0.5 * math.log(np.max(t2 / w + r2 * w) * np.max(s2 * w + psi2 / w))

    span = math.log(K.dim) + 1.5
    return float(bodies.bounded_minimize(ratio, -span, span, 1e-12)[1])


# ---------------------------------------------------------------------------
# cap-cut extremal family
# ---------------------------------------------------------------------------


def spherical_cap_volume(n: int, h: float) -> float:
    """Volume of the cap of the unit n-ball of height h (0 <= h <= 1),
    kappa_{n-1} * int_{1-h}^{1} (1 - t^2)^m dt, m = (n - 1)/2.

    With x = h(2 - h), p = m + 1 and u = 1 - h that is kappa_{n-1}/2 times
    the incomplete beta function B_x(p, 1/2).  Its series
    B_x(a, b) = x^a (1 - x)^b / a * sum_k (a + b)_k / (a + 1)_k x^k
    (DLMF 8.17.8) has positive terms only, so it loses no relative accuracy
    on thin caps; its terms fall by a factor below x.  Past
    x = (p + 1)/(p + 5/2), where the cap holds more than 8% of the half
    ball, the cap is the half ball less the slab |t| <= u, summed the same
    way in u^2 = 1 - x: its terms fall from the first on, and the
    subtraction costs less than four bits."""
    if not 0.0 <= h <= 1.0:
        raise ValueError("cap height must lie in [0, 1]")
    p = (n + 1) / 2.0
    u = 1.0 - h
    x = h * (2.0 - h)
    front = unit_ball_volume(n - 1) * u * x ** p
    if x <= (p + 1.0) / (p + 2.5):
        return front * _positive_series(p + 0.5, p + 1.0, x) / (2.0 * p)
    return unit_ball_volume(n) / 2.0 - front * _positive_series(p + 0.5, 1.5, u * u)


def _positive_series(a: float, c: float, y: float) -> float:
    """sum_k (a)_k / (c)_k y^k for 0 <= y < 1, to the last term that still
    changes the sum."""
    total = term = 1.0
    k = 0
    while True:
        term *= (a + k) / (c + k) * y
        if total + term == total:
            return total
        total += term
        k += 1


def cap_cut_body(n: int, eps: float,
                 samples=bodies.DEFAULT_PROFILE_SAMPLES) -> RevolutionBody:
    """Unit ball with two opposite caps of volume eps removed:
    B^n intersected with {|<x, u>| <= 1 - h}, h solving cap volume = eps
    (``_cap_height``)."""
    if not eps >= 0:
        raise ValueError(f"cap volume must be nonnegative, got {eps}")
    if eps >= unit_ball_volume(n) / 2.0:
        raise DegenerateBodyError("cap volume this large degenerates the body")
    return bodies.revolution_from_function(
        n, lambda u: np.sqrt(np.maximum(1.0 - u * u, 0.0)), 1.0 - _cap_height(n, eps), samples
    )


def _cap_height(n: int, eps: float) -> float:
    """The cap height h in [0, 1] of cap volume eps, by Newton's method.

    The cap volume is convex and increasing in h, with derivative
    kappa_{n-1} (h(2 - h))^m, m = (n - 1)/2, so every Newton iterate lies
    at or above h and the iterates after the first fall to h.  The first
    starts from the root of the leading term kappa_{n-1} (2h)^m h / (m + 1)
    of the cap volume's expansion in h, and the search ends when a step no
    longer moves the height down."""
    if eps == 0.0:
        return 0.0
    m = (n - 1) / 2.0
    kappa = unit_ball_volume(n - 1)

    def newton(h):
        return min(h - (spherical_cap_volume(n, h) - eps) / (kappa * (h * (2.0 - h)) ** m), 1.0)

    h = newton(min(((m + 1.0) * eps / (kappa * 2.0 ** m)) ** (1.0 / (m + 1.0)), 1.0))
    for _ in range(64):
        lower = newton(h)
        if not lower < h:
            break
        h = lower
    return h
