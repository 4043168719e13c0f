"""Convex-body representations and their basic functionals.

Three interchangeable representations are used throughout the package:

* ``Ball`` -- a Euclidean ball centred at the origin (any dimension),
* ``ConvexPolygon`` -- a planar convex body as a counterclockwise vertex cycle,
* ``RevolutionBody`` -- an o-symmetric convex body of revolution in n
  dimensions, stored as the sampled radius profile of its 2-D meridian over
  the axis interval [-alpha, alpha].

For a body of revolution the hyperplane sections orthogonal to the axis are
(n-1)-dimensional balls, so volumes reduce to 1-D quadrature of
``radius**(n-1)`` and support functions reduce to the 2-D meridian support.
The meridian is itself a convex polygon, so coaxial Minkowski sums, polars
and convex hulls are exact operations on its vertices: ``profile_sum``
merges two profiles' edges by slope and ``upper_hull`` takes the least
concave majorant of a point set.  Results are sampled back onto uniform
grids.
All operations are pure functions of immutable inputs and are safe to share
between concurrent tasks; Monte-Carlo estimation takes an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DegenerateBodyError, UnsupportedCombinationError

DEFAULT_PROFILE_SAMPLES = 2049
_HULL_PASSES = 8

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@lru_cache(maxsize=None)
def unit_ball_volume(n: int) -> float:
    """Volume of the n-dimensional Euclidean unit ball."""
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def upper_hull(t, v):
    """Vertices (t ascending) of the least concave majorant of points (t, v).

    A point on or below the chord of its two neighbours is never a hull
    vertex, so each vectorized pass drops all such points at once.  Sampled
    concave profiles settle after a pass or two; inputs that keep shrinking
    are finished by a monotone chain over the survivors.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    order = np.lexsort((v, t))
    top = np.append(np.diff(t[order]) > 0, True)  # highest point per abscissa
    t, v = t[order][top], v[order][top]
    for _ in range(_HULL_PASSES):
        above = (t[1:-1] - t[:-2]) * (v[2:] - v[:-2]) < (v[1:-1] - v[:-2]) * (t[2:] - t[:-2])
        if above.all():
            return t, v
        keep = np.concatenate([[True], above, [True]])
        t, v = t[keep], v[keep]
    hull = []
    for p in zip(t.tolist(), v.tolist()):
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    return np.array([p[0] for p in hull]), np.array([p[1] for p in hull])


def concave_majorant(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least concave majorant of samples (t, v), evaluated back on t.

    Used to remove float noise when sampling analytic concave profiles.
    """
    return np.interp(t, *upper_hull(t, v))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of given dimension and radius, centred at the origin."""

    dim: int
    radius: float

    def __post_init__(self):
        if self.dim < 1:
            raise DegenerateBodyError(f"ball dimension must be >= 1, got {self.dim}")
        if not (self.radius > 0):
            raise DegenerateBodyError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class ConvexPolygon:
    """Planar convex body given by its strictly convex ccw vertex cycle."""

    vertices: np.ndarray
    o_symmetric: bool = False

    dim: int = field(default=2, init=False)

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise DegenerateBodyError("polygon needs at least 3 planar vertices")
        scale = float(np.max(np.abs(V))) or 1.0
        edges = _next_vertices(V) - V
        if np.any(np.hypot(edges[:, 0], edges[:, 1]) <= 1e-12 * scale):
            raise DegenerateBodyError("duplicate adjacent vertices")
        turn = _next_vertices(edges)
        cross = edges[:, 0] * turn[:, 1] - edges[:, 1] * turn[:, 0]
        if np.any(cross <= -1e-9 * scale * scale):
            raise DegenerateBodyError("vertex cycle is not convex/counterclockwise")
        if polygon_area(V) <= 1e-12 * scale * scale:
            raise DegenerateBodyError("polygon has (near) zero area")
        if self.o_symmetric:
            d = _symmetry_defect(V)
            if d > 1e-9 * scale:
                raise DegenerateBodyError(
                    f"polygon flagged o-symmetric but vertex set is not (defect {d:.3g})"
                )
        object.__setattr__(self, "vertices", _readonly(V))


def _symmetry_defect(V: np.ndarray) -> float:
    """Max distance from -v to the nearest vertex, over all vertices v."""
    D = np.linalg.norm(V[:, None, :] + V[None, :, :], axis=2)
    return float(np.max(np.min(D, axis=1)))


@dataclass(frozen=True)
class RevolutionBody:
    """O-symmetric convex body of revolution, stored by its meridian profile.

    ``t`` is a strictly increasing axis grid spanning [-alpha, alpha] and
    ``radius[k]`` the meridian half-width at t[k].  The profile must be even
    and concave (up to float noise), with a contiguous positivity set: that
    is exactly convexity plus o-symmetry of the body.
    """

    dim: int
    t: np.ndarray
    radius: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        r = np.asarray(self.radius, dtype=float)
        if self.dim < 2:
            raise DegenerateBodyError(f"revolution body needs dim >= 2, got {self.dim}")
        if t.ndim != 1 or t.shape != r.shape or len(t) < 3:
            raise DegenerateBodyError("profile needs matching 1-D grids of length >= 3")
        if np.any(np.diff(t) <= 0):
            raise DegenerateBodyError("axis grid must be strictly increasing")
        scale = float(np.max(np.abs(r)))
        if not np.all(np.isfinite(r)) or scale <= 0:
            raise DegenerateBodyError("profile must be finite with nonempty interior")
        if np.min(r) < -1e-12 * scale:
            raise DegenerateBodyError("profile has negative radii")
        r = np.maximum(r, 0.0)
        alpha = max(abs(t[0]), abs(t[-1]))
        if abs(t[0] + t[-1]) > 1e-9 * alpha:
            raise DegenerateBodyError("axis grid is not symmetric about 0")
        mirrored = np.interp(-t, t, r)
        if np.max(np.abs(mirrored - r)) > 1e-7 * scale:
            raise DegenerateBodyError("profile is not even (body not o-symmetric)")
        pos = np.flatnonzero(r > 1e-12 * scale)
        if len(pos) == 0:
            raise DegenerateBodyError("profile has empty interior")
        if np.any(r[pos[0]:pos[-1] + 1] <= 1e-12 * scale):
            raise DegenerateBodyError("profile has interior zeros; body must be connected")
        slopes = np.diff(r) / np.diff(t)
        h = float(np.mean(np.diff(t)))
        if np.max(np.diff(slopes) * h, initial=0.0) > 1e-9 * scale * 4.0:
            raise DegenerateBodyError("profile is not concave within tolerance")
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "radius", _readonly(r))

    @property
    def alpha(self) -> float:
        return float(self.t[-1])

    @property
    def max_radius(self) -> float:
        return float(np.max(self.radius))

    def radius_at(self, t) -> np.ndarray:
        """Meridian half-width at axis coordinate(s) t (0 outside)."""
        return np.interp(t, self.t, self.radius, left=0.0, right=0.0)


BodyRef = Union[Ball, ConvexPolygon, RevolutionBody]


def is_o_symmetric(K: BodyRef) -> bool:
    return isinstance(K, (Ball, RevolutionBody)) or (
        isinstance(K, ConvexPolygon) and K.o_symmetric
    )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def revolution_from_function(dim, profile_fn, alpha, samples=DEFAULT_PROFILE_SAMPLES):
    """Sample an analytic even concave profile on a uniform grid.

    The samples are projected onto their least concave majorant so that
    float noise cannot trip the concavity invariant.
    """
    t = np.linspace(-alpha, alpha, samples)
    r = np.maximum(np.asarray(profile_fn(t), dtype=float), 0.0)
    r = 0.5 * (r + r[::-1])
    r = concave_majorant(t, r)
    return RevolutionBody(dim, t, r)


def revolution_ball(dim, radius=1.0, samples=DEFAULT_PROFILE_SAMPLES):
    return revolution_from_function(
        dim, lambda t: np.sqrt(np.maximum(radius * radius - t * t, 0.0)), radius, samples
    )


def revolution_cylinder(dim, half_length=1.0, radius=1.0, samples=DEFAULT_PROFILE_SAMPLES):
    return revolution_from_function(
        dim, lambda t: np.full_like(t, float(radius)), half_length, samples
    )


def revolution_ellipsoid(dim, axis_half_length, cross_radius, samples=DEFAULT_PROFILE_SAMPLES):
    a = float(axis_half_length)
    c = float(cross_radius)
    return revolution_from_function(
        dim, lambda t: c * np.sqrt(np.maximum(1.0 - (t / a) ** 2, 0.0)), a, samples
    )


def as_revolution(K: BodyRef, samples=DEFAULT_PROFILE_SAMPLES) -> RevolutionBody:
    """Coerce a Ball to a profile representation (RevolutionBody passes through)."""
    if isinstance(K, RevolutionBody):
        return K
    if isinstance(K, Ball):
        return revolution_ball(K.dim, K.radius, samples)
    raise UnsupportedCombinationError(f"cannot view {type(K).__name__} as a body of revolution")


def regular_polygon(sides, radius=1.0, phase=0.0) -> ConvexPolygon:
    ang = phase + 2.0 * math.pi * np.arange(sides) / sides
    V = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return ConvexPolygon(V, o_symmetric=(sides % 2 == 0))


def random_revolution_body(dim, rng, samples=DEFAULT_PROFILE_SAMPLES, amplitude=1.0):
    """Random o-symmetric body of revolution with a concave even profile.

    ``amplitude`` interpolates between an axis-aligned ellipsoid (0) and a
    rough random body (1): the random part is a pointwise minimum of random
    cap and tent shapes, which keeps the profile concave.
    """
    amplitude = float(amplitude)
    if not 0.0 <= amplitude < 1.0 + 1e-12:
        raise ValueError("amplitude must lie in [0, 1]")
    alpha = float(rng.uniform(0.6, 1.6))
    height = float(rng.uniform(0.5, 1.5))
    t = np.linspace(-alpha, alpha, samples)
    base = height * np.sqrt(np.maximum(1.0 - (t / alpha) ** 2, 0.0))
    rough = np.full_like(t, np.inf)
    for _ in range(int(rng.integers(2, 6))):
        kind = rng.integers(0, 2)
        if kind == 0:
            a = alpha * float(rng.uniform(1.0, 2.0))
            c = height * float(rng.uniform(0.7, 1.6))
            cand = c * np.sqrt(np.maximum(1.0 - (t / a) ** 2, 0.0))
        else:
            b = alpha * float(rng.uniform(1.05, 2.5))
            c = height * float(rng.uniform(0.7, 1.6))
            cand = c * (1.0 - np.abs(t) / b)
        rough = np.minimum(rough, cand)
    rough = np.maximum(rough, 0.0)
    r = (1.0 - amplitude) * base + amplitude * rough
    r = 0.5 * (r + r[::-1])
    r = concave_majorant(t, r)
    return RevolutionBody(dim, t, r)


def random_o_symmetric_polygon(rng, max_half_vertices=8) -> ConvexPolygon:
    from scipy.spatial import ConvexHull

    m = int(rng.integers(3, max_half_vertices + 1))
    ang = np.sort(rng.uniform(0.02, math.pi - 0.02, size=m))
    rad = rng.uniform(0.5, 2.0, size=m)
    upper = rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    pts = np.vstack([upper, -upper])
    hull = ConvexHull(pts)
    return ConvexPolygon(pts[hull.vertices], o_symmetric=True)


def random_polygon(rng, points=12) -> ConvexPolygon:
    from scipy.spatial import ConvexHull

    pts = rng.normal(size=(points, 2)) * rng.uniform(0.5, 2.0, size=2)
    hull = ConvexHull(pts)
    return ConvexPolygon(pts[hull.vertices])


# ---------------------------------------------------------------------------
# basic functionals
# ---------------------------------------------------------------------------


def _next_vertices(V: np.ndarray) -> np.ndarray:
    """V shifted by one place, np.roll(V, -1, axis=0) without its overhead."""
    return np.concatenate((V[1:], V[:1]))


def polygon_area(V: np.ndarray) -> float:
    x, y = V[:, 0], V[:, 1]
    W = _next_vertices(V)
    return 0.5 * float(np.sum(x * W[:, 1] - W[:, 0] * y))


def polygon_centroid(V: np.ndarray) -> np.ndarray:
    x, y = V[:, 0], V[:, 1]
    W = _next_vertices(V)
    cr = x * W[:, 1] - W[:, 0] * y
    a = 0.5 * np.sum(cr)
    cx = np.sum((x + W[:, 0]) * cr) / (6.0 * a)
    cy = np.sum((y + W[:, 1]) * cr) / (6.0 * a)
    return np.array([cx, cy])


def volume(K: BodyRef) -> float:
    """Lebesgue measure of the body (area in 2-D)."""
    if isinstance(K, Ball):
        return unit_ball_volume(K.dim) * K.radius ** K.dim
    if isinstance(K, ConvexPolygon):
        a = polygon_area(K.vertices)
        if a <= 0:
            raise DegenerateBodyError("polygon area is not positive")
        return a
    if isinstance(K, RevolutionBody):
        n = K.dim
        v = unit_ball_volume(n - 1) * float(_trapezoid(K.radius ** (n - 1), K.t))
        if v <= 0:
            raise DegenerateBodyError("revolution body has zero volume")
        return v
    raise UnsupportedCombinationError(f"volume: unsupported body {type(K).__name__}")


def support_function(K: BodyRef, w) -> float:
    """sup over K of <x, w>.  For a revolution body this reduces to the 2-D
    meridian support at (w_axis, |w_perp|)."""
    w = np.asarray(w, dtype=float)
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        raise ValueError("support direction must be nonzero")
    if isinstance(K, Ball):
        if len(w) != K.dim:
            raise ValueError(f"direction has dim {len(w)}, body has dim {K.dim}")
        return K.radius * nw
    if isinstance(K, ConvexPolygon):
        if len(w) != 2:
            raise ValueError("polygon supports need 2-D directions")
        return float(np.max(K.vertices @ w))
    if isinstance(K, RevolutionBody):
        if len(w) != K.dim:
            raise ValueError(f"direction has dim {len(w)}, body has dim {K.dim}")
        wa = w[0]
        wp = float(np.linalg.norm(w[1:]))
        return float(np.max(K.t * wa + K.radius * wp))
    raise UnsupportedCombinationError(f"support: unsupported body {type(K).__name__}")


def meridian_support(K: RevolutionBody, theta: np.ndarray) -> np.ndarray:
    """Support of the 2-D meridian at angles theta (sin(theta) >= 0)."""
    c = np.cos(theta)
    s = np.sin(theta)
    return np.max(np.outer(c, K.t) + np.outer(s, K.radius), axis=1)


def scale(K: BodyRef, factor: float) -> BodyRef:
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    if isinstance(K, Ball):
        return Ball(K.dim, K.radius * factor)
    if isinstance(K, ConvexPolygon):
        return ConvexPolygon(K.vertices * factor, o_symmetric=K.o_symmetric)
    if isinstance(K, RevolutionBody):
        return RevolutionBody(K.dim, K.t * factor, K.radius * factor)
    raise UnsupportedCombinationError(f"scale: unsupported body {type(K).__name__}")


def dilate_axis(K: RevolutionBody, factor: float) -> RevolutionBody:
    """Stretch a revolution body along its axis only."""
    if not factor > 0:
        raise ValueError("dilation factor must be positive")
    return RevolutionBody(K.dim, K.t * factor, K.radius.copy())


# ---------------------------------------------------------------------------
# Minkowski midpoint
# ---------------------------------------------------------------------------


def _edge_sequence(V: np.ndarray):
    """Vertices rolled to start at the lowest (then leftmost) vertex, with
    edge vectors and their ccw-unwrapped angles."""
    start = np.lexsort((V[:, 0], V[:, 1]))[0]
    V = np.roll(V, -start, axis=0)
    E = np.roll(V, -1, axis=0) - V
    ang = np.arctan2(E[:, 1], E[:, 0])
    # starting at the lowest vertex the first edge has angle in [0, pi);
    # unwrap the rest into one increasing cycle
    ang = np.where(ang < ang[0] - 1e-15, ang + 2.0 * math.pi, ang)
    return V, E, ang


def _polygon_minkowski_sum(P: ConvexPolygon, Q: ConvexPolygon) -> np.ndarray:
    VP, EP, angP = _edge_sequence(P.vertices)
    VQ, EQ, angQ = _edge_sequence(Q.vertices)
    edges = []
    i = j = 0
    tie = 1e-12
    while i < len(EP) or j < len(EQ):
        if i < len(EP) and j < len(EQ) and abs(angP[i] - angQ[j]) <= tie:
            edges.append(EP[i] + EQ[j])  # parallel edges merge into one
            i += 1
            j += 1
        elif j >= len(EQ) or (i < len(EP) and angP[i] < angQ[j]):
            edges.append(EP[i])
            i += 1
        else:
            edges.append(EQ[j])
            j += 1
    verts = VP[0] + VQ[0] + np.vstack([[0.0, 0.0], np.cumsum(edges, axis=0)[:-1]])
    return verts


def profile_sum(K: RevolutionBody, C: RevolutionBody):
    """Vertices (t, r) of the meridian profile of K + C.

    The profile of a coaxial sum is the sup-convolution of the two concave
    profiles: starting from the sum of the left ends, the sample edges of
    both are merged by decreasing slope, so each output vertex is a sum of
    one vertex of K and one of C.  The inputs are validated as concave, so
    their raw edges are merged without re-hulling.
    """
    slopes = np.concatenate([np.diff(K.radius) / np.diff(K.t),
                             np.diff(C.radius) / np.diff(C.t)])
    from_k = np.argsort(-slopes, kind="stable") < len(K.t) - 1
    i = np.concatenate([[0], np.cumsum(from_k)])
    j = np.concatenate([[0], np.cumsum(~from_k)])
    return K.t[i] + C.t[j], K.radius[i] + C.radius[j]


def minkowski_midpoint(K: BodyRef, C: BodyRef) -> BodyRef:
    """(K + C)/2.

    Coaxial revolution bodies are summed exactly by ``profile_sum`` and the
    halved profile is sampled back on a uniform grid as fine as the finer
    operand; polygons use the exact edge-merge sum.  Balls are exact.
    """
    if isinstance(K, Ball) and isinstance(C, Ball):
        if K.dim != C.dim:
            raise UnsupportedCombinationError("midpoint of balls of different dimension")
        return Ball(K.dim, 0.5 * (K.radius + C.radius))
    if isinstance(K, ConvexPolygon) and isinstance(C, ConvexPolygon):
        V = 0.5 * _polygon_minkowski_sum(K, C)
        return ConvexPolygon(V, o_symmetric=(K.o_symmetric and C.o_symmetric))
    if isinstance(K, (Ball, RevolutionBody)) and isinstance(C, (Ball, RevolutionBody)):
        if K.dim != C.dim:
            raise UnsupportedCombinationError("midpoint of bodies of different dimension")
        m = max(len(B.t) if isinstance(B, RevolutionBody) else DEFAULT_PROFILE_SAMPLES
                for B in (K, C))
        Kr = as_revolution(K, m)
        Cr = as_revolution(C, m)
        ts, rs = profile_sum(Kr, Cr)
        alpha = 0.5 * (Kr.alpha + Cr.alpha)
        t = np.linspace(-alpha, alpha, m)
        phi = np.interp(t, 0.5 * ts, 0.5 * rs)
        return RevolutionBody(Kr.dim, t, 0.5 * (phi + phi[::-1]))
    raise UnsupportedCombinationError(
        f"midpoint of {type(K).__name__} and {type(C).__name__} is not supported"
    )


# ---------------------------------------------------------------------------
# symmetric difference, clipping, membership
# ---------------------------------------------------------------------------


def clip_polygons(PV: np.ndarray, CV: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman intersection of two convex polygons given as ccw
    vertex arrays (vertex array, possibly empty).

    A point counts as inside an edge line when it lies at most 1e-14 times
    the largest coordinate magnitude outside it.  The cross product that
    tests it is rounded by a few units of 2^-52 times the edge length and
    that magnitude, so the tolerance scales with the polygons and with their
    distance from the origin, and stays small enough that the clip credits
    a long edge lying along the clip line with little area.
    """
    size = max(float(np.max(np.abs(PV))), float(np.max(np.abs(CV))))
    out = [tuple(p) for p in PV.tolist()]
    CV = CV.tolist()
    for (ax, ay), (bx, by) in zip(CV, CV[1:] + CV[:1]):
        if not out:
            return np.empty((0, 2))
        ex, ey = bx - ax, by - ay
        tol = -1e-14 * size * math.hypot(ex, ey)
        inside = [ex * (p[1] - ay) - ey * (p[0] - ax) >= tol for p in out]
        nxt = []
        p, p_in = out[-1], inside[-1]
        for q, q_in in zip(out, inside):
            if q_in != p_in:
                # p q crosses the edge line
                dx, dy = q[0] - p[0], q[1] - p[1]
                denom = ex * dy - ey * dx
                if denom == 0.0:
                    # p and q lie along the edge line and straddle the tolerance
                    nxt.append(p)
                else:
                    s = (ex * (ay - p[1]) - ey * (ax - p[0])) / denom
                    nxt.append((p[0] + s * dx, p[1] + s * dy))
            if q_in:
                nxt.append(q)
            p, p_in = q, q_in
        out = nxt
    return np.array(out) if out else np.empty((0, 2))


def intersection_area(P: ConvexPolygon, Q: ConvexPolygon) -> float:
    V = clip_polygons(P.vertices, Q.vertices)
    if len(V) < 3:
        return 0.0
    return abs(polygon_area(V))


def translate_polygon(P: ConvexPolygon, x) -> ConvexPolygon:
    return ConvexPolygon(P.vertices + np.asarray(x, float), o_symmetric=False)


def symmetric_difference_volume(K: BodyRef, C: BodyRef) -> float:
    """|K delta C| for same-representation bodies.

    Coaxial revolution bodies have concentric, hence nested, sections, so
    the symmetric difference is a 1-D quadrature of |r1^(n-1) - r2^(n-1)|;
    polygons use |K| + |C| - 2|K inter C| with convex clipping.
    """
    if isinstance(K, ConvexPolygon) and isinstance(C, ConvexPolygon):
        return volume(K) + volume(C) - 2.0 * intersection_area(K, C)
    if isinstance(K, (Ball, RevolutionBody)) and isinstance(C, (Ball, RevolutionBody)):
        if K.dim != C.dim:
            raise UnsupportedCombinationError("symmetric difference across dimensions")
        n = K.dim
        t = np.union1d(_axis_nodes(K), _axis_nodes(C))
        f1 = _section_power(K, t)
        f2 = _section_power(C, t)
        return unit_ball_volume(n - 1) * float(_trapezoid(np.abs(f1 - f2), t))
    raise UnsupportedCombinationError(
        f"symmetric difference of {type(K).__name__} and {type(C).__name__}"
    )


def _axis_nodes(K) -> np.ndarray:
    if isinstance(K, Ball):
        return np.linspace(-K.radius, K.radius, DEFAULT_PROFILE_SAMPLES)
    t = K.t
    extra = []
    # a positive end radius means the section power jumps to 0 at +-alpha;
    # a node one ulp outside keeps the trapezoid sum faithful to the jump
    if K.radius[0] > 0:
        extra.append(np.nextafter(t[0], -np.inf))
    if K.radius[-1] > 0:
        extra.append(np.nextafter(t[-1], np.inf))
    return np.concatenate([t, extra]) if extra else t


def _section_power(K, t) -> np.ndarray:
    """radius^(n-1) at axis coordinates t: analytic for balls, linear
    interpolation of the stored power for profiles (so refining the
    quadrature grid leaves the trapezoid sum unchanged)."""
    n = K.dim
    if isinstance(K, Ball):
        return np.maximum(K.radius ** 2 - t * t, 0.0) ** ((n - 1) / 2.0)
    return np.interp(t, K.t, K.radius ** (n - 1), left=0.0, right=0.0)


def contains_points(K: BodyRef, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership test (pts of shape (m, dim))."""
    pts = np.asarray(pts, dtype=float)
    if isinstance(K, Ball):
        return np.linalg.norm(pts, axis=1) <= K.radius
    if isinstance(K, ConvexPolygon):
        V = K.vertices
        E = np.roll(V, -1, axis=0) - V
        rel = pts[:, None, :] - V[None, :, :]
        cross = E[None, :, 0] * rel[:, :, 1] - E[None, :, 1] * rel[:, :, 0]
        return np.all(cross >= -1e-12, axis=1)
    if isinstance(K, RevolutionBody):
        ta = pts[:, 0]
        rp = np.linalg.norm(pts[:, 1:], axis=1)
        return (np.abs(ta) <= K.alpha) & (rp <= K.radius_at(ta))
    raise UnsupportedCombinationError(f"membership: unsupported body {type(K).__name__}")


def bounding_box(K: BodyRef):
    if isinstance(K, Ball):
        r = K.radius
        return np.full(K.dim, -r), np.full(K.dim, r)
    if isinstance(K, ConvexPolygon):
        return K.vertices.min(axis=0), K.vertices.max(axis=0)
    if isinstance(K, RevolutionBody):
        r = K.max_radius
        lo = np.concatenate([[K.t[0]], np.full(K.dim - 1, -r)])
        hi = np.concatenate([[K.t[-1]], np.full(K.dim - 1, r)])
        return lo, hi
    raise UnsupportedCombinationError(f"bounding box: unsupported body {type(K).__name__}")


def mc_volume(K: BodyRef, samples: int, seed: int):
    """Monte-Carlo volume oracle: uniform rejection sampling in the bounding
    box.  Returns (estimate, standard error); deterministic for a fixed seed."""
    if samples < 1000:
        raise ValueError("mc_volume needs at least 10^3 samples")
    lo, hi = bounding_box(K)
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    left = int(samples)
    while left > 0:
        m = min(left, 1 << 18)
        pts = rng.uniform(lo, hi, size=(m, len(lo)))
        hits += int(np.count_nonzero(contains_points(K, pts)))
        left -= m
    p = hits / samples
    est = box * p
    se = box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return est, se


# ---------------------------------------------------------------------------
# distances between bodies (test oracles)
# ---------------------------------------------------------------------------


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    s = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + s * ab)))


def _point_polygon_distance(p, P: ConvexPolygon) -> float:
    if contains_points(P, p[None, :])[0]:
        return 0.0
    V = P.vertices
    return min(
        _point_segment_distance(p, V[k], V[(k + 1) % len(V)]) for k in range(len(V))
    )


def polygon_hausdorff(P: ConvexPolygon, Q: ConvexPolygon) -> float:
    """Exact Hausdorff distance between convex polygons (max over vertices
    of the distance to the other polygon)."""
    d1 = max(_point_polygon_distance(v, Q) for v in P.vertices)
    d2 = max(_point_polygon_distance(v, P) for v in Q.vertices)
    return max(d1, d2)


def support_hausdorff(K: BodyRef, C: BodyRef, directions=4096) -> float:
    """Hausdorff distance via max support gap on an angular grid (coaxial
    revolution bodies and balls; sampled lower estimate of the sup).
    Ball supports are analytic, so a Ball operand enters exactly."""
    if isinstance(K, ConvexPolygon) or isinstance(C, ConvexPolygon):
        theta = 2.0 * math.pi * np.arange(directions) / directions
        W = np.column_stack([np.cos(theta), np.sin(theta)])
        hK = np.array([support_function(K, w) for w in W])
        hC = np.array([support_function(C, w) for w in W])
        return float(np.max(np.abs(hK - hC)))
    theta = (np.arange(directions) + 0.5) * math.pi / directions

    def table(B):
        if isinstance(B, Ball):
            return np.full(directions, B.radius)
        return meridian_support(B, theta)

    return float(np.max(np.abs(table(K) - table(C))))
