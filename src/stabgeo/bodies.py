"""Convex-body representations and their basic functionals.

Three representations are used throughout the package:

* ``Ball`` -- a Euclidean ball centred at the origin (any dimension),
* ``ConvexPolygon`` -- a planar convex body as a counterclockwise vertex cycle,
* ``RevolutionBody`` -- an o-symmetric convex body of revolution in n
  dimensions, stored by the vertices of the radius profile of its 2-D
  meridian over the axis interval [-alpha, alpha].

A binary kernel takes two bodies of one representation and dimension and
raises ``UnsupportedCombinationError`` otherwise; nothing is resampled to
make a pair meet (``revolution_ball`` builds a ball as a body of revolution).

A ``RevolutionBody`` is the solid of its piecewise-linear meridian.  Its
hyperplane sections orthogonal to the axis are (n-1)-dimensional balls, so
volumes and symmetric differences are exact sums of frusta, and support
functions reduce to the 2-D meridian support.  The meridian is itself a
convex polygon, so coaxial Minkowski sums, polars and convex hulls are exact
operations on its vertices: ``profile_sums`` merges the edges of pairs of
profiles by slope, many pairs at once (``profile_sum`` is one pair), and
``upper_hull`` takes the least concave majorant of a point set.  Their
results are stored on their own vertices.  Polygon sums, profile sums and
the 1-D concave max-plus share one merge, ``merge_indices``.
All operations are pure functions of immutable inputs and are safe to share
between concurrent tasks.
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
    t, v = _highest_per_abscissa(np.asarray(t, dtype=float), np.asarray(v, dtype=float))
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


def _highest_per_abscissa(t, v):
    """The points sorted by t, with only the highest point of each abscissa.

    Equal floats differ at most in the sign of a zero, so where the abscissa
    or the top is a zero the point kept is the last of the highest ones,
    the point a (t, v) lexsort keeps."""
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    first = np.flatnonzero(np.append(True, t[1:] > t[:-1]))
    if len(first) == len(t):
        return t, v
    end = np.append(first[1:], len(t))
    top = np.maximum.reduceat(v, first)
    runs = np.flatnonzero(end - first > 1)
    for k in runs[(t[first[runs]] == 0.0) | (top[runs] == 0.0)].tolist():
        last = end[k] - 1 - int(np.argmax(v[first[k]:end[k]][::-1] == top[k]))
        t[first[k]], top[k] = t[last], v[last]
    return t[first], top


def concave_majorant(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least concave majorant of samples (t, v), evaluated back on t.

    Used to remove float noise when sampling analytic concave profiles.
    """
    return np.interp(t, *upper_hull(t, v))


def _handover(a: np.ndarray) -> np.ndarray:
    """Freeze an array that a builder has just made and keeps no other use
    for, so that the constructor it is passed to stores it without a copy."""
    a.setflags(write=False)
    return a


def _readonly(a, given) -> np.ndarray:
    """``a`` as a read-only contiguous float array for a constructor to
    store, copied when it may share memory with ``given``, the caller's
    argument, unless ``given`` was handed over (read-only, owning its data):
    the caller's array stays writeable, and writes to it never reach the
    stored one."""
    a = np.ascontiguousarray(a, dtype=float)
    handed_over = (isinstance(given, np.ndarray) and given.flags.owndata
                   and not given.flags.writeable)
    if not handed_over and np.may_share_memory(a, given):
        a = a.copy()
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
        if not 0 < self.radius < math.inf:
            raise DegenerateBodyError(f"ball radius must be finite and positive, "
                                      f"got {self.radius}")


@dataclass(frozen=True)
class ConvexPolygon:
    """Planar convex body given by its strictly convex ccw vertex cycle.

    A given vertex where the cycle turns by zero, up to rounding, is
    dropped.  ``o_symmetric`` is read from the vertices: it holds when their count is
    even and every -v lies within 1e-9 times the largest coordinate
    magnitude of a vertex.  Passing ``o_symmetric=True`` asserts it, and a
    cycle that is not o-symmetric then raises ``DegenerateBodyError``.
    """

    vertices: np.ndarray
    o_symmetric: bool = False

    dim: int = field(default=2, init=False)

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise DegenerateBodyError("polygon needs at least 3 planar vertices")
        scale = float(np.max(np.abs(V))) or 1.0
        if not math.isfinite(scale):
            raise DegenerateBodyError("polygon vertices must be finite")
        edges = _next_vertices(V) - V
        length = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(length <= 1e-12 * scale):
            raise DegenerateBodyError("duplicate adjacent vertices")
        turn = _next_vertices(edges)
        cross = edges[:, 0] * turn[:, 1] - edges[:, 1] * turn[:, 0]
        if np.any(cross <= -1e-9 * scale * scale):
            raise DegenerateBodyError("vertex cycle is not convex/counterclockwise")
        # cross[k], the turn at V[k + 1], is rounded by a few units of 2^-52
        # times the scale and the two edge lengths: a vertex that turns by no
        # more is no corner of the body
        flat = np.abs(cross) <= 1e-15 * scale * (length + _next_vertices(length))
        if flat.any():
            V = V[~_prev_vertices(flat)]
        if polygon_area(V) <= 1e-12 * scale * scale:
            raise DegenerateBodyError("polygon has (near) zero area")
        # an o-symmetric cycle pairs each vertex with its negative
        d = _symmetry_defect(V, 1e-9 * scale) if len(V) % 2 == 0 else math.inf
        symmetric = d <= 1e-9 * scale
        if self.o_symmetric and not symmetric:
            raise DegenerateBodyError(
                f"polygon flagged o-symmetric but vertex set is not (defect {d:.3g})"
            )
        object.__setattr__(self, "o_symmetric", symmetric)
        object.__setattr__(self, "vertices", _readonly(V, self.vertices))


def _symmetry_defect(V: np.ndarray, tol: float) -> float:
    """Max distance from -v to the nearest vertex, over all vertices v, or a
    bound on it that is at most ``tol``.

    A ccw o-symmetric cycle of n vertices pairs V[k] with V[k + n/2], and
    |V[k] + V[k + n/2]| bounds the distance from -V[k] to its nearest
    vertex, so the pairs settle a symmetric cycle in O(n).  Otherwise the
    nearest-vertex search runs, its rows v in blocks of at most 2^16 pairs,
    so memory stays linear in the vertex count."""
    h = len(V) // 2
    paired = float(np.max(np.linalg.norm(V[:h] + V[h:], axis=1)))
    if paired <= tol:
        return paired
    rows = max(1, 2 ** 16 // len(V))
    return max(float(np.max(np.min(np.linalg.norm(V[k:k + rows, None] + V, axis=2), axis=1)))
               for k in range(0, len(V), rows))


@dataclass(frozen=True)
class RevolutionBody:
    """O-symmetric convex body of revolution, stored by its meridian profile.

    ``t`` is an increasing axis grid spanning [-alpha, alpha] (any spacing,
    equal abscissae merged to the larger radius) and ``radius[k]`` the
    meridian half-width at t[k]; the body is the solid of the piecewise-
    linear profile.  The profile must be even and concave (no vertex more
    than 2e-9 max|r| below its neighbours' chord), with a contiguous
    positivity set: that is exactly convexity plus o-symmetry of the body.
    """

    dim: int
    t: np.ndarray
    radius: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        r = np.asarray(self.radius, dtype=float)
        if self.dim < 2:
            raise DegenerateBodyError(f"revolution body needs dim >= 2, got {self.dim}")
        if t.ndim != 1 or t.shape != r.shape:
            raise DegenerateBodyError("profile needs matching 1-D grids")
        dt = t[1:] - t[:-1]
        step = np.min(dt, initial=np.inf)  # NaN if a step is
        if step < 0:
            raise DegenerateBodyError("axis grid must be increasing")
        if step == 0:
            first = np.flatnonzero(np.append(True, dt > 0))
            t, r = t[first], np.maximum.reduceat(r, first)
            dt = t[1:] - t[:-1]
        if len(t) < 2:
            raise DegenerateBodyError("profile needs at least 2 distinct abscissae")
        t0, t1 = float(t[0]), float(t[-1])
        # with finite ends and no NaN step, every abscissa is finite
        if not (math.isfinite(t0) and math.isfinite(t1)) or math.isnan(step):
            raise DegenerateBodyError("axis grid must be finite")
        lo, hi = float(r.min()), float(r.max())
        scale = max(hi, -lo)
        if not (math.isfinite(lo) and math.isfinite(hi) and scale > 0):
            raise DegenerateBodyError("profile must be finite with nonempty interior")
        if lo < -1e-12 * scale:
            raise DegenerateBodyError("profile has negative radii")
        r = np.maximum(r, 0.0)
        if abs(t0 + t1) > 1e-9 * max(abs(t0), abs(t1)):
            raise DegenerateBodyError("axis grid is not symmetric about 0")
        if np.abs(np.interp(-t, t, r) - r).max() > 1e-7 * scale:
            raise DegenerateBodyError("profile is not even (body not o-symmetric)")
        pos = np.flatnonzero(r > 1e-12 * scale)  # nonempty: max|r| is a radius
        if pos[-1] - pos[0] >= len(pos):
            raise DegenerateBodyError("profile has interior zeros; body must be connected")
        # height of each inner vertex below the chord through its neighbours
        slope = (r[1:] - r[:-1]) / dt
        dip = (slope[1:] - slope[:-1]) * (dt[:-1] * dt[1:] / (dt[:-1] + dt[1:]))
        if dip.max(initial=0.0) > 2e-9 * scale:
            raise DegenerateBodyError("profile is not concave within tolerance")
        object.__setattr__(self, "t", _readonly(t, self.t))
        object.__setattr__(self, "radius", _readonly(r, self.radius))

    @property
    def alpha(self) -> float:
        return float(self.t[-1])

    def radius_at(self, t) -> np.ndarray:
        """Meridian half-width at axis coordinate(s) t (0 outside)."""
        return np.interp(t, self.t, self.radius, left=0.0, right=0.0)


BodyRef = Union[Ball, ConvexPolygon, RevolutionBody]


def _check_pair(K, C, what: str) -> None:
    """Refuse two operands (bodies, or level stacks) of different kinds or
    dimensions: every binary kernel works on one representation."""
    if type(K) is not type(C) or K.dim != C.dim:
        raise UnsupportedCombinationError(
            f"{what} needs two operands of one kind and dimension, got a "
            f"{K.dim}-D {type(K).__name__} and a {C.dim}-D {type(C).__name__}"
        )


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
    return _even_concave_body(dim, t, np.maximum(np.asarray(profile_fn(t), dtype=float), 0.0))


def _even_concave_body(dim, t, r):
    """Samples r >= 0 on a symmetric grid t, made even, then concave."""
    return RevolutionBody(dim, _handover(t), concave_majorant(t, 0.5 * (r + r[::-1])))


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
    r = (1.0 - amplitude) * base + amplitude * np.maximum(rough, 0.0)
    return _even_concave_body(dim, t, r)


def _hull_cycle(pts: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of planar points, as a ccw cycle that
    starts at the lowest of the leftmost vertices: the lower chain is the
    upper hull of (x, -y), the upper chain that of (x, y) walked back."""
    x, y = pts[:, 0], pts[:, 1]
    lx, ly = upper_hull(x, -y)
    ux, uy = upper_hull(x, y)
    lower = np.column_stack([lx, -ly])
    upper = np.column_stack([ux, uy])[::-1]
    # the chains share an end vertex unless a vertical edge joins them there
    if (upper[0] == lower[-1]).all():
        upper = upper[1:]
    if (upper[-1] == lower[0]).all():
        upper = upper[:-1]
    return np.vstack([lower, upper])


def random_o_symmetric_polygon(rng) -> ConvexPolygon:
    """Hull of 3 to 8 random points in the upper half-plane and their
    reflections through o, its cycle from the lowest leftmost vertex."""
    m = int(rng.integers(3, 9))
    ang = np.sort(rng.uniform(0.02, math.pi - 0.02, size=m))
    rad = rng.uniform(0.5, 2.0, size=m)
    upper = rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return ConvexPolygon(_hull_cycle(np.vstack([upper, -upper])))


def random_polygon(rng, points=12) -> ConvexPolygon:
    """Hull of ``points`` normal samples with random axis scales, its cycle
    from the lowest leftmost vertex."""
    pts = rng.normal(size=(points, 2)) * rng.uniform(0.5, 2.0, size=2)
    return ConvexPolygon(_hull_cycle(pts))


# ---------------------------------------------------------------------------
# basic functionals
# ---------------------------------------------------------------------------


def _next_vertices(V: np.ndarray) -> np.ndarray:
    """V shifted one place back, so row k holds V[k + 1] (cyclically)."""
    return np.concatenate((V[1:], V[:1]))


def _prev_vertices(V: np.ndarray) -> np.ndarray:
    """V shifted one place on, so row k holds V[k - 1] (cyclically)."""
    return np.concatenate((V[-1:], V[:-1]))


def polygon_area(V: np.ndarray) -> float:
    x, y = V[:, 0], V[:, 1]
    W = _next_vertices(V)
    return 0.5 * float(np.sum(x * W[:, 1] - W[:, 0] * y))


def polygon_centroid(V: np.ndarray) -> np.ndarray:
    """Centroid of the vertex cycle V; the moment sums are taken about V[0],
    so they do not cancel when the polygon sits far from the origin."""
    R = V - V[0]
    x, y = R[:, 0], R[:, 1]
    W = _next_vertices(R)
    cr = x * W[:, 1] - W[:, 0] * y
    a = 0.5 * np.sum(cr)
    cx = np.sum((x + W[:, 0]) * cr) / (6.0 * a)
    cy = np.sum((y + W[:, 1]) * cr) / (6.0 * a)
    return V[0] + np.array([cx, cy])


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
        n, r = K.dim, K.radius
        v = unit_ball_volume(n - 1) * float(np.dot(np.diff(K.t), _power_sums(r[:-1], r[1:], n))) / n
        if v <= 0:
            raise DegenerateBodyError("revolution body has zero volume")
        return v
    raise UnsupportedCombinationError(f"volume: unsupported body {type(K).__name__}")


def _power_sums(a, b, n) -> np.ndarray:
    """sum_{k<n} a^k b^(n-1-k), elementwise: int r^(n-1) over a cell of
    width h where r runs linearly from a to b is h/n times it.  Every term
    is nonnegative, so nearly equal ends need no special case."""
    s, p = a + b, a
    for _ in range(n - 2):
        p = p * a
        s = s * b + p
    return s


# nothing in the package calls this: perfbench's ``_stack_eq`` check reads it
# and its tracer names it (ROADMAP item 1 drops both, and then this)
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
        return ConvexPolygon(_handover(K.vertices * factor))
    if isinstance(K, RevolutionBody):
        return RevolutionBody(K.dim, _handover(K.t * factor), K.radius * factor)
    raise UnsupportedCombinationError(f"scale: unsupported body {type(K).__name__}")


def dilate_axis(K: RevolutionBody, factor: float) -> RevolutionBody:
    """Stretch a revolution body along its axis only."""
    if not factor > 0:
        raise ValueError("dilation factor must be positive")
    return RevolutionBody(K.dim, _handover(K.t * factor), K.radius)


# ---------------------------------------------------------------------------
# Minkowski midpoint
# ---------------------------------------------------------------------------


def merge_indices(order, n_a):
    """Vertex index pairs (i, j) of merged edge chains, one per row of
    ``order``.

    ``order`` lists the edges of two chains in merged order, those of A
    numbered 0 .. n_a - 1 and those of B from n_a on; vertex k of the merged
    chain, after its first k edges, is vertex i[k] of A plus vertex j[k] of B.
    """
    i = np.zeros(order.shape[:-1] + (order.shape[-1] + 1,), dtype=np.intp)
    np.cumsum(order < n_a, axis=-1, out=i[..., 1:])
    return i, np.arange(i.shape[-1]) - i


def _polygon_minkowski_sum(P: ConvexPolygon, Q: ConvexPolygon) -> np.ndarray:
    """Vertices of P + Q, from the sum of the lowest (then leftmost)
    vertices: the edges of both, each chain unwrapped into ccw angles from
    its lowest vertex, merged by angle.  A P edge and a Q edge within 1e-12
    rad of each other merge into one, so the vertex between them is
    dropped."""
    verts, angles = [], []
    for V in (P.vertices, Q.vertices):
        start = np.lexsort((V[:, 0], V[:, 1]))[0]
        V = np.concatenate((V[start:], V[:start]))
        verts.append(V)
        E = _next_vertices(V) - V
        ang = np.arctan2(E[:, 1], E[:, 0])
        # from the lowest vertex the first edge has angle in [0, pi); unwrap
        # the rest into one increasing cycle
        angles.append(np.where(ang < ang[0] - 1e-15, ang + 2.0 * math.pi, ang))
    VP, VQ = verts
    ang = np.concatenate(angles)
    order = np.argsort(ang, kind="stable")
    i, j = merge_indices(order, len(VP))
    from_p = order < len(VP)
    parallel = (from_p[1:] != from_p[:-1]) & (np.diff(ang[order]) <= 1e-12)
    keep = np.append(True, ~parallel)
    # a chain whose edges are all used is back at its first vertex
    return VP[i[:-1][keep] % len(VP)] + VQ[j[:-1][keep] % len(VQ)]


def profile_table(profiles):
    """Meridian vertices and edge keys of revolution bodies, one row each:
    arrays ``(t, radius, key)``, where ``key`` holds the negated edge
    slopes, the merge order of ``profile_sums``.  A body with fewer vertices
    than the longest repeats its last vertex, and its missing edges have key
    +inf: they merge after every real edge and add no new point."""
    sizes = np.array([len(K.t) for K in profiles])
    n = int(sizes.max())
    cols = np.minimum(np.arange(n), sizes[:, None] - 1) + (np.cumsum(sizes) - sizes)[:, None]
    t = np.concatenate([K.t for K in profiles])[cols]
    r = np.concatenate([K.radius for K in profiles])[cols]
    key = np.full((len(sizes), n - 1), np.inf)
    np.divide(r[:, :-1] - r[:, 1:], t[:, 1:] - t[:, :-1], out=key,
              where=np.arange(n - 1) < sizes[:, None] - 1)
    return t, r, key


def profile_sums(A, rows_a, B, rows_b):
    """Vertices (t, r) of the meridian profiles of K_p + C_p, one row per p,
    where K_p is row ``rows_a[p]`` of the ``profile_table`` A and C_p row
    ``rows_b[p]`` of B.

    The profile of a coaxial sum is the sup-convolution of the two concave
    profiles: starting from the sum of the left ends, the edges of both are
    merged by decreasing slope, so each output vertex is a sum of one vertex
    of K_p and one of C_p.  A stable sort of each row's keys is the unique
    permutation that puts K_p's edges first among equal slopes, so a row's
    vertices are those of ``profile_sum(K_p, C_p)``, followed by copies of
    its last vertex where the rows are padded.  The bodies are validated as
    concave, so their raw edges are merged without re-hulling.
    """
    ta, ra, ka = A
    tb, rb, kb = B
    a, b = np.asarray(rows_a), np.asarray(rows_b)
    i, j = merge_indices(np.argsort(np.concatenate((ka[a], kb[b]), axis=1), axis=1,
                                    kind="stable"), ka.shape[1])
    i += a[:, None] * ta.shape[1]  # flat indices into the tables
    j += b[:, None] * tb.shape[1]
    ts, rs = ta.take(i), ra.take(i)
    ts += tb.take(j)
    rs += rb.take(j)
    return ts, rs


def profile_sum(K: RevolutionBody, C: RevolutionBody):
    """Vertices (t, r) of the meridian profile of K + C: the one-row case of
    ``profile_sums``."""
    ts, rs = profile_sums(profile_table((K,)), [0], profile_table((C,)), [0])
    return ts[0], rs[0]


def minkowski_midpoint(K: BodyRef, C: BodyRef) -> BodyRef:
    """(K + C)/2 of two bodies of one kind and dimension.

    Balls average their radii; polygons use the exact edge-merge sum;
    coaxial revolution bodies are summed exactly by ``profile_sum`` and the
    midpoint is stored on the halved vertices.
    """
    _check_pair(K, C, "midpoint")
    if isinstance(K, Ball):
        return Ball(K.dim, 0.5 * (K.radius + C.radius))
    if isinstance(K, ConvexPolygon):
        return ConvexPolygon(_handover(0.5 * _polygon_minkowski_sum(K, C)))
    ts, rs = profile_sum(K, C)
    return RevolutionBody(K.dim, _handover(0.5 * ts), 0.5 * rs)


# ---------------------------------------------------------------------------
# symmetric difference and clipping
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


def intersection_area(P, Q) -> float:
    """|P cap Q| for convex polygons, each a ConvexPolygon or a ccw vertex
    array."""
    PV, QV = (B.vertices if isinstance(B, ConvexPolygon) else B for B in (P, Q))
    V = clip_polygons(PV, QV)
    return abs(polygon_area(V)) if len(V) >= 3 else 0.0


def polygon_symmetric_difference(P: np.ndarray, Q: np.ndarray) -> float:
    """|P delta Q| = |P| + |Q| - 2 |P cap Q| for ccw vertex arrays."""
    return polygon_area(P) + polygon_area(Q) - 2.0 * intersection_area(P, Q)


def symmetric_difference_volume(K: BodyRef, C: BodyRef) -> float:
    """|K delta C| of two bodies of one kind and dimension.

    Concentric balls differ by a shell.  Polygons use
    |K| + |C| - 2|K inter C| with convex clipping.  Coaxial revolution
    bodies have concentric, hence nested, sections, so each cell of their
    union grid, split where r1 - r2 changes sign, adds the difference of two
    exact frustum sums.
    """
    _check_pair(K, C, "symmetric difference")
    if isinstance(K, ConvexPolygon):
        return polygon_symmetric_difference(K.vertices, C.vertices)
    n = K.dim
    if isinstance(K, Ball):
        return unit_ball_volume(n) * abs(K.radius ** n - C.radius ** n)
    # a node both grids share adds a cell of width 0
    t = np.sort(np.concatenate((_ends_closed(K.t, K.radius), _ends_closed(C.t, C.radius))))
    r1, r2 = K.radius_at(t), C.radius_at(t)
    h, d = t[1:] - t[:-1], r1 - r2
    g = _power_sums(r1[:-1], r1[1:], n) - _power_sums(r2[:-1], r2[1:], n)
    total = float(np.dot(h, np.abs(g)))
    for j in np.flatnonzero(d[:-1] * d[1:] < 0.0).tolist():
        # r1 - r2 changes sign in cell j, so the parts of its signed
        # integral h g on either side of the crossing c have opposite
        # signs: the cell adds |left - right| = |2 left - h g|
        lam = float(d[j] / (d[j] - d[j + 1]))
        a1, a2, cell = float(r1[j]), float(r2[j]), float(h[j] * g[j])
        c = a1 + lam * (float(r1[j + 1]) - a1)
        left = lam * float(h[j]) * (_power_sums(a1, c, n) - _power_sums(a2, c, n))
        total += abs(2.0 * left - cell) - abs(cell)
    return unit_ball_volume(n - 1) * total / n


def _ends_closed(x, v, out=None) -> np.ndarray:
    """The increasing grid x with a node one ulp outside each end where v is
    positive.  A sampled function steps to 0 at a grid end where it is
    nonzero; with the function 0 at the added nodes, its linear interpolant
    on these nodes keeps that step (its outer cell is one ulp wide).  With
    ``out``, the grid is written to its start and returned as a view."""
    lo, hi = int(v[0] > 0), int(v[-1] > 0)
    if out is None:
        if not (lo or hi):
            return x
        out = np.empty(lo + len(x) + hi)
    out[lo:lo + len(x)] = x
    if lo:
        out[0] = math.nextafter(x[0], -math.inf)
    if hi:
        out[lo + len(x)] = math.nextafter(x[-1], math.inf)
    return out[:lo + len(x) + hi]


# ---------------------------------------------------------------------------
# bounded scalar search
# ---------------------------------------------------------------------------

_BRENT_MAX_EVALUATIONS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def bounded_minimize(fun, lo, hi, xatol):
    """(x, fun(x), evaluations) near a minimum of fun on [lo, hi]: Brent's
    bounded search (Brent 1973, ch. 5; Forsythe-Malcolm-Moler ``fmin``),
    step for step scipy's ``minimize_scalar(method="bounded")``, so x, the
    value and the evaluation count agree with it bit for bit.  It stops when
    x is known to within xatol / 3 + 1.5e-8 |x|, or after 500 evaluations.
    A NaN value never replaces the best point: if the first one is NaN, the
    search shrinks the interval around that point and returns it with NaN.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("search bounds must be finite")
    if a > b:
        raise ValueError("the lower bound exceeds the upper bound")
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = fun(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + (max(abs(rat), tol1) if rat >= 0.0 else -max(abs(rat), tol1))
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAX_EVALUATIONS:
            break
    return xf, fx, num
