"""Shared random families for the property sweeps, geometry oracles, and a
full-disk fixture.

The 1-D pair generator enforces a minimum shape separation between the two
functions: the deficit of a pair vanishes exactly when one function is a
shifted/scaled copy of the other, and near-copies would push the true
deficit below the discretization floor of the midpoint construction.

The geometry oracles (support values, membership, Monte-Carlo volume and
the exact Hausdorff distance) work from the stored vertices alone and share
no code with the package's sums, polars and volumes that they check.  The
per-pair profile merge and the lexsort selection of the highest point per
abscissa are the reference forms of ``bodies.profile_sums`` and of the
first step of ``bodies.upper_hull``.
"""

import math

import numpy as np
import pytest

from stabgeo import bodies, fileio, pl1d
from stabgeo.bodies import Ball, ConvexPolygon

_trapz = getattr(np, "trapezoid", None) or np.trapz

PAIR_GRID = np.linspace(-8.0, 8.0, 1601)


def make_logconcave(grid, kind, center, width, height=1.0):
    x = grid
    if kind == "gauss":
        v = height * np.exp(-((x - center) / width) ** 2 / 2.0)
    elif kind == "laplace":
        v = height * np.exp(-np.abs(x - center) / width)
    elif kind == "indicator":
        # keep only the support lattice so the trapezoid integral is the
        # exact interval length (a zero-taper node would inflate it by one
        # grid step against the sharp midpoint function)
        keep = (x >= center - width) & (x <= center + width)
        x = x[keep]
        v = np.full(len(x), height)
    else:
        raise ValueError(kind)
    return pl1d.GridFn1D(x, v, log_concave=True)


def random_logconcave_pair(rng, grid=PAIR_GRID):
    """Distinct random log-concave pair (mixture of truncated Gaussians,
    two-sided exponentials and interval indicators).  Widths are forced at
    least 20% apart so the pair is never a near-affine copy."""
    kinds = ["gauss", "laplace", "indicator"]
    k1 = kinds[int(rng.integers(0, 3))]
    k2 = kinds[int(rng.integers(0, 3))]
    w1 = float(rng.uniform(0.4, 1.4))
    w2 = w1 * float(rng.uniform(1.2, 2.2))
    if rng.integers(0, 2):
        w1, w2 = w2, w1
    c1, c2 = rng.uniform(-1.5, 1.5, size=2)
    h1, h2 = rng.uniform(0.5, 2.0, size=2)
    return (
        make_logconcave(grid, k1, float(c1), w1, float(h1)),
        make_logconcave(grid, k2, float(c2), w2, float(h2)),
    )


HALFLINE_GRID = np.geomspace(1e-3, 30.0, 5121)


def random_decreasing_logconcave(rng, grid=HALFLINE_GRID):
    """Random decreasing log-concave function on the half-line."""
    u = grid
    lam = float(rng.uniform(0.3, 2.0))
    s = float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(0.5, 2.0))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        v = c * np.exp(-lam * u)
    elif kind == 1:
        v = c * np.exp(-((u / s) ** 2))
    else:
        v = c * np.exp(-lam * u - (u / s) ** 2)
    return pl1d.GridFn1D(u, v, pl1d.HALF_LINE, log_concave=True)


def probability_gridfn(grid, values, log_concave=False):
    total = float(_trapz(values, grid))
    return pl1d.GridFn1D(grid, values / total, log_concave=log_concave)


# ---------------------------------------------------------------------------
# geometry oracles
# ---------------------------------------------------------------------------


def unit_square():
    return ConvexPolygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
                         o_symmetric=True)


def regular_polygon(sides, radius=1.0, phase=0.0):
    ang = phase + 2.0 * math.pi * np.arange(sides) / sides
    return ConvexPolygon(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def translate_polygon(P, x):
    return ConvexPolygon(P.vertices + np.asarray(x, float))


def support_function(K, w):
    """sup over K of <x, w>; a body of revolution's is its meridian's at
    (w_axis, |w_perp|)."""
    w = np.asarray(w, dtype=float)
    if isinstance(K, Ball):
        return K.radius * float(np.linalg.norm(w))
    if isinstance(K, ConvexPolygon):
        return float(np.max(K.vertices @ w))
    return float(np.max(K.t * w[0] + K.radius * np.linalg.norm(w[1:])))


def contains_points(K, pts):
    """Membership of each row of pts.  A point counts as inside a polygon
    edge line when it lies at most 1e-14 times the larger of its own and the
    polygon's largest coordinate magnitude outside it."""
    pts = np.asarray(pts, dtype=float)
    if isinstance(K, Ball):
        return np.linalg.norm(pts, axis=1) <= K.radius
    if isinstance(K, ConvexPolygon):
        V = K.vertices
        E = np.roll(V, -1, axis=0) - V
        size = np.maximum(np.max(np.abs(pts), axis=1), np.max(np.abs(V)))
        tol = -1e-14 * size[:, None] * np.hypot(E[:, 0], E[:, 1])[None, :]
        rel = pts[:, None, :] - V[None, :, :]
        cross = E[None, :, 0] * rel[:, :, 1] - E[None, :, 1] * rel[:, :, 0]
        return np.all(cross >= tol, axis=1)
    ta = pts[:, 0]
    rp = np.linalg.norm(pts[:, 1:], axis=1)
    return (np.abs(ta) <= K.alpha) & (rp <= K.radius_at(ta))


def bounding_box(K):
    if isinstance(K, Ball):
        return np.full(K.dim, -K.radius), np.full(K.dim, K.radius)
    if isinstance(K, ConvexPolygon):
        return K.vertices.min(axis=0), K.vertices.max(axis=0)
    r = np.full(K.dim - 1, np.max(K.radius))
    return np.concatenate([[K.t[0]], -r]), np.concatenate([[K.t[-1]], r])


def mc_volume(K, samples, seed):
    """Monte-Carlo volume: uniform rejection sampling in the bounding box.
    Returns (estimate, standard error); deterministic for a fixed seed."""
    lo, hi = bounding_box(K)
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, samples, 1 << 18):
        pts = rng.uniform(lo, hi, size=(min(samples - start, 1 << 18), len(lo)))
        hits += int(np.count_nonzero(contains_points(K, pts)))
    p = hits / samples
    return box * p, box * math.sqrt(p * (1.0 - p) / samples)


def meridian_polygon(K):
    """The meridian {(t, y) : |y| <= r(t)} of a body of revolution as a ccw
    vertex array."""
    upper = np.column_stack([K.t, K.radius])[::-1]
    lower = np.column_stack([K.t, -K.radius])
    if K.radius[-1] == 0.0:
        upper = upper[1:]
    if K.radius[0] == 0.0:
        lower = lower[1:]
    return np.vstack([upper, lower])


def profile_sum_merge(K, C):
    """Vertices (t, r) of the meridian profile of K + C, by a sort of the
    two bodies' edge slopes in one array, K's edges first among equal
    slopes."""
    slopes = np.concatenate([np.diff(K.radius) / np.diff(K.t), np.diff(C.radius) / np.diff(C.t)])
    order = np.argsort(-slopes, kind="stable")
    i = np.concatenate(([0], np.cumsum(order < len(K.t) - 1)))
    j = np.arange(len(i)) - i
    return K.t[i] + C.t[j], K.radius[i] + C.radius[j]


def upper_hull_lexsort(t, v):
    """``bodies.upper_hull`` after a (t, v) lexsort picks the highest point
    per abscissa, the last of them where several are equal: on distinct
    sorted abscissae the hull keeps its input order."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    order = np.lexsort((v, t))
    top = np.append(np.diff(t[order]) > 0, True)
    return bodies.upper_hull(t[order][top], v[order][top])


def _segment_distances(V, A, E):
    """Distance from each point V[r] to each segment A[r, c] + [0, 1] E[r, c]."""
    R = V[:, None, :] - A
    s = np.clip(np.einsum("rci,rci->rc", R, E) / np.einsum("rci,rci->rc", E, E), 0.0, 1.0)
    return np.hypot(R[..., 0] - s * E[..., 0], R[..., 1] - s * E[..., 1])


def vertex_distances(P, Q):
    """Distance from each vertex of P to the convex polygon Q (ccw arrays).

    Seen from o, the mean of Q's vertices, each edge of Q spans an interval
    of angles.  A vertex v is inside Q when it is on the inner side of the
    edge whose interval holds its angle.  Otherwise its distance U to that
    edge bounds its distance to Q, and the points of Q within U of v lie
    within asin(U / |v - o|) of its angle: v is measured against the edges
    spanning those angles and one more at each end, in blocks of at most
    2^16 vertex-edge pairs."""
    o = Q.mean(axis=0)
    P, Q = P - o, Q - o
    ang = np.arctan2(Q[:, 1], Q[:, 0])
    order = np.argsort(ang)
    Q, ang, k = Q[order], ang[order], len(Q)
    E = np.roll(Q, -1, axis=0) - Q
    # three turns of the edges' start angles: no window wraps around
    turns = np.concatenate((ang - 2.0 * math.pi, ang, ang + 2.0 * math.pi))
    theta = np.arctan2(P[:, 1], P[:, 0])
    j = (np.searchsorted(turns, theta, side="right") - 1) % k
    R = P - Q[j]
    out = np.flatnonzero(E[j, 0] * R[:, 1] - E[j, 1] * R[:, 0] < 0.0)
    U = _segment_distances(P[out], Q[j[out], None], E[j[out], None])[:, 0]
    reach = U / np.hypot(P[out, 0], P[out, 1])
    delta = np.arcsin(np.minimum(reach, 1.0))
    lo = np.searchsorted(turns, theta[out] - delta, side="right") - 2
    hi = np.searchsorted(turns, theta[out] + delta, side="right")
    width = k if np.any(reach >= 1.0) else min(int(np.max(hi - lo, initial=0)) + 1, k)
    d = np.zeros(len(P))
    rows = max(1, 2 ** 16 // width)
    for b in range(0, len(out), rows):
        c = (lo[b:b + rows, None] + np.arange(width)) % k
        d[out[b:b + rows]] = _segment_distances(P[out[b:b + rows]], Q[c], E[c]).min(axis=1)
    return d


def hausdorff(K, C):
    """Exact Hausdorff distance between two polygons, two coaxial bodies of
    revolution, or a ball and a polygon or body of revolution containing o.

    Between polygons it is the largest distance from a vertex of one to the
    other.  The Hausdorff distance of convex bodies is their largest support
    gap (Schneider, Convex Bodies, Lemma 1.8.14), and a body of revolution's
    supports are those of its meridian polygon: for coaxial bodies the
    section through the axis is also the projection onto it.  So two coaxial
    bodies are as far apart as their meridian polygons, and a body and a
    ball of radius R are max(circumradius - R, R - inradius) apart, both
    radii about o."""
    if isinstance(K, Ball):
        K, C = C, K
    P = K.vertices if isinstance(K, ConvexPolygon) else meridian_polygon(K)
    if isinstance(C, Ball):
        E = np.roll(P, -1, axis=0) - P
        inradius = np.min((P[:, 0] * E[:, 1] - P[:, 1] * E[:, 0]) / np.hypot(E[:, 0], E[:, 1]))
        return float(max(np.max(np.hypot(P[:, 0], P[:, 1])) - C.radius, C.radius - inradius))
    Q = C.vertices if isinstance(C, ConvexPolygon) else meridian_polygon(C)
    return float(max(np.max(vertex_distances(P, Q)), np.max(vertex_distances(Q, P))))


class _DiskFull:
    """A text file whose writes stop halfway with ENOSPC."""

    def __init__(self, *args, **kwargs):
        self._fh = open(*args, **kwargs)

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture()
def disk_full(monkeypatch):
    """Make every file the package writes fail halfway, as on a full disk."""
    monkeypatch.setattr(fileio, "open", _DiskFull, raising=False)
