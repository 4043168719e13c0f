"""Figalli-Maggi-Pratelli stability bound for the Brunn-Minkowski inequality.

The bound strengthens Brunn-Minkowski by the explicit dimensional constant
``gamma_star`` and the homothetic distance A(K, C): the minimal symmetric
difference between volume-normalized translates.  Both the additive form

    |K + C|^(1/n) >= (|K|^(1/n) + |C|^(1/n)) [1 + gamma*/sigma^(1/n) A^2]

and the derived product form for |(K + C)/2| are computed side by side.
For general polygons the translation in A(K, C) is found by Newton's method
on the square root of the exact overlap area, which is concave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bodies
from .bodies import BodyRef, ConvexPolygon, volume
from .errors import ConvergenceError


# perfbench's tracer patches minimize and minimize_scalar here by name
# (ROADMAP item 1 drops that); nothing in the package calls them, so scipy
# is imported only when something asks for them
def __getattr__(name):
    if name in ("minimize", "minimize_scalar"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def gamma_star(n: int) -> float:
    """Explicit stability constant ((2 - 2^((n-1)/n))^(3/2) / (122 n^7))^2."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return float(((2.0 - 2.0 ** ((n - 1) / n)) ** 1.5 / (122.0 * n ** 7)) ** 2)


# Newton steps allowed; from the centroid difference, random pairs and pairs
# with parallel or nearly parallel edges take at most 8
_NEWTON_CAP = 50
# a step this short (in diameters) ends the search
_NEWTON_STEP_TOL = 1e-15
# a translation this close to a ridge line (in diameters) lies on it
_RIDGE_TOL = 1e-13
# one-sided derivatives at a ridge are read this far into each side (in
# diameters)
_SIDE_OFFSET = 1e-9
# a predicted rise of s below this fraction of s is lost in its rounding
_ROUNDING = np.finfo(float).eps


def _centered_unit_area(V: np.ndarray):
    """Vertices scaled to unit area about their centroid, and the centroid
    in the scaled units; the area is taken relative to V[0], so it does not
    cancel far from the origin."""
    W = V - V[0]
    c = bodies.polygon_centroid(W)
    root = math.sqrt(bodies.polygon_area(W))
    return (W - c) / root, (V[0] + c) / root


def _outward_normals(V: np.ndarray) -> np.ndarray:
    E = bodies._next_vertices(V) - V
    return np.column_stack([E[:, 1], -E[:, 0]])


def _overlap_derivatives(P: np.ndarray, Q: np.ndarray):
    """x -> (gradient, Hessian) of g(x) = |P cap (Q + x)| for ccw vertex
    arrays.

    Moving Q + x sweeps area only through its own boundary, so
    grad g = sum_e tau_e n_e, where n_e is the outward normal of edge e of Q
    scaled by the edge length and tau_e the fraction of e + x inside P.  The
    ends of that fraction are cuts by edge lines of P (or the edge ends 0
    and 1); a cut by edge k, with outward normal m_k, moves by
    -m_k / <m_k, F_e> per unit of x, F_e = Q_{e+1} - Q_e.  So
    hess g = sum_e n_e (d tau_e / dx)^T, symmetrized against rounding.
    """
    m = _outward_normals(P)
    n = _outward_normals(Q)
    F = np.column_stack([-n[:, 1], n[:, 0]])
    num0 = np.einsum("ij,ij->i", m, P) - Q @ m.T     # (edge e of Q, edge k of P)
    den = F @ m.T
    enter, leave, parallel = den < 0, den > 0, den == 0
    den = np.where(parallel, 1.0, den)                # parallel pairs cut nothing
    speed = -m / den[:, :, None]                      # d(cut) / dx
    rows = np.arange(len(Q))

    def derivatives(x):
        num = num0 - m @ np.asarray(x, dtype=float)
        t = num / den
        lo = np.where(enter, t, -np.inf)
        hi = np.where(leave, t, np.inf)
        k_lo, k_hi = lo.argmax(axis=1), hi.argmin(axis=1)
        t_lo, t_hi = lo[rows, k_lo], hi[rows, k_hi]
        d_tau = (np.where((t_hi < 1.0)[:, None], speed[rows, k_hi], 0.0)
                 - np.where((t_lo > 0.0)[:, None], speed[rows, k_lo], 0.0))
        tau = np.minimum(t_hi, 1.0) - np.maximum(t_lo, 0.0)
        # an edge parallel to an edge of P and outside its line has no part in P
        live = (tau > 0.0) & ~(parallel & (num < 0.0)).any(axis=1)
        hess = n.T @ (d_tau * live[:, None])
        return np.where(live, tau, 0.0) @ n, 0.5 * (hess + hess.T)

    return derivatives


def _ridges(P: np.ndarray, Q: np.ndarray):
    """Unit normals nu and offsets r of the ridge lines <nu, x> = r.

    On a ridge an edge of Q + x lies on the line of a parallel, same-facing
    edge of P; g is smooth across every other line where its quadratic
    pieces meet, but its gradient jumps across a ridge.
    """
    m = _outward_normals(P)
    m = m / np.hypot(m[:, 0], m[:, 1])[:, None]
    n = _outward_normals(Q)
    n = n / np.hypot(n[:, 0], n[:, 1])[:, None]
    cross = n[:, None, 0] * m[None, :, 1] - n[:, None, 1] * m[None, :, 0]
    e, k = np.nonzero((np.abs(cross) <= 1e-12) & (n @ m.T > 0))
    return m[k], np.einsum("ij,ij->i", m[k], P[k] - Q[e])


def _max_overlap(P: np.ndarray, Q: np.ndarray) -> float:
    """max over x of g(x) = |P cap (Q + x)| for centred unit-area polygons.

    s = sqrt(g) is concave on the support of g (Brunn-Minkowski), so damped
    Newton on s from x = 0, where the centroids meet and g > 0, reaches the
    global maximum.  g is a C^1 piecewise quadratic except across ridges
    (see ``_ridges``).  On a ridge, each sector between the ridge lines
    through x offers its own Newton step if that step stays in the sector,
    and each ridge line offers a 1-D Newton step along itself if s rises
    along it; the largest predicted rise wins.  A step (at most one
    diameter) is taken whole if g does not decrease; otherwise it is cut
    where s peaks along it.  s is concave along the step, so its slope
    changes sign once.  The pieces of g meet where a vertex of one polygon
    crosses an edge line of the other, and between two such crossings the
    slope of g along the step is linear, so its value and rate at the
    middle of a piece give it on the whole piece.  A bisection over the
    pieces finds the one where the slope changes sign, or the crossing
    where it jumps.  The search stops on a step of at most 1e-15 diameters,
    or when the predicted rise of s is below rounding.
    """
    diam = max(np.ptp(P), np.ptp(Q))
    nu, r = _ridges(P, Q)
    floor = 1e-12 / diam      # least curvature of the model, keeps it concave
    side = _SIDE_OFFSET * diam
    derivatives = _overlap_derivatives(P, Q)
    m, n = _outward_normals(P), _outward_normals(Q)
    m_P = np.einsum("ij,ij->i", m, P)
    n_Q = P @ n.T - np.einsum("ij,ij->i", n, Q)

    def model(z):
        gr, H = derivatives(z)
        return gr / (2.0 * s), H / (2.0 * s) - np.outer(gr, gr) / (4.0 * s ** 3)

    def newton_step(gs, Hs):
        # Hs = [[a, b], [b, c]] has the eigenvalues mean +- r, the larger one
        # along the angle th; each is capped at -floor
        a, b, c = Hs[0, 0], Hs[0, 1], Hs[1, 1]
        mean, r = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        th = 0.5 * math.atan2(b, 0.5 * (a - c))
        u = np.array([math.cos(th), math.sin(th)])
        v = np.array([-u[1], u[0]])
        step = (u * (float(u @ gs) / -min(mean + r, -floor))
                + v * (float(v @ gs) / -min(mean - r, -floor)))
        return step, 0.5 * float(gs @ step)

    def ridge_steps(normals):
        # the ridge lines through x, as rays sorted by angle
        ang = np.unique(np.mod(np.arctan2(normals[:, 0], -normals[:, 1]), math.pi))
        ang = ang[np.append(True, np.diff(ang) > 1e-9)]
        if len(ang) > 1 and ang[-1] - ang[0] > math.pi - 1e-9:
            ang = ang[:-1]
        rays = np.concatenate([ang, ang + math.pi])
        steps = []
        for a0, a1 in zip(rays, np.append(rays[1:], rays[0] + 2.0 * math.pi)):
            b = 0.5 * (a0 + a1)
            step, rise = newton_step(*model(x + side * np.array([math.cos(b), math.sin(b)])))
            if np.mod(math.atan2(step[1], step[0]) - a0, 2.0 * math.pi) < a1 - a0:
                steps.append((step, rise))
        for a in rays:
            u = np.array([math.cos(a), math.sin(a)])
            gs, Hs = model(x + side * u)
            slope = float(gs @ u)
            if slope > 0.0:
                t = slope / -min(float(u @ Hs @ u), -floor)
                steps.append((t * u, 0.5 * slope * t))
        return steps

    def peak(step, guess):
        """t in [0, 1] where g(x + t step) peaks, given that g rises at t = 0
        and ends lower at t = 1; the piece holding ``guess`` is probed
        first."""
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.concatenate([((m_P - (Q + x) @ m.T) / (m @ step)).ravel(),
                                    ((n_Q - n @ x) / (n @ step)).ravel()])
        ts = np.concatenate([[0.0], np.unique(cross[(cross > 0.0) & (cross < 1.0)]), [1.0]])
        lo, hi = 0, len(ts) - 2            # the peak lies in [ts[lo], ts[hi + 1]]
        j = min(max(int(np.searchsorted(ts, guess)) - 1, 0), hi)
        while lo <= hi:
            # on piece j the slope of g along the step is linear in t
            mid, half = 0.5 * (ts[j] + ts[j + 1]), 0.5 * (ts[j + 1] - ts[j])
            gr, H = derivatives(x + mid * step)
            slope, bend = float(gr @ step), float(step @ H @ step)
            if slope > 0.0:
                if slope + bend * half <= 0.0:
                    return mid - slope / bend
                lo = j + 1
            else:
                if slope - bend * half > 0.0:
                    return mid - slope / bend
                hi = j - 1
            j = (lo + hi) // 2
        return ts[lo]                      # the slope jumps there

    x = np.zeros(2)
    g = bodies.intersection_area(P, Q)
    s = math.sqrt(g)
    for _ in range(_NEWTON_CAP):
        on = np.abs(nu @ x - r) <= _RIDGE_TOL * diam
        if on.any():
            steps = ridge_steps(nu[on])
            if not steps:
                break
        else:
            steps = [newton_step(*model(x))]
        step, rise = max(steps, key=lambda sr: sr[1])
        if rise <= _ROUNDING * s:
            break
        length = float(np.hypot(*step))
        if length > diam:
            step, rise, length = step * (diam / length), rise * (diam / length), diam
        g_new = bodies.intersection_area(P, Q + x + step)
        if g_new < g:
            # the peak of the parabola through s, its slope 2 rise at 0 and
            # s at the end of the step is the first guess
            t = peak(step, rise / (s + 2.0 * rise - math.sqrt(g_new)))
            if t * length <= _NEWTON_STEP_TOL * diam:
                break
            step = t * step
            g_new = bodies.intersection_area(P, Q + x + step)
            if g_new < g:
                break
        x, g = x + step, g_new
        s = math.sqrt(g)
    else:
        raise ConvergenceError(f"overlap search took {_NEWTON_CAP} Newton steps", best=x)
    return g


def homothetic_distance(K: BodyRef, C: BodyRef) -> float:
    """A(K, C): min over translations x of |aK delta (x + bC)| with
    a = |K|^(-1/n), b = |C|^(-1/n).

    For o-symmetric bodies the overlap |aK cap (x + bC)| is even in x and
    its square root is concave (Brunn-Minkowski), so x = o is a maximizer
    and the distance is the plain symmetric difference of the normalized
    bodies.  For general polygons the maximizing translation is found by
    damped Newton on the square root of the exact overlap, started where
    the centroids meet (see ``_max_overlap``); ``ConvergenceError`` carries
    the last translation of bC if the step budget runs out.  K and C are
    of one kind and dimension, so a pair that is not o-symmetric is a pair
    of polygons.
    """
    bodies._check_pair(K, C, "homothetic distance")
    if bodies.is_o_symmetric(K) and bodies.is_o_symmetric(C):
        a, b = (volume(B) ** (-1.0 / B.dim) for B in (K, C))
        if isinstance(K, ConvexPolygon):
            # scaling keeps a polygon valid, so the scaled vertex arrays are
            # compared without building polygons
            return bodies.polygon_symmetric_difference(K.vertices * a, C.vertices * b)
        return bodies.symmetric_difference_volume(bodies.scale(K, a), bodies.scale(C, b))
    P, cP = _centered_unit_area(K.vertices)
    Q, cQ = _centered_unit_area(C.vertices)
    try:
        overlap = _max_overlap(P, Q)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), best=exc.best + cP - cQ) from None
    return 2.0 - 2.0 * overlap


@dataclass(frozen=True)
class FMPReport:
    """Both sides of the additive and product stability bounds.

    ``eta`` is the bracket excess of the product form:
    (sigma-1)^2/(32 n sigma^2) + n gamma* sigma^(-1/n) A^2.
    """

    sigma: float
    A: float
    gamma_star: float
    lhs_additive: float
    rhs_additive: float
    lhs_product: float
    rhs_product: float
    eta: float


def _bracket_excess(n: int, sig: float, A: float) -> float:
    """``FMPReport.eta`` at volume ratio ``sig`` and homothetic distance ``A``."""
    return (sig - 1.0) ** 2 / (32.0 * n * sig * sig) + n * gamma_star(n) / sig ** (1.0 / n) * A * A


def fmp_bound_check(K: BodyRef, C: BodyRef) -> FMPReport:
    """Evaluate both stability inequalities on two bodies of one kind and
    dimension.

    |K + C| is computed from the Minkowski midpoint scaled back by 2^n.
    """
    bodies._check_pair(K, C, "bound check")
    n = K.dim
    vk, vc = volume(K), volume(C)
    sig = max(vc / vk, vk / vc)
    A = homothetic_distance(K, C)
    gstar = gamma_star(n)
    mid = bodies.minkowski_midpoint(K, C)
    vol_mid = volume(mid)
    vol_sum = (2.0 ** n) * vol_mid
    lhs_add = vol_sum ** (1.0 / n)
    rhs_add = (vk ** (1.0 / n) + vc ** (1.0 / n)) * (
        1.0 + gstar / sig ** (1.0 / n) * A * A
    )
    eta = _bracket_excess(n, sig, A)
    lhs_prod = vol_mid
    rhs_prod = math.sqrt(vk * vc) * (1.0 + eta)
    return FMPReport(
        sigma=sig,
        A=A,
        gamma_star=gstar,
        lhs_additive=lhs_add,
        rhs_additive=rhs_add,
        lhs_product=lhs_prod,
        rhs_product=rhs_prod,
        eta=eta,
    )
