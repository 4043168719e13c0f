"""Even quasi-concave functions as nested stacks of level bodies.

A ``LevelStack`` stores f(x) = max{ t_k : x in body_k } for decreasing
heights t_0 > t_1 > ... and nested coaxial bodies of revolution; it is the
step-function discretization of an even quasi-concave function.  Integrals
are exact layer-cake sums.  ``minimal_midpoint_stack`` builds the smallest
stack m with m((x+y)/2) >= sqrt(f(x) g(y)), each product rounded down to
the output height grid, level by level, as the convex hull of Minkowski
midpoints of all level-body pairs whose heights multiply to at least the
squared output level: the pairs of a level are merged in one batched
profile sum over per-call tables of the two stacks' edges.  ``pl_trace``
follows the resulting deficit through the rescaled level bodies, the
(alpha, beta, sigma, eta) profile quantities, the I/J level dissection and
the L1 distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bodies as _bodies
from . import fmp as _fmp
from . import pl1d as _pl1d
from .bodies import RevolutionBody
from .errors import EmptyFunctionError, NormalizationError, UnsupportedCombinationError
from .pl1d import GridFn1D, HALF_LINE

DEFAULT_LEVEL_COUNT = 64
DEFAULT_LEVEL_FLOOR = 1e-6
_LOOKUP_RTOL = 1e-9
_NORMALIZATION_TOL = 1e-6  # |int f - 1| allowed for a probability stack


@dataclass(frozen=True)
class LevelStack:
    """Even quasi-concave function as (height, body) pairs, heights strictly
    decreasing, bodies nested and coaxial.  It carries no log-concavity
    flag: log-concavity is a property of the builders, checked in tests."""

    dim: int
    levels: np.ndarray
    bodies: tuple

    def __post_init__(self):
        lv = np.ascontiguousarray(self.levels, dtype=float)
        bd = tuple(self.bodies)
        if len(lv) == 0 or len(lv) != len(bd):
            raise EmptyFunctionError("stack needs matching nonempty levels and bodies")
        if not (np.isfinite(lv).all() and (lv > 0).all() and (np.diff(lv) < 0).all()):
            raise ValueError("heights must be finite, positive and strictly decreasing")
        for b in bd:
            if not isinstance(b, RevolutionBody) or b.dim != self.dim:
                raise UnsupportedCombinationError(
                    "stack bodies must be coaxial revolution bodies of the stack dimension"
                )
        for prev, cur in zip(bd[:-1], bd[1:]):
            # the tolerance is relative to the outer meridian's circumradius
            R_cur = float(np.max(np.hypot(cur.t, cur.radius)))
            if _excess(prev.t, prev.radius, cur) > 1e-7 * max(R_cur, 1.0):
                raise ValueError("stack bodies are not nested")
        object.__setattr__(self, "levels", _bodies._readonly(lv, self.levels))
        object.__setattr__(self, "bodies", bd)

    @cached_property
    def volumes(self) -> np.ndarray:
        v = np.array([_bodies.volume(b) for b in self.bodies])
        v.setflags(write=False)
        return v

    def body_index_at(self, t):
        """Index of the level body {f >= t} for each t (tolerant at
        breakpoints), -1 where t is above the top height."""
        below = np.searchsorted(self.levels[::-1], t * (1.0 - _LOOKUP_RTOL))
        return len(self.levels) - 1 - below

    def body_at(self, t: float):
        k = int(self.body_index_at(t))
        return None if k < 0 else self.bodies[k]


def _excess(t, r, body: RevolutionBody) -> float:
    """How far the meridian vertices (t, r) reach outside ``body``: past its
    axis extent, or above its profile (held constant past the ends).  The
    meridian is convex, so the polygon of the vertices lies in it when this
    is at most 0."""
    return max(float(np.max(np.abs(t))) - body.alpha,
               float(np.max(r - np.interp(t, body.t, body.radius))))


def stack_integral(f: LevelStack) -> float:
    """Layer-cake sum: sum_k (t_k - t_{k+1}) |body_k| with t_{K+1} = 0."""
    widths = -np.diff(np.concatenate([f.levels, [0.0]]))
    return float(np.sum(widths * f.volumes))


def section_profile(f: LevelStack) -> GridFn1D:
    """t -> |{f >= t}| on the level grid, as a decreasing half-line function."""
    return GridFn1D(f.levels[::-1], f.volumes[::-1], HALF_LINE)


def normalize_probability(f: LevelStack) -> LevelStack:
    total = stack_integral(f)
    if total <= 0:
        raise EmptyFunctionError("cannot normalize a zero stack")
    return LevelStack(f.dim, _bodies._handover(f.levels / total), f.bodies)


def scale_stack(f: LevelStack, space_factor=1.0, level_factor=1.0) -> LevelStack:
    bd = tuple(_bodies.scale(b, space_factor) for b in f.bodies) \
        if space_factor != 1.0 else f.bodies
    return LevelStack(f.dim, _bodies._handover(f.levels * level_factor), bd)


def axis_dilated_stack(f: LevelStack, factor: float) -> LevelStack:
    """Stretch all level bodies along the axis and renormalize the heights,
    so a probability stack stays a probability stack."""
    bd = tuple(_bodies.dilate_axis(b, factor) for b in f.bodies)
    return LevelStack(f.dim, _bodies._handover(f.levels / factor), bd)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def stack_from_level_sets(dim, body_fn, levels) -> LevelStack:
    """Discretize a continuum of level sets into a stack.

    ``body_fn(s)`` must return the level body {f >= s}.  The body stored at
    height t_k is taken at the geometric midpoint of the level cell
    (t_k, t_{k+1}), which makes the layer-cake sum second-order accurate in
    the level spacing.
    """
    levels = np.asarray(levels, dtype=float)
    ratio = levels[-1] / levels[-2] if len(levels) >= 2 else 1.0
    below = np.concatenate([levels[1:], [levels[-1] * ratio]])
    bodies_ = tuple(body_fn(s) for s in np.sqrt(levels * below))
    return LevelStack(dim, levels, bodies_)


def _quadratic_stack(dim, body_at, level_count, floor) -> LevelStack:
    """Probability stack of exp(-q(x)/2), where ``body_at(L)`` is the level
    set {q <= L^2}: ``level_count`` geometric heights spanning the factor
    ``floor``, each level body taken at the geometric midpoint of its cell."""
    top = float(floor) ** (1.0 / (2.0 * level_count))
    levels = np.geomspace(top, top * floor, level_count)
    st = stack_from_level_sets(dim, lambda s: body_at(math.sqrt(2.0 * math.log(1.0 / s))),
                               levels)
    return normalize_probability(st)


def gaussian_stack(dim, level_count=DEFAULT_LEVEL_COUNT, samples=257) -> LevelStack:
    """Probability stack sampled from the Gaussian shape exp(-|x|^2 / 2),
    its heights spanning the factor ``DEFAULT_LEVEL_FLOOR``."""
    return _quadratic_stack(dim, lambda R: _bodies.revolution_ellipsoid(dim, R, R, samples),
                            level_count, DEFAULT_LEVEL_FLOOR)


def random_log_concave_stack(dim, rng, level_count=40, floor=1e-5, samples=257) -> LevelStack:
    """Random even log-concave probability stack: exp(-max of random coaxial
    quadratics), whose level sets are intersections of coaxial ellipsoids."""
    k = int(rng.integers(1, 4))
    ax = rng.uniform(0.5, 2.0, size=k)
    cr = rng.uniform(0.5, 2.0, size=k)

    def body_at(L):
        def profile(t):
            r = np.full_like(t, np.inf)
            for a, c in zip(ax, cr):
                r = np.minimum(r, c * np.sqrt(np.maximum((a * L) ** 2 - t * t, 0.0)) / a)
            return r

        return _bodies.revolution_from_function(dim, profile, ax.max() * L, samples)

    return _quadratic_stack(dim, body_at, level_count, floor)


# ---------------------------------------------------------------------------
# minimal midpoint stack
# ---------------------------------------------------------------------------


def minimal_midpoint_stack(f: LevelStack, g: LevelStack) -> LevelStack:
    """Smallest stack m on the heights u_k whose level at u_k holds every
    midpoint (x+y)/2 with f(x) g(y) >= u_k^2: m((x+y)/2) >= sqrt(f(x) g(y))
    with each product rounded down to the u grid.  ``containment_margin``
    checks this exactly.

    The output heights u_k are log-spaced from sqrt(f_0 g_0) to
    sqrt(f_last g_last), one per level of the longer input stack; on two
    geometric grids of one ratio and one length they are sqrt(f_k g_k).
    The level body at u is the convex hull of the Minkowski midpoints
    (F_i + G_j)/2 over every pair with f_i g_j >= u^2.  Since the bodies
    are nested, only the largest such j for each i matters, and among the
    i sharing that j only the largest i; both are read off one sorted
    lookup of u^2 / f_i in the g heights.  The hull is exact on meridian
    profiles: the upper hull of the halved profile-sum vertices of the
    kept pairs and of the previous (higher) level's hull, which keeps the
    levels nested.  Each level body is stored on the vertices of its hull.

    Each call builds one ``profile_table`` per input stack; each level
    merges all its kept pairs in one ``profile_sums`` call, whose rows are
    bit for bit the pairs' ``profile_sum`` vertices (padded rows repeat
    their last vertex, which leaves the hull unchanged), and takes one
    ``upper_hull``.
    """
    _bodies._check_pair(f, g, "midpoint stack")
    if f.levels[0] * g.levels[0] <= 0:
        raise EmptyFunctionError("empty level ranges")
    dim = f.dim
    u = np.geomspace(math.sqrt(f.levels[0] * g.levels[0]),
                     math.sqrt(f.levels[-1] * g.levels[-1]),
                     max(len(f.levels), len(g.levels)))
    # J[k, i]: largest j with g_j >= u_k^2 / f_i, -1 when there is none; J is
    # nonincreasing in i
    J = g.body_index_at((u[:, None] * u[:, None]) / f.levels[None, :])
    keep = J >= 0
    keep[:, :-1] &= J[:, :-1] != J[:, 1:]
    if not keep[0].any():
        raise EmptyFunctionError("the top midpoint level has no valid pair")

    A, B = _bodies.profile_table(f.bodies), _bodies.profile_table(g.bodies)
    out_bodies = []
    hull = (np.empty(0), np.empty(0))
    for J_k, keep_k in zip(J, keep):
        i = np.flatnonzero(keep_k)
        ts, rs = _bodies.profile_sums(A, i, B, J_k[i])
        hull = _bodies.upper_hull(np.concatenate((0.5 * ts.ravel(), hull[0])),
                                  np.concatenate((0.5 * rs.ravel(), hull[1])))
        out_bodies.append(RevolutionBody(dim, _bodies._handover(hull[0]), hull[1]))
    return LevelStack(dim, _bodies._handover(u), tuple(out_bodies))


def containment_margin(f: LevelStack, g: LevelStack, m: LevelStack) -> float:
    """Largest reach of a midpoint (F_i + G_j)/2 outside the m-body at u,
    over the output levels u of m and every pair with f_i g_j >= u^2, or 0.
    Exact: the reach is the ``_excess`` of the halved profile-sum vertices
    of all pairs of a level, merged in one ``profile_sums`` call, and the
    m-bodies are convex.  A minimal midpoint stack reads 0 up to
    rounding."""
    A, B = _bodies.profile_table(f.bodies), _bodies.profile_table(g.bodies)
    worst = 0.0
    for u, body in zip(m.levels, m.bodies):
        J = g.body_index_at(u * u / f.levels)
        i = np.flatnonzero(J >= 0)
        if len(i):
            ts, rs = _bodies.profile_sums(A, i, B, J[i])
            worst = max(worst, _excess(0.5 * ts, 0.5 * rs, body))
    return worst


# ---------------------------------------------------------------------------
# proof tracer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    """Per-level diagnostics of the even stability argument.

    alpha/beta are the volume ratios of the rescaled f/g level bodies to the
    m level body; sigma and eta the asymmetry factor and stability excess;
    the I mask marks levels where both ratios are in (3/4, 5/4).  Integrals
    over levels use the exact layer-cake weights.  All "<<" bounds of the
    argument involve unspecified constants, so they are exposed as measured
    quantities (jsize_*, ieta, l1_*) for ratio checks, never asserted
    against a constant."""

    eps: float
    b: float
    swapped: bool
    levels: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    eta: np.ndarray
    I_mask: np.ndarray
    J_mask: np.ndarray
    l1_fg: float
    l1_fm: float
    l1_gm: float
    l1_tilde_fg: float
    b_gap: float
    omega: float
    jsize_lhs: float
    jsize_rhs: float
    ieta: float
    sectioncap_margin: float

    @property
    def sqrt_omega(self) -> float:
        return math.sqrt(self.omega)

    def ratio_to_sqrt_omega(self, value: float) -> float:
        so = self.sqrt_omega
        return float("nan") if so == 0.0 else value / so


def _pair_symdiff(bf, bg) -> float:
    if bf is None and bg is None:
        return 0.0
    if bf is None:
        return _bodies.volume(bg)
    if bg is None:
        return _bodies.volume(bf)
    return _bodies.symmetric_difference_volume(bf, bg)


def _pair_l1(A: LevelStack, B: LevelStack) -> float:
    """int |Phi_t delta Psi_t| dt, exact for step stacks (piecewise constant
    between the union of the level breakpoints)."""
    bps = np.concatenate([A.levels, B.levels, [0.0]])
    bps = np.unique(bps)[::-1]
    total = 0.0
    for hi, lo in zip(bps[:-1], bps[1:]):
        t_eval = 0.5 * (hi + lo)
        total += _pair_symdiff(A.body_at(t_eval), B.body_at(t_eval)) * (hi - lo)
    return total


def _sectioncap_margin(f: LevelStack, g: LevelStack, m: LevelStack) -> float:
    """Largest height of min(f, g level profiles) above the m profile over
    the shorter axis extent, or 0: exact at the vertices, the f-g crossings
    and the ends, as all three profiles are piecewise linear."""
    worst = 0.0
    for t_j, om in zip(m.levels, m.bodies):
        bf = f.body_at(t_j)
        bg = g.body_at(t_j)
        if bf is None or bg is None:
            continue
        a_cap = min(bf.alpha, bg.alpha)
        t = np.union1d(bf.t, bg.t)
        d = bf.radius_at(t) - bg.radius_at(t)
        k = np.flatnonzero(d[:-1] * d[1:] < 0.0)
        t = np.concatenate((t, t[k] + d[k] / (d[k] - d[k + 1]) * (t[k + 1] - t[k]),
                            om.t, [-a_cap, a_cap]))
        t = t[np.abs(t) <= a_cap]
        cap = np.minimum(bf.radius_at(t), bg.radius_at(t))
        worst = max(worst, float(np.max(cap - om.radius_at(t))))
    return worst


def pl_trace(f: LevelStack, g: LevelStack, m: LevelStack) -> TraceReport:
    """Trace the stability argument on probability stacks f, g and a valid
    midpoint stack m.

    Computes eps = int m - 1, fits the scale normalization b on the section
    profiles (swapping f and g so that b >= 1), rescales the level bodies,
    and reports alpha, beta, sigma, eta, the I/J dissection, the layer-cake
    L1 distances and the dissection integrals.
    """
    for name, st in (("f", f), ("g", g)):
        total = stack_integral(st)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise NormalizationError(f"stack {name} integrates to {total!r}, expected 1")
    _bodies._check_pair(f, g, "trace")
    _bodies._check_pair(f, m, "trace")
    if stack_integral(m) <= 0:
        raise EmptyFunctionError("midpoint stack is degenerate")
    n = f.dim
    eps = stack_integral(m) - 1.0

    M = section_profile(m)

    def fitted_b(st):
        c, _, _ = _pl1d.stability_distance(section_profile(st), M, "scale", constrain_equal=True)
        return 1.0 / c

    b = fitted_b(f)
    swapped = b < 1.0 - 1e-12
    if swapped:
        f, g = g, f
        b = fitted_b(f)

    f_t = scale_stack(f, space_factor=b ** (1.0 / n), level_factor=1.0 / b)
    g_t = scale_stack(g, space_factor=b ** (-1.0 / n), level_factor=b)

    levels = m.levels
    widths = -np.diff(np.concatenate([levels, [0.0]]))
    Mv = m.volumes
    K = len(levels)
    alpha = np.zeros(K)
    beta = np.zeros(K)
    sigma = np.full(K, np.nan)
    eta = np.full(K, np.nan)
    for j, t_j in enumerate(levels):
        bf = f_t.body_at(t_j)
        bg = g_t.body_at(t_j)
        vf = _bodies.volume(bf) if bf is not None else 0.0
        vg = _bodies.volume(bg) if bg is not None else 0.0
        alpha[j] = vf / Mv[j]
        beta[j] = vg / Mv[j]
        if vf > 0 and vg > 0:
            s = max(b * b * beta[j] / alpha[j], alpha[j] / (b * b * beta[j]))
            sigma[j] = s
            A = _fmp.homothetic_distance(bf, bg)
            eta[j] = _fmp._bracket_excess(n, s, A)
    I_mask = (alpha > 0.75) & (alpha < 1.25) & (beta > 0.75) & (beta < 1.25)
    J_mask = ~I_mask

    jsize_lhs = float(np.sum(Mv[J_mask] * widths[J_mask]))
    jsize_rhs = 4.0 * float(
        np.sum((np.abs(alpha[J_mask] - 1.0) + np.abs(beta[J_mask] - 1.0))
               * Mv[J_mask] * widths[J_mask])
    )
    ieta = float(np.nansum(np.where(I_mask, eta, 0.0) * Mv * widths))

    return TraceReport(
        eps=eps,
        b=b,
        swapped=swapped,
        levels=levels.copy(),
        alpha=alpha,
        beta=beta,
        sigma=sigma,
        eta=eta,
        I_mask=I_mask,
        J_mask=J_mask,
        l1_fg=_pair_l1(f, g),
        l1_fm=_pair_l1(f, m),
        l1_gm=_pair_l1(g, m),
        l1_tilde_fg=_pair_l1(f_t, g_t),
        b_gap=abs(b - 1.0),
        omega=_pl1d.omega(max(eps, 0.0)),
        jsize_lhs=jsize_lhs,
        jsize_rhs=jsize_rhs,
        ieta=ieta,
        sectioncap_margin=_sectioncap_margin(f, g, m),
    )
