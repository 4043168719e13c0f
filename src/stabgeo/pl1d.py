"""One-dimensional Prekopa-Leindler engine.

The central object is the pointwise-minimal midpoint function
``m*(t) = sup { sqrt(f(r) g(s)) : mean(r, s) = t }`` for the arithmetic or
geometric mean, together with its integral deficit and the L1 stability
distance of f from an affinely adjusted m.  The geometric-mean mode reduces
to the arithmetic one through the substitution h(x) = H(e^x) e^x, which also
maps half-line problems to whole-line ones while preserving integrals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .bodies import _trapezoid
from .errors import ConvergenceError, EmptyFunctionError, InvalidDataError

DEFAULT_GRID_SAMPLES = 4097

WHOLE_LINE = "whole-line"
HALF_LINE = "half-line"


def _log_concave_ok(grid, values, tol=1e-7):
    """Discrete log-concavity: contiguous positivity set and nonincreasing
    divided differences of log(values) on it.  Subnormal values carry no
    usable log precision and are left out of the slope test."""
    pos = np.flatnonzero(values > 0)
    if len(pos) == 0:
        return False
    if pos[-1] - pos[0] + 1 != len(pos):
        return False
    pos = pos[values[pos] >= np.finfo(float).tiny]
    if len(pos) < 3:
        return True
    x = grid[pos]
    L = np.log(values[pos])
    s = np.diff(L) / np.diff(x)
    scale = max(1.0, float(np.max(np.abs(L))))
    return bool(np.all(np.diff(s) * np.diff(x)[:-1] <= tol * scale * 4.0))


@dataclass(frozen=True)
class GridFn1D:
    """Nonnegative function sampled on a strictly increasing grid.

    The grid bounds the support: integrals are trapezoid sums over the
    stored grid, with the function treated as 0 outside it.
    """

    grid: np.ndarray
    values: np.ndarray
    domain: str = WHOLE_LINE
    log_concave: bool = False
    probability: bool = False

    def __post_init__(self):
        g = np.ascontiguousarray(self.grid, dtype=float)
        v = np.ascontiguousarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or len(g) < 2:
            raise ValueError("grid and values must be matching 1-D arrays (len >= 2)")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise ValueError("grid function must be finite")
        if np.any(v < 0):
            raise ValueError("grid function must be nonnegative")
        if self.domain not in (WHOLE_LINE, HALF_LINE):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        if self.domain == HALF_LINE and g[0] < 0:
            raise ValueError("half-line functions need a nonnegative grid")
        if self.log_concave and not _log_concave_ok(g, v):
            raise ValueError("function flagged log-concave fails the discrete check")
        if self.probability:
            total = float(_trapezoid(v, g))
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"probability flag set but integral is {total!r}")
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def at(self, x):
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)


def integral(f: GridFn1D) -> float:
    return float(_trapezoid(f.values, f.grid))


def mean_abscissa(f: GridFn1D) -> float:
    tot = integral(f)
    if tot <= 0:
        raise EmptyFunctionError("cannot take the mean of a zero function")
    return float(_trapezoid(f.grid * f.values, f.grid)) / tot


def _support_slice(f: GridFn1D):
    pos = np.flatnonzero(f.values > 0)
    if len(pos) == 0:
        raise EmptyFunctionError("function has an empty positivity set")
    if len(pos) == 1:
        raise InvalidDataError(
            f"positivity set is the one sample x = {float(f.grid[pos[0]])!r}; "
            "a midpoint needs at least two")
    return f.grid[pos[0]:pos[-1] + 1], f.values[pos[0]:pos[-1] + 1]


def _is_uniform(x):
    d = np.diff(x)
    return np.all(np.abs(d - d[0]) <= 1e-9 * abs(d[0]))


_LOG_TINY = math.log(np.finfo(float).tiny)
_BLOCK_ELEMENTS = 2 ** 16  # 512 KB of float64: one block stays in cache


def _max_plus_antidiagonal(la, lb):
    """out[k] = max over i + j = k of la[i] + lb[j], with -inf as the zero.

    Exhaustive: the shorter sequence indexes the rows of cache-sized
    blocks, each row holding its sums with the whole longer sequence."""
    if len(la) > len(lb):
        la, lb = lb, la
    na, nb = len(la), len(lb)
    out = np.full(na + nb - 1, -np.inf)
    rows = max(1, min(na, _BLOCK_ELEMENTS // (nb + 1)))
    flat = np.empty(rows * (rows + nb))
    for i0 in range(0, na, rows):
        m = min(rows, na - i0)
        buf = flat[:m * (m + nb)].reshape(m, m + nb)
        np.add(la[i0:i0 + m, None], lb[None, :], out=buf[:, :nb])
        buf[:, nb:] = -np.inf
        # row r shifts right by r after the reshape, aligning antidiagonals
        shifted = buf.ravel()[:-m].reshape(m, m + nb - 1) if m > 1 else buf[:, :nb]
        sl = out[i0:i0 + m + nb - 1]
        np.maximum(sl, shifted.max(axis=0), out=sl)
    return out


def _log_core(l):
    """[start, stop) of the contiguous run of entries >= log(tiny) when that
    run is concave up to rounding noise, else None.  Logs of subnormal
    values carry too few bits to be concave, so they stay outside."""
    idx = np.flatnonzero(l >= _LOG_TINY)
    if len(idx) == 0 or idx[-1] - idx[0] + 1 != len(idx):
        return None
    core = l[idx[0]:idx[-1] + 1]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(core))))
    if len(core) >= 3 and not np.all(np.diff(core, 2) <= tol):
        return None
    return idx[0], idx[-1] + 1


def _exact_differences(l):
    """(hi, lo) with hi + lo = l[1:] - l[:-1] exactly (Knuth's TwoSum):
    hi is the rounded difference, so (hi, lo) in lexicographic order is the
    order of the exact differences."""
    a, b = l[1:], -l[:-1]
    hi = a + b
    bb = hi - a
    return hi, (a - (hi - bb)) + (b - bb)


def _slope_merge(ca, cb):
    """Max-plus of two concave sequences by merging their differences in
    decreasing order; None when the merge cannot be certified exact.

    The split i of output k counts the differences of ca among the k
    largest of both sequences; the output takes the first i differences of
    ca and the first k - i of cb.  The split is certified when every
    difference of each sequence left out is at most every difference of
    the other taken in, compared exactly: then every other split sums to at
    most the same real value, and rounding is monotone, so ca[i] + cb[k - i]
    is bit for bit the maximum of the rounded candidate sums."""
    na = len(ca)
    hi_a, lo_a = _exact_differences(ca)
    hi_b, lo_b = _exact_differences(cb)
    hi, lo = np.concatenate((hi_a, hi_b)), np.concatenate((lo_a, lo_b))
    if not np.all(np.isfinite(lo)):
        return None
    order = np.lexsort((-lo, -hi))  # stable: decreasing, ca first on ties
    v = np.empty_like(order)
    v[order] = -np.arange(len(order))  # larger difference, larger v
    va, vb = v[:na - 1], v[na - 1:]
    i = np.concatenate(([0], np.cumsum(order < na - 1)))
    j = np.arange(len(i)) - i
    big = np.iinfo(np.intp).max
    left_a = np.append(np.maximum.accumulate(va[::-1])[::-1], -big)
    taken_a = np.concatenate(([big], np.minimum.accumulate(va)))
    left_b = np.append(np.maximum.accumulate(vb[::-1])[::-1], -big)
    taken_b = np.concatenate(([big], np.minimum.accumulate(vb)))
    if not np.all((left_a[i] <= taken_b[j]) & (left_b[j] <= taken_a[i])):
        return None
    return ca[i] + cb[j]


def _max_plus(la, lb):
    """out[k] = max over i + j = k of la[i] + lb[j], with -inf as the zero.

    Bit-identical to the exhaustive kernel.  When both sequences are
    concave on their cores, the cores go through the O(n log n) slope merge
    and only the tails (subnormal or -inf entries) go through the
    exhaustive kernel, each against the whole other sequence."""
    ca, cb = _log_core(la), _log_core(lb)
    mid = None
    if ca is not None and cb is not None:
        (a0, a1), (b0, b1) = ca, cb
        mid = _slope_merge(la[a0:a1], lb[b0:b1])
    if mid is None:
        return _max_plus_antidiagonal(la, lb)
    out = np.full(len(la) + len(lb) - 1, -np.inf)
    out[a0 + b0:a1 + b1 - 1] = mid
    tails = [(s, la[s:e], lb) for s, e in ((0, a0), (a1, len(la))) if e > s]
    tails += [(a0 + s, la[a0:a1], lb[s:e]) for s, e in ((0, b0), (b1, len(lb))) if e > s]
    for off, x, y in tails:
        part = _max_plus_antidiagonal(x, y)
        sl = out[off:off + len(part)]
        np.maximum(sl, part, out=sl)
    return out


def sup_convolution_midpoint(f: GridFn1D, g: GridFn1D, mean="arithmetic") -> GridFn1D:
    """Pointwise-minimal m with m(mean(r, s)) >= sqrt(f(r) g(s)).

    Arithmetic mode pairs the grids exhaustively; the output lives on a
    twice-refined lattice covering the mean-closure of the supports, so the
    midpoint set is captured without aliasing.  Geometric mode (half-line
    inputs) reduces to arithmetic mode on log-spaced grids.
    """
    if mean in ("geometric", "geom"):
        if f.domain != HALF_LINE or g.domain != HALF_LINE:
            raise ValueError("geometric-mean mode needs half-line functions")
        hf = exp_substitution(f)
        hg = exp_substitution(g)
        mid = sup_convolution_midpoint(hf, hg, "arithmetic")
        u = np.exp(mid.grid)
        vals = mid.values / u
        lc = f.log_concave and g.log_concave and _log_concave_ok(u, vals)
        return GridFn1D(u, vals, HALF_LINE, log_concave=lc)
    if mean not in ("arithmetic", "arith"):
        raise ValueError(f"unknown mean {mean!r}")

    xf, vf = _support_slice(f)
    xg, vg = _support_slice(g)
    if not (_is_uniform(xf) and _is_uniform(xg)
            and abs((xf[1] - xf[0]) - (xg[1] - xg[0])) <= 1e-9 * (xf[1] - xf[0])):
        step = min(np.median(np.diff(xf)), np.median(np.diff(xg)))
        nf = max(2, int(round((xf[-1] - xf[0]) / step)) + 1)
        ng = max(2, int(round((xg[-1] - xg[0]) / step)) + 1)
        xf = np.linspace(xf[0], xf[-1], nf)
        vf = f.at(xf)
        xg = np.linspace(xg[0], xg[-1], ng)
        vg = g.at(xg)
    step = xf[1] - xf[0]
    with np.errstate(divide="ignore"):
        la = np.log(vf)
        lb = np.log(vg)
    ls = 0.5 * _max_plus(la, lb)
    grid = 0.5 * (xf[0] + xg[0]) + 0.5 * step * np.arange(len(ls))
    vals = np.exp(ls)
    domain = HALF_LINE if (f.domain == HALF_LINE and g.domain == HALF_LINE) else WHOLE_LINE
    lc = f.log_concave and g.log_concave and _log_concave_ok(grid, vals)
    return GridFn1D(grid, vals, domain, log_concave=lc)


def pl_deficit(f: GridFn1D, g: GridFn1D, m: GridFn1D) -> float:
    """eps = int m / sqrt(int f * int g) - 1 (trapezoid quadrature)."""
    int_f, int_g, int_m = integral(f), integral(g), integral(m)
    if int_f <= 0 or int_g <= 0 or int_m <= 0:
        raise ValueError("pl_deficit needs functions with positive integrals")
    return int_m / math.sqrt(int_f * int_g) - 1.0


def omega(eps: float) -> float:
    """The 1-D stability error law eps^(1/3) |ln eps|^(4/3); omega(0) = 0."""
    if eps < 0:
        raise ValueError(f"omega needs a nonnegative argument, got {eps}")
    if eps == 0.0:
        return 0.0
    return float(np.cbrt(eps) * abs(math.log(eps)) ** (4.0 / 3.0))


def exp_substitution(H: GridFn1D) -> GridFn1D:
    """h(x) = H(e^x) e^x on the logarithm of H's grid.

    Change of variables preserves the integral; if H is flagged log-concave
    and is decreasing, the output is log-concave.
    """
    if H.domain != HALF_LINE:
        raise ValueError("exp_substitution needs a half-line function")
    g = H.grid
    v = H.values
    if g[0] <= 0.0:
        warnings.warn("support touches 0; truncating at the smallest positive grid point")
        keep = g > 0.0
        g, v = g[keep], v[keep]
        if len(g) < 2:
            raise EmptyFunctionError("nothing left after truncating at 0")
    x = np.log(g)
    h = v * g
    decreasing = bool(np.all(np.diff(v) <= 1e-12 * max(float(np.max(v)), 1.0)))
    lc = H.log_concave and decreasing and _log_concave_ok(x, h)
    return GridFn1D(x, h, WHOLE_LINE, log_concave=lc)


# ---------------------------------------------------------------------------
# stability distance
# ---------------------------------------------------------------------------


def _l1_between(xa, va, xb, vb):
    """int |A - B| for the piecewise-linear A on the increasing grid xa and
    B on xb (both zero outside), by the trapezoid rule on the union of the
    grids.  The concatenation is two sorted runs, which a stable sort merges
    in linear time; the sum is numpy's own trapezoid, term for term."""
    xs = np.sort(np.concatenate((xa, xb)), kind="stable")
    same = xs[1:] == xs[:-1]
    if same.any():
        xs = xs[np.append(True, ~same)]
    y = np.abs(np.interp(xs, xa, va, left=0.0, right=0.0)
               - np.interp(xs, xb, vb, left=0.0, right=0.0))
    return float(np.add.reduce(np.diff(xs) * (y[1:] + y[:-1]) / 2.0))


def _shift_l1(f: GridFn1D, m: GridFn1D, a: float, b: float) -> float:
    """int |f(t) - a m(t + b)| dt."""
    return _l1_between(f.grid, f.values, m.grid - b, a * m.values)


def _scale_l1(f: GridFn1D, m: GridFn1D, a: float, b: float) -> float:
    """int |f(t) - a m(b t)| dt (half-line, b > 0)."""
    return _l1_between(f.grid, f.values, m.grid / b, a * m.values)


def _multistart_minimize(objective, x0, spreads, tiebreak_origin):
    starts = [np.asarray(x0, float)]
    for k in range(len(x0)):
        for sgn in (+1.0, -1.0):
            s = np.asarray(x0, float).copy()
            s[k] += sgn * spreads[k]
            starts.append(s)
    results = []
    for s in starts:
        res = minimize(objective, s, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-14, maxiter=4000))
        if np.all(np.isfinite(res.x)) and np.isfinite(res.fun):
            results.append(res)
    if not results:
        raise ConvergenceError("all descent starts diverged", best=np.asarray(x0, float))
    best_val = min(r.fun for r in results)
    eligible = [r for r in results if r.fun <= best_val + 1e-12 * (1.0 + abs(best_val))]
    # flat valleys: return the minimizer closest to the moment-matched start
    origin = np.asarray(tiebreak_origin, float)
    eligible.sort(key=lambda r: float(np.linalg.norm(r.x - origin)))
    return eligible[0]


def stability_distance(f: GridFn1D, m: GridFn1D, mode="shift", constrain_equal=False):
    """Minimize the L1 distance between f and an adjusted copy of m.

    shift mode: min over (a, b) of int |f(t) - a m(t + b)| dt, a > 0.
    scale mode: min over (a, b > 0) of int |f(t) - a m(b t)| dt (half-line).
    ``constrain_equal`` ties a = b in scale mode.
    Returns (a, b, l1) with the distance normalized by int m.
    """
    int_f, int_m = integral(f), integral(m)
    if int_f <= 0 or int_m <= 0:
        raise EmptyFunctionError("stability distance needs positive integrals")
    if mode == "shift":
        a0 = int_f / int_m
        b0 = mean_abscissa(m) - mean_abscissa(f)

        def obj(p):
            return _shift_l1(f, m, math.exp(p[0]), p[1])

        span_b = 0.25 * (f.grid[-1] - f.grid[0])
        res = _multistart_minimize(obj, [math.log(a0), b0], [0.5, span_b],
                                   [math.log(a0), b0])
        a, b = math.exp(res.x[0]), float(res.x[1])
        return a, b, res.fun / int_m
    if mode == "scale":
        if f.domain != HALF_LINE or m.domain != HALF_LINE:
            raise ValueError("scale mode needs half-line functions")
        b0 = mean_abscissa(m) / mean_abscissa(f)
        a0 = b0 * int_f / int_m
        if constrain_equal:
            c0 = math.log(max(b0, 1e-12))

            def obj1(q):
                c = math.exp(q)
                return _scale_l1(f, m, c, c)

            qs = np.linspace(c0 - 2.5, c0 + 2.5, 41)
            vals = [obj1(q) for q in qs]
            k = int(np.argmin(vals))
            res = minimize_scalar(obj1, bounds=(qs[max(k - 1, 0)], qs[min(k + 1, len(qs) - 1)]),
                                  method="bounded", options=dict(xatol=1e-12))
            c = math.exp(res.x)
            return c, c, float(res.fun) / int_m

        def obj(p):
            return _scale_l1(f, m, math.exp(p[0]), math.exp(p[1]))

        x0 = [math.log(max(a0, 1e-12)), math.log(max(b0, 1e-12))]
        res = _multistart_minimize(obj, x0, [0.5, 0.5], x0)
        a, b = math.exp(res.x[0]), math.exp(res.x[1])
        return a, b, res.fun / int_m
    raise ValueError(f"unknown stability mode {mode!r}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLReport:
    """One Prekopa-Leindler instance: integrals, deficit, error law and the
    joint (a, b) normalization with both one-sided L1 distances (each
    normalized by int m).  ``vacuous`` flags omega(eps) >= 1, where the
    stability bound carries no information."""

    integral_m: float
    integral_f: float
    integral_g: float
    deficit: float
    omega_bound: float
    a: float
    b: float
    l1_f: float
    l1_g: float
    vacuous: bool


def pl_report(f: GridFn1D, g: GridFn1D, mean="arithmetic", m: GridFn1D | None = None) -> PLReport:
    """Deficit and stability summary for a pair (f, g).

    m defaults to the minimal midpoint function.  The (a, b) pair is fitted
    jointly: f is compared against a m(t + b) and g against (1/a) m(t - b)
    in shift form (arithmetic mean), or a m(b t) and (1/a) m(t / b) in scale
    form (geometric mean).
    """
    if m is None:
        m = sup_convolution_midpoint(f, g, mean)
    eps = pl_deficit(f, g, m)
    int_m = integral(m)
    if mean in ("arithmetic", "arith"):
        a0 = integral(f) / int_m
        b0 = mean_abscissa(m) - mean_abscissa(f)

        def obj(p):
            a = math.exp(p[0])
            return (_shift_l1(f, m, a, p[1]) + _shift_l1(g, m, 1.0 / a, -p[1]))

        span_b = 0.25 * (f.grid[-1] - f.grid[0])
        res = _multistart_minimize(obj, [math.log(max(a0, 1e-12)), b0], [0.5, span_b],
                                   [math.log(max(a0, 1e-12)), b0])
        a, b = math.exp(res.x[0]), float(res.x[1])
        l1f = _shift_l1(f, m, a, b) / int_m
        l1g = _shift_l1(g, m, 1.0 / a, -b) / int_m
    elif mean in ("geometric", "geom"):
        b0 = mean_abscissa(m) / mean_abscissa(f)
        a0 = b0 * integral(f) / int_m

        def obj(p):
            a, b = math.exp(p[0]), math.exp(p[1])
            return (_scale_l1(f, m, a, b) + _scale_l1(g, m, 1.0 / a, 1.0 / b))

        x0 = [math.log(max(a0, 1e-12)), math.log(max(b0, 1e-12))]
        res = _multistart_minimize(obj, x0, [0.5, 0.5], x0)
        a, b = math.exp(res.x[0]), math.exp(res.x[1])
        l1f = _scale_l1(f, m, a, b) / int_m
        l1g = _scale_l1(g, m, 1.0 / a, 1.0 / b) / int_m
    else:
        raise ValueError(f"unknown mean {mean!r}")
    om = omega(eps) if eps > 0 else 0.0
    return PLReport(
        integral_m=int_m,
        integral_f=integral(f),
        integral_g=integral(g),
        deficit=eps,
        omega_bound=om,
        a=a,
        b=b,
        l1_f=l1f,
        l1_g=l1g,
        vacuous=bool(om >= 1.0),
    )
