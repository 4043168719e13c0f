"""One-dimensional Prekopa-Leindler engine.

The central object is the pointwise-minimal midpoint function
``m*(t) = sup { sqrt(f(r) g(s)) : mean(r, s) = t }`` for the arithmetic or
geometric mean, together with its integral deficit and the L1 stability
distance of f from an affinely adjusted m.  All half-line work, the
geometric midpoint and the scale-form fit alike, reduces to the arithmetic,
shift form through the substitution h(x) = H(e^x) e^x, which maps half-line
problems to whole-line ones while preserving integrals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bodies import (_ends_closed, _handover, _readonly, _trapezoid, bounded_minimize,
                     merge_indices)
from .errors import EmptyFunctionError, InvalidDataError

WHOLE_LINE = "whole-line"
HALF_LINE = "half-line"


# perfbench's tracer patches minimize and minimize_scalar here by name, so
# these shims stay until ROADMAP item 1 drops that.  Nothing in the package
# calls them; they are its only import of scipy, a test dependency, made
# when something asks for them (ImportError where scipy is not installed)
def __getattr__(name):
    if name in ("minimize", "minimize_scalar"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    The grid bounds the support: the function is 0 outside it, so it steps
    to 0 at a grid end where it is nonzero.  Integrals are trapezoid sums
    over the stored grid, and L1 distances keep the same steps.
    ``log_concave=True`` is the caller's assertion, checked here; no
    computation reads it, and no derived function carries it.
    """

    grid: np.ndarray
    values: np.ndarray
    domain: str = WHOLE_LINE
    log_concave: bool = False

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
        object.__setattr__(self, "grid", _readonly(g, self.grid))
        object.__setattr__(self, "values", _readonly(v, self.values))

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
    i, j = merge_indices(order, na - 1)
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

    Arithmetic mode takes the max-plus of the logs on one equal-step
    lattice (``_max_plus``: a slope merge on concave cores); the output
    lives on a twice-refined lattice covering the mean-closure of the
    supports, so the midpoint set is captured without aliasing.  Geometric
    mode (half-line inputs) reduces to arithmetic mode on log-spaced grids.
    """
    if mean == "geometric":
        if f.domain != HALF_LINE or g.domain != HALF_LINE:
            raise ValueError("geometric-mean mode needs half-line functions")
        hf = exp_substitution(f)
        hg = exp_substitution(g)
        mid = sup_convolution_midpoint(hf, hg, "arithmetic")
        u = np.exp(mid.grid)
        return GridFn1D(_handover(u), _handover(mid.values / u), HALF_LINE)
    if mean != "arithmetic":
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
    domain = HALF_LINE if (f.domain == HALF_LINE and g.domain == HALF_LINE) else WHOLE_LINE
    return GridFn1D(_handover(grid), _handover(np.exp(ls)), domain)


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

    Change of variables preserves the integral.  A decreasing log-concave H
    gives a log-concave h, which carries no ``log_concave`` flag.
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
    return GridFn1D(_handover(np.log(g)), _handover(v * g), WHOLE_LINE)


# ---------------------------------------------------------------------------
# stability distance
# ---------------------------------------------------------------------------


class _Work:
    """Temporaries carved from one float array: ``work(n)`` is the next n
    entries, ``work(n, rows)`` the next rows * n as a (rows, n) array, and
    ``reset()`` hands the array out again from its start.  When a request
    does not fit, a new array twice the size used so far takes over; views
    already handed out keep the old one alive.

    A fit evaluates its sum about 150 times, on unions of up to thousands of
    nodes, with a reset before each evaluation: the first one sizes the
    array and the others allocate in it.  Fresh temporaries on every
    evaluation would take and free about 1 MiB each time, which the C
    allocator may hand back to the system and fault in again on the next
    evaluation."""

    def __init__(self):
        self._array = np.empty(0)
        self._used = 0

    def reset(self):
        self._used = 0

    def __call__(self, n, rows=None):
        start = self._used
        self._used += n if rows is None else rows * n
        if self._used > len(self._array):
            self._array = np.empty(2 * self._used)
        a = self._array[start:self._used]
        return a if rows is None else a.reshape(rows, n)


def _union(xa, va, xb, vb, work=None):
    """(xs, A, B): the union of the increasing grids xa and xb, with the
    piecewise-linear A (values va on xa) and B (vb on xb), both zero outside
    their grids, interpolated onto it.  Each grid brings a node one ulp
    outside each nonzero end (bodies._ends_closed), so a trapezoid sum on xs
    steps to 0 there, as the function's own integral does, whatever the
    other grid.  The concatenation is two sorted runs, which a stable sort
    merges in linear time, in an array from ``work``."""
    work = _Work() if work is None else work
    xs = work(len(xa) + len(xb) + 4)
    n = len(_ends_closed(xa, va, xs))
    xs = xs[:n + len(_ends_closed(xb, vb, xs[n:]))]
    xs.sort(kind="stable")
    same = xs[1:] == xs[:-1]
    if same.any():
        xs = xs[np.append(True, ~same)]
    return (xs, np.interp(xs, xa, va, left=0.0, right=0.0),
            np.interp(xs, xb, vb, left=0.0, right=0.0))


def _l1_between(xa, va, xb, vb):
    """int |A - B| for A on xa and B on xb by the trapezoid rule on the union
    of the grids; the sum is numpy's own trapezoid, term for term."""
    xs, A, B = _union(xa, va, xb, vb)
    y = np.abs(A - B)
    return float(np.add.reduce(np.diff(xs) * (y[1:] + y[:-1]) / 2.0))


def _shift_l1(f: GridFn1D, m: GridFn1D, a: float, b: float) -> float:
    """int |f(t) - a m(t + b)| dt."""
    return _l1_between(f.grid, f.values, m.grid - b, a * m.values)


def _trapezoid_weights(xs, work):
    d = np.subtract(xs[1:], xs[:-1], out=work(len(xs) - 1))
    d /= 2.0
    w = work(len(xs))
    w[:-1] = d
    w[-1] = 0.0
    w[1:] += d
    return w


def _nonzero_terms(w, P, Q):
    """(w, P, Q) without the terms where P and Q are both zero: views when
    the kept terms are one run, as they are for two functions with
    overlapping supports, else copies."""
    keep = (P > 0) | (Q > 0)
    i, j = int(keep.argmax()), len(keep) - int(keep[::-1].argmax())
    if keep[i:j].all():
        return w[i:j], P[i:j], Q[i:j]
    return w[keep], P[keep], Q[keep]


def _on_intervals(c, s):
    """s[i] = sum of c[i:] - sum of c[:i]: a term's coefficient summed with
    its sign on interval i, which lies above the first i breakpoints."""
    s[0] = 0.0
    c.cumsum(out=s[1:])
    total = s[-1]
    s *= 2.0
    np.subtract(total, s, out=s)


def _best_amplitude(f_part, g_part=None, work=None):
    """(a, value) minimizing sum_k w_k |F_k - a M_k| + sum_j w'_j |G_j - M'_j / a|
    over a > 0, where f_part = (xs, F, M) and g_part = (xs', G, M') are
    summed by the trapezoid rule on their grids.

    Term k changes form at its breakpoint F_k / M_k, term j at M'_j / G_j
    (infinite when the divisor is zero or the quotient overflows: then it
    never changes).  Between consecutive breakpoints the sum is
    alpha + beta a + gamma / a, with coefficients from cumulative sums over
    the sorted breakpoints, so its minimum lies at a breakpoint or at an
    interior sqrt(gamma / beta).  The candidates are ranked by that closed
    form and the winner's value is summed directly, over every term.  Where
    no candidate is finite and positive (supports that only touch), a = 1.
    Float temporaries live in ``work``."""
    work = _Work() if work is None else work
    parts = [(f_part, False)] + ([] if g_part is None else [(g_part, True)])
    parts = [(_trapezoid_weights(xs, work), P, Q, inverse) for (xs, P, Q), inverse in parts]
    terms = [_nonzero_terms(w, P, Q) + (inverse,) for w, P, Q, inverse in parts]
    n_f = len(terms[0][1])
    n = n_f + (len(terms[1][1]) if g_part is not None else 0)
    bp, c_const, c_slope, t, bp_sorted = work(n, 5)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for (w, P, Q, inverse), s in zip(terms, (slice(0, n_f), slice(n_f, n))):
            # each term's coefficients below its breakpoint
            if inverse:  # w |P - Q / a| = w (Q / a - P) for a < Q / P
                np.divide(Q, P, out=bp[s])
                np.negative(np.multiply(w, P, out=c_const[s]), out=c_const[s])
                np.multiply(w, Q, out=c_slope[s])
            else:  # w |P - a Q| = w (P - a Q) for a < P / Q
                np.divide(P, Q, out=bp[s])
                np.multiply(w, P, out=c_const[s])
                np.negative(np.multiply(w, Q, out=c_slope[s]), out=c_slope[s])
        order = bp.argsort(kind="stable")
        bp = bp.take(order, out=bp_sorted)
        al, be, ga, root = work(n + 1, 4)
        _on_intervals(c_const.take(order, out=t), al)
        c_slope = c_slope.take(order, out=t)
        # without g every term is of f, so gamma is 0 and no root is inside
        of_f = order < n_f
        split = c_const  # free once al is summed
        np.copyto(split, 0.0)
        np.copyto(split, c_slope, where=of_f)
        _on_intervals(split, be)
        np.copyto(split, c_slope)
        np.copyto(split, 0.0, where=of_f)
        _on_intervals(split, ga)
        np.sqrt(np.divide(ga, be, out=root), out=root)
        inside = (be > 0) & (ga > 0)
        inside[1:] &= root[1:] > bp
        inside[:-1] &= root[:-1] < bp
        r = root[inside]
        cand, val = work(n + len(r), 2)
        cand[:n], cand[n:] = bp, r
        v = np.multiply(be[1:], bp, out=val[:n])
        v += al[1:]
        v += np.divide(ga[1:], bp, out=t)
        val[n:] = al[inside] + be[inside] * r + ga[inside] / r
        ok = (cand > 0) & (cand < np.inf) & (val < np.inf)
    if ok.any():
        # the first least value among the admissible candidates
        np.copyto(val, np.inf, where=~ok)
        a = float(cand[val.argmin()])
    else:
        a = 1.0
    total = 0.0
    for w, P, Q, inverse in parts:
        y = work(len(P))
        y = np.divide(Q, a, out=y) if inverse else np.multiply(Q, a, out=y)
        np.subtract(P, y, out=y)
        total += float(np.dot(w, np.abs(y, out=y)))
    return a, total


def _offset_objective(f: GridFn1D, m: GridFn1D, g: GridFn1D | None = None):
    """best(q) -> (a, value): _best_amplitude on f against m(t + q) and, with
    g, g against m(t - q).  Every call reuses one _Work."""
    work = _Work()

    def best(q):
        work.reset()
        f_part = _union(f.grid, f.values, np.subtract(m.grid, q, out=work(len(m.grid))),
                        m.values, work)
        g_part = None if g is None else _union(
            g.grid, g.values, np.add(m.grid, q, out=work(len(m.grid))), m.values, work)
        return _best_amplitude(f_part, g_part, work)

    return best


_SCAN_POINTS = 41  # over the overlap range
_START_POINTS = 21  # over the box around the moment-matched start
_POLISH_POINTS = 17  # over one grid cell either side
_BRACKETS = 3


def _scan_minimize(objective, qs, q0, brackets, xatol=1e-12):
    """(q, objective(q)) near the minimum of objective over [qs[0], qs[-1]]:
    objective on the increasing scan qs (at least two points), then a
    bounded Brent search between the neighbours of each of the ``brackets``
    lowest local minima of that scan.  Of the searched minima within
    rounding of the best, the one nearest q0 wins, so flat valleys give a
    deterministic answer."""
    vals = [objective(q) for q in qs]
    n = len(qs)
    found = []
    for k in np.argsort(vals, kind="stable"):
        lo, hi = max(k - 1, 0), min(k + 1, n - 1)
        if min(vals[lo], vals[hi]) >= vals[k]:
            found.append(bounded_minimize(objective, qs[lo], qs[hi], xatol)[:2])
            if len(found) == brackets:
                break
    best = min(v for _, v in found)
    eligible = [r for r in found if r[1] <= best + 1e-12 * (1.0 + abs(best))]
    return min(eligible, key=lambda r: abs(r[0] - q0))


def _support_ends(h: GridFn1D):
    """First and last abscissa of h's positivity set."""
    pos = np.flatnonzero(h.values > 0)
    return float(h.grid[pos[0]]), float(h.grid[pos[-1]])


def _mean_cell(h: GridFn1D):
    """Width of h's grid cell at its mean abscissa."""
    k = int(np.clip(np.searchsorted(h.grid, mean_abscissa(h)), 1, len(h.grid) - 1))
    return float(h.grid[k] - h.grid[k - 1])


def _fit(f: GridFn1D, m: GridFn1D, g: GridFn1D | None = None):
    """((a, b), l1_f, l1_g) minimizing int |f(t) - a m(t + b)| dt, plus, with
    g, int |g(t) - (1/a) m(t - b)| dt; without g, l1_g is None.  The L1s are
    not normalized; each is the trapezoid sum of _l1_between at (a, b).
    Half-line fits run on exp_substitution outputs, in this form.

    For each offset b the best a is exact (_best_amplitude).  _scan_minimize
    searches b over the offsets at which the moved support of m overlaps that
    of f (and of g, where both can), and more finely over the start box: one
    standard deviation of f's mass either side of the moment-matched start
    q0, which moves the mean of m onto that of f.  Brent's search stops at a
    quarter of a grid cell; a second scan over one grid cell either side of
    the result and _kink_vertex polish it.  Ties go to the offset nearest
    q0.  The sum is continuous in b: _union keeps every nonzero grid end a
    step.
    """
    (f0, f1), (m0, m1) = _support_ends(f), _support_ends(m)
    lo, hi = m0 - f1, m1 - f0
    cell = max(_mean_cell(f), _mean_cell(m))
    if g is not None:
        g0, g1 = _support_ends(g)
        if max(lo, g0 - m1) < min(hi, g1 - m0):
            lo, hi = max(lo, g0 - m1), min(hi, g1 - m0)
        cell = max(cell, _mean_cell(g))
    mean_f = mean_abscissa(f)
    q0 = mean_abscissa(m) - mean_f
    d = f.grid - mean_f
    box = math.sqrt(float(_trapezoid(d * d * f.values, f.grid)) / integral(f))  # f's std. dev.

    best = _offset_objective(f, m, g)

    def value(q):
        return best(q)[1]

    qs = np.union1d(np.linspace(lo, hi, _SCAN_POINTS),
                    np.linspace(max(lo, q0 - box), min(hi, q0 + box), _START_POINTS))
    q, v = _scan_minimize(value, qs, q0, _BRACKETS, cell / 4)
    # in offsets u from q, so that Brent's tolerance, relative to |u|, is fine
    u, v = _scan_minimize(lambda u: value(q + u), cell * np.linspace(-1.0, 1.0, _POLISH_POINTS),
                          q0 - q, _BRACKETS, 1e-9 * cell)
    q += u
    for t in (1e-8 * cell, 1e-12 * cell):  # Brent stops within t of a kink
        q, v = _kink_vertex(lambda u: value(q + u), t, v, q)
    a = best(q)[0]
    return (a, q), _shift_l1(f, m, a, q), None if g is None else _shift_l1(g, m, 1.0 / a, -q)


def _kink_vertex(objective, t, v, q):
    """(q + u, objective(u)) at the vertex of a V-shaped minimum near u = 0,
    where the secants through -2t, -t and t, 2t cross, when that beats
    (q, v); else (q, v).  Brent's search stops at a relative tolerance, and
    at a kink the sum grows linearly in the distance to it."""
    y = [objective(u) for u in (-2.0 * t, -t, t, 2.0 * t)]
    left, right = (y[1] - y[0]) / t, (y[3] - y[2]) / t
    if not left < 0.0 < right:
        return q, v
    u = (y[2] - y[1] + (left + right) * t) / (left - right)
    if not -t < u < t:
        return q, v
    vu = objective(u)
    return (q + u, vu) if vu < v else (q, v)


def stability_distance(f: GridFn1D, m: GridFn1D, mode="shift", constrain_equal=False):
    """Minimize the L1 distance between f and an adjusted copy of m.

    shift mode: min over (a, b) of int |f(t) - a m(t + b)| dt, a > 0.
    scale mode: min over (a, b > 0) of int |f(t) - a m(b t)| dt (half-line).
    ``constrain_equal`` ties a = b in scale mode (ValueError in shift mode).
    Returns (a, b, l1) with the distance normalized by int m.

    Scale mode is shift mode on h = exp_substitution(f) and exp_substitution(m):
    int |f(t) - a m(b t)| dt = int |h_f(x) - (a/b) h_m(x + ln b)| dx, so the
    shift fit (A, q) of the substituted pair is returned as (A e^q, e^q), with
    its L1 normalized by int h_m; a = b is the unit-amplitude shift scan.  A
    grid that touches 0 is truncated there, as in the geometric midpoint.
    """
    if constrain_equal and mode != "scale":
        raise ValueError(f"constrain_equal needs scale mode, not {mode!r}")
    if mode not in ("shift", "scale"):
        raise ValueError(f"unknown stability mode {mode!r}")
    if mode == "scale":
        if f.domain != HALF_LINE or m.domain != HALF_LINE:
            raise ValueError("scale mode needs half-line functions")
        f, m = exp_substitution(f), exp_substitution(m)
    int_f, int_m = integral(f), integral(m)
    if int_f <= 0 or int_m <= 0:
        raise EmptyFunctionError("stability distance needs positive integrals")
    if constrain_equal:
        q0 = mean_abscissa(m) - mean_abscissa(f)
        a = 1.0
        q, l1 = _scan_minimize(lambda q: _shift_l1(f, m, a, q),
                               np.linspace(q0 - 2.5, q0 + 2.5, 41), q0, 1)
    else:
        (a, q), l1, _ = _fit(f, m)
    if mode == "shift":
        return a, q, l1 / int_m
    b = math.exp(q)
    return a * b, b, float(l1) / int_m


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
    for the arithmetic mean.  For the geometric mean (half-line functions)
    the same fit runs on the exp_substitution outputs of f, g and m, and its
    (A, q) is reported as (a, b) = (A e^q, e^q): f is compared against
    a m(b t) and g against (1/a) m(t / b), as in stability_distance's scale
    mode, and the L1s are normalized by the integral of the substituted m.
    The deficit and the integrals are those of f, g and m as given.
    """
    if mean not in ("arithmetic", "geometric"):
        raise ValueError(f"unknown mean {mean!r}")
    if m is None:
        m = sup_convolution_midpoint(f, g, mean)
    eps = pl_deficit(f, g, m)
    hf, hg, hm = (f, g, m) if mean == "arithmetic" else map(exp_substitution, (f, g, m))
    (a, b), l1f, l1g = _fit(hf, hm, hg)
    if mean == "geometric":
        a, b = a * math.exp(b), math.exp(b)
    int_hm = integral(hm)
    om = omega(eps) if eps > 0 else 0.0
    return PLReport(
        integral_m=integral(m),
        integral_f=integral(f),
        integral_g=integral(g),
        deficit=eps,
        omega_bound=om,
        a=a,
        b=b,
        l1_f=l1f / int_hm,
        l1_g=l1g / int_hm,
        vacuous=bool(om >= 1.0),
    )
