import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PAIR_GRID,
    make_logconcave,
    probability_gridfn,
    random_decreasing_logconcave,
    random_logconcave_pair,
)
from stabgeo import pl1d
from stabgeo.errors import EmptyFunctionError
from stabgeo.pl1d import (
    HALF_LINE,
    GridFn1D,
    exp_substitution,
    integral,
    omega,
    pl_deficit,
    pl_report,
    stability_distance,
    sup_convolution_midpoint,
)

INDICATOR_DEFICIT = 3.0 / (2.0 * math.sqrt(2.0)) - 1.0  # int m = 3, sqrt(2*4)
OMEGA_AT_EXP_MINUS_3 = math.exp(-1.0) * 3.0 ** (4.0 / 3.0)
_trapz = getattr(np, "trapezoid", None) or np.trapz


def gaussian(samples=4097, half_width=6.0):
    x = np.linspace(-half_width, half_width, samples)
    return GridFn1D(x, np.exp(-x * x), log_concave=True)


# ---------------------------------------------------------------------------
# GridFn1D validation
# ---------------------------------------------------------------------------


def test_gridfn_validation():
    with pytest.raises(ValueError):
        GridFn1D(np.array([0.0, 0.0, 1.0]), np.ones(3))  # non-increasing grid
    with pytest.raises(ValueError):
        GridFn1D(np.array([0.0, 1.0]), np.array([1.0, -0.5]))  # negative value
    with pytest.raises(ValueError):
        GridFn1D(np.array([-1.0, 1.0]), np.ones(2), domain=HALF_LINE)
    with pytest.raises(ValueError):  # not a probability
        GridFn1D(np.array([0.0, 1.0]), np.array([3.0, 3.0]), probability=True)
    with pytest.raises(ValueError):  # flagged log-concave but convex in log
        x = np.linspace(-1, 1, 51)
        GridFn1D(x, np.exp(x * x), log_concave=True)


# ---------------------------------------------------------------------------
# sup-convolution midpoint
# ---------------------------------------------------------------------------


def test_supconv_gaussian_equality():
    f = gaussian()
    m = sup_convolution_midpoint(f, f)
    assert m.log_concave
    assert float(np.max(np.abs(m.at(f.grid) - f.values))) <= 1e-12


def test_supconv_indicators():
    xf = np.linspace(-1.0, 1.0, 2001)
    xg = np.linspace(-2.0, 2.0, 4001)
    f = GridFn1D(xf, np.ones_like(xf), log_concave=True)
    g = GridFn1D(xg, np.ones_like(xg), log_concave=True)
    m = sup_convolution_midpoint(f, g)
    # midpoints of [-1,1] x [-2,2] fill [-1.5, 1.5]
    assert m.grid[0] == pytest.approx(-1.5, abs=1e-12)
    assert m.grid[-1] == pytest.approx(1.5, abs=1e-9)
    assert pl_deficit(f, g, m) == pytest.approx(INDICATOR_DEFICIT, abs=1e-9)


def test_supconv_geometric_interval():
    u = np.geomspace(1.0, 4.0, 1025)
    F = GridFn1D(u, np.ones_like(u), HALF_LINE, log_concave=True)
    M = sup_convolution_midpoint(F, F, "geometric")
    assert M.grid[0] == pytest.approx(1.0, abs=1e-9)
    assert M.grid[-1] == pytest.approx(4.0, abs=1e-9)
    assert float(np.min(M.values)) >= 1.0 - 1e-9
    assert float(np.max(M.values)) <= 1.0 + 1e-9


def test_supconv_empty_function():
    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(EmptyFunctionError):
        sup_convolution_midpoint(GridFn1D(x, np.zeros_like(x)), gaussian())


def test_supconv_minimality():
    rng = np.random.default_rng(0)
    f, g = random_logconcave_pair(rng)
    m = sup_convolution_midpoint(f, g)
    # independent oracle: direct maximization of sqrt(f(r) g(2t - r)) over a
    # dense r sweep that contains both sample lattices
    for t in m.grid[::512]:
        r = np.union1d(np.union1d(f.grid, 2.0 * t - g.grid),
                       np.linspace(PAIR_GRID[0], PAIR_GRID[-1], 20001))
        direct = float(np.max(np.sqrt(f.at(r) * g.at(2.0 * t - r))))
        assert m.at(t) <= direct + 1e-9
    # every inflated valid midpoint dominates the minimal one
    for k in range(20):
        bump = 1.0 + rng.uniform(0.0, 1.0)
        inflated = GridFn1D(m.grid, m.values * bump)
        assert np.all(inflated.values >= m.values)


def test_supconv_log_concavity_closure():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f, g = random_logconcave_pair(rng)
        m = sup_convolution_midpoint(f, g)
        assert m.log_concave
        assert pl1d._log_concave_ok(m.grid, m.values, tol=1e-7)


# ---------------------------------------------------------------------------
# max-plus kernel
# ---------------------------------------------------------------------------


def naive_max_plus(la, lb):
    """Oracle: out[i + j] = max of la[i] + lb[j], one row of sums at a time."""
    out = np.full(len(la) + len(lb) - 1, -np.inf)
    for i, a in enumerate(la):
        row = out[i:i + len(lb)]
        np.maximum(row, a + lb, out=row)
    return out


def assert_bitwise(got, want):
    # + 0.0 maps -0.0 to 0.0: the sign of a zero maximum depends on the
    # order of comparison, and logs of data never produce -0.0
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


_VALUES = st.floats(min_value=-50.0, max_value=50.0)
_SLOPES = st.floats(min_value=-20.0, max_value=20.0)
# non-dyadic slopes shared by both sequences: cumulative sums carry rounding
# noise, so the two runs of one slope differ in the last bits
_TIED_SLOPES = st.sampled_from([-3.0, -0.7, -0.1, 0.0, 0.1, 0.7, 3.0])
# -inf (a zero) and logs of subnormal values
_TAIL = st.one_of(st.just(-np.inf), st.floats(min_value=-745.0, max_value=-708.5))


@st.composite
def concave_logs(draw, slopes=_SLOPES, max_size=40):
    start = draw(_VALUES)
    d = sorted(draw(st.lists(slopes, max_size=max_size)), reverse=True)
    return start + np.concatenate(([0.0], np.cumsum(d)))


@st.composite
def with_tails(draw, core):
    left = draw(st.lists(_TAIL, max_size=3))
    right = draw(st.lists(_TAIL, max_size=3))
    return np.concatenate((left, draw(core), right))


_GENERAL = st.lists(st.one_of(_VALUES, st.just(-np.inf)), min_size=1, max_size=40).map(np.array)
_CONSTANT = st.builds(np.full, st.integers(1, 40), _VALUES)
_ANY = st.one_of(concave_logs(), concave_logs(_TIED_SLOPES), _GENERAL, _CONSTANT,
                 with_tails(concave_logs()))


@settings(max_examples=300, deadline=None)
@given(concave_logs(), concave_logs())
def test_max_plus_concave_matches_oracle(la, lb):
    assert_bitwise(pl1d._max_plus(la, lb), naive_max_plus(la, lb))


@settings(max_examples=300, deadline=None)
@given(concave_logs(_TIED_SLOPES), concave_logs(_TIED_SLOPES))
def test_max_plus_tied_slopes_match_oracle(la, lb):
    assert_bitwise(pl1d._max_plus(la, lb), naive_max_plus(la, lb))


@settings(max_examples=300, deadline=None)
@given(with_tails(concave_logs()), with_tails(concave_logs()))
def test_max_plus_tails_match_oracle(la, lb):
    assert_bitwise(pl1d._max_plus(la, lb), naive_max_plus(la, lb))


@settings(max_examples=300, deadline=None)
@given(_ANY, _ANY)
def test_max_plus_any_pair_matches_oracle(la, lb):
    assert_bitwise(pl1d._max_plus(la, lb), naive_max_plus(la, lb))


@settings(max_examples=100, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=2).map(np.array), _ANY)
def test_max_plus_lengths_one_and_two(la, lb):
    assert_bitwise(pl1d._max_plus(la, lb), naive_max_plus(la, lb))
    assert_bitwise(pl1d._max_plus(lb, la), naive_max_plus(lb, la))


def test_max_plus_long_and_short_in_both_orders():
    rng = np.random.default_rng(3)
    x = np.linspace(-8.0, 8.0, 5121)
    concave = -0.5 * (x - 0.3) ** 2
    general = rng.normal(size=5121)
    for long in (concave, general):
        for short in (-np.abs(x[::400]), rng.normal(size=13), np.zeros(1)):
            assert_bitwise(pl1d._max_plus(long, short), naive_max_plus(long, short))
            assert_bitwise(pl1d._max_plus(short, long), naive_max_plus(short, long))
    assert_bitwise(pl1d._max_plus(general[:700], general[-700:]),
                   naive_max_plus(general[:700], general[-700:]))


def test_max_plus_exhaustive_only_on_tails(monkeypatch):
    """Criterion-6 style pairs: the cores go through the slope merge and the
    exhaustive kernel sees only the few subnormal tail samples."""
    shapes = []
    exhaustive = pl1d._max_plus_antidiagonal

    def counting(la, lb):
        shapes.append((len(la), len(lb)))
        return exhaustive(la, lb)

    monkeypatch.setattr(pl1d, "_max_plus_antidiagonal", counting)
    rng = np.random.default_rng(99)
    for _ in range(10):
        F = random_decreasing_logconcave(rng)
        G = random_decreasing_logconcave(rng)
        sup_convolution_midpoint(F, G, "geometric")
    assert shapes, "no pair had a subnormal tail"
    assert max(min(shape) for shape in shapes) <= 32


@pytest.mark.parametrize("na, nb", [(5121, 13), (13, 5121)])
def test_max_plus_memory_is_bounded(na, nb):
    rng = np.random.default_rng(5)
    x = np.linspace(-8.0, 8.0, max(na, nb))
    pairs = [(rng.normal(size=na), rng.normal(size=nb)),
             (-x[:na] ** 2, -np.abs(x[:nb]))]
    for la, lb in pairs:
        tracemalloc.start()
        try:
            pl1d._max_plus(la, lb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


# ---------------------------------------------------------------------------
# deficit
# ---------------------------------------------------------------------------


def test_deficit_equality_case():
    f = gaussian()
    assert abs(pl_deficit(f, f, f)) <= 1e-8


def test_deficit_zero_integral_rejected():
    x = np.linspace(0.0, 1.0, 11)
    z = GridFn1D(x, np.zeros_like(x))
    with pytest.raises(ValueError):
        pl_deficit(z, gaussian(), gaussian())


def test_deficit_direction_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(60):
        f, g = random_logconcave_pair(rng)
        m = sup_convolution_midpoint(f, g)
        assert pl_deficit(f, g, m) >= -1e-8


# ---------------------------------------------------------------------------
# omega error law
# ---------------------------------------------------------------------------


def test_omega_values():
    assert omega(math.exp(-3.0)) == pytest.approx(OMEGA_AT_EXP_MINUS_3, rel=1e-12)
    assert omega(1.0) == 0.0
    assert omega(0.0) == 0.0
    with pytest.raises(ValueError):
        omega(-1e-9)


def test_omega_monotone_below_exp_minus_4():
    eps = np.geomspace(1e-12, math.exp(-4.0), 40)
    vals = [omega(e) for e in eps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# exp substitution
# ---------------------------------------------------------------------------


def test_exp_substitution_indicator():
    u = np.geomspace(1e-8, 1.0, 8193)
    H = GridFn1D(u, np.ones_like(u), HALF_LINE, log_concave=True)
    h = exp_substitution(H)
    assert h.domain == pl1d.WHOLE_LINE
    assert float(np.max(np.abs(h.values - np.exp(h.grid)))) <= 1e-12
    assert integral(h) == pytest.approx(1.0, abs=1e-6)


def test_exp_substitution_gumbel_shape():
    u = np.geomspace(1e-6, 40.0, 4097)
    H = GridFn1D(u, np.exp(-u), HALF_LINE, log_concave=True)
    h = exp_substitution(H)
    expect = np.exp(h.grid - np.exp(h.grid))
    assert float(np.max(np.abs(h.values - expect))) <= 1e-12
    assert h.log_concave


def test_exp_substitution_truncates_at_zero():
    u = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 64)])
    H = GridFn1D(u, np.ones_like(u), HALF_LINE)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        h = exp_substitution(H)
    assert any("truncat" in str(x.message) for x in w)
    assert h.grid[0] == pytest.approx(math.log(1e-6))


def test_exp_substitution_flag_sweep():
    rng = np.random.default_rng(3)
    for _ in range(30):
        H = random_decreasing_logconcave(rng)
        h = exp_substitution(H)
        assert h.log_concave
        assert pl1d._log_concave_ok(h.grid, h.values)


def test_substitution_equivalence():
    rng = np.random.default_rng(4)
    for _ in range(10):
        F = random_decreasing_logconcave(rng)
        G = random_decreasing_logconcave(rng)
        Mg = sup_convolution_midpoint(F, G, "geometric")
        eps_geom = pl_deficit(F, G, Mg)
        f, g = exp_substitution(F), exp_substitution(G)
        eps_arith = pl_deficit(f, g, sup_convolution_midpoint(f, g))
        assert eps_geom == pytest.approx(eps_arith, abs=1e-6)


# ---------------------------------------------------------------------------
# stability distance
# ---------------------------------------------------------------------------


def _l1_between_union(xa, va, xb, vb):
    """The union-grid L1 formula the merged kernel replaced (oracle)."""
    xs = np.union1d(xa, xb)
    d = np.interp(xs, xa, va, left=0.0, right=0.0) - np.interp(xs, xb, vb, left=0.0, right=0.0)
    return float(_trapz(np.abs(d), xs))


_OFFSETS = st.floats(min_value=-3.0, max_value=3.0)


@st.composite
def l1_pairs(draw):
    """Two grids on [-3, 3] with values: a shared grid, a shifted or scaled
    copy (the stability-distance calls), or two independent uniform grids."""
    n = draw(st.integers(2, 120))
    xa = np.linspace(-3.0, 3.0, n)
    kind = draw(st.sampled_from(["shared", "shifted", "scaled", "uniform"]))
    if kind == "shared":
        xb = xa.copy()
    elif kind == "shifted":
        xb = np.linspace(-3.0, 3.0, draw(st.integers(2, 120))) - draw(_OFFSETS)
    elif kind == "scaled":
        xb = xa / draw(st.floats(min_value=0.2, max_value=5.0))
    else:
        xb = np.unique(np.array(draw(st.lists(_OFFSETS, min_size=2, max_size=120))))
        if len(xb) < 2:
            xb = np.array([-1.0, 1.0])
    va = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    vb = np.exp(-xb * xb) * draw(st.floats(min_value=0.1, max_value=10.0))
    return xa, va, xb, vb


@settings(max_examples=400, deadline=None)
@given(l1_pairs())
def test_l1_between_matches_union_oracle(pair):
    xa, va, xb, vb = pair
    assert pl1d._l1_between(xa, va, xb, vb) == _l1_between_union(xa, va, xb, vb)
    assert pl1d._l1_between(xb, vb, xa, va) == _l1_between_union(xb, vb, xa, va)


def test_stability_identity():
    m = gaussian()
    a, b, l1 = stability_distance(m, m, "shift")
    assert abs(a - 1.0) <= 1e-6 and abs(b) <= 1e-6 and l1 <= 1e-6


def test_stability_shift_recovery():
    x = np.linspace(-6.0, 6.0, 4001)  # step 0.003 so the shift is on-grid
    m = GridFn1D(x, np.exp(-x * x), log_concave=True)
    f = GridFn1D(x, np.exp(-(x - 0.3) ** 2), log_concave=True)
    a, b, l1 = stability_distance(f, m, "shift")
    assert a == pytest.approx(1.0, abs=1e-6)
    assert abs(b) == pytest.approx(0.3, abs=1e-6)
    assert l1 <= 1e-6


def test_stability_scale_recovery():
    t = np.linspace(5e-4, 20.0, 4001)
    M = GridFn1D(t, np.exp(-t), HALF_LINE, log_concave=True)
    F = GridFn1D(t / 3.0, 2.0 * np.exp(-t), HALF_LINE, log_concave=True)
    a, b, l1 = stability_distance(F, M, "scale")
    assert a == pytest.approx(2.0, abs=1e-6)
    assert b == pytest.approx(3.0, abs=1e-6)
    assert l1 <= 1e-6


def test_stability_scale_constrained():
    t = np.linspace(5e-4, 20.0, 2001)
    M = GridFn1D(t, np.exp(-t), HALF_LINE, log_concave=True)
    F = GridFn1D(t / 2.0, 2.0 * np.exp(-t), HALF_LINE, log_concave=True)
    a, b, l1 = stability_distance(F, M, "scale", constrain_equal=True)
    assert a == b
    assert a == pytest.approx(2.0, abs=1e-6)
    assert l1 <= 1e-6


def test_stability_tiebreak_deterministic():
    # flat valley: indicator vs indicator leaves a plateau of minimizers
    x = np.linspace(-4.0, 4.0, 1601)
    f = make_logconcave(x, "indicator", 0.0, 1.0)
    m = make_logconcave(x, "indicator", 0.0, 2.0)
    out1 = stability_distance(f, m, "shift")
    out2 = stability_distance(f, m, "shift")
    assert out1 == out2


def test_normalization_remark_near_equality():
    # log-concave probability densities with equal means: the optimizer's
    # (a, b) approaches (1, 0) as the pair approaches equality
    x = np.linspace(-8.0, 8.0, 3201)
    for shape in ("gauss", "laplace"):
        if shape == "gauss":
            f = probability_gridfn(x, np.exp(-x * x / (2 * 0.999 ** 2)), True)
            g = probability_gridfn(x, np.exp(-x * x / (2 * 1.001 ** 2)), True)
        else:
            f = probability_gridfn(x, np.exp(-np.abs(x) / 0.999), True)
            g = probability_gridfn(x, np.exp(-np.abs(x) / 1.001), True)
        m = sup_convolution_midpoint(f, g)
        a, b, _ = stability_distance(f, m, "shift")
        assert abs(a - 1.0) <= 1e-3
        assert abs(b) <= 1e-3


def test_scaling_law_ratio_bounded():
    # perturbed-Gaussian family: l1 / omega(eps) stays bounded over the scan
    x = np.linspace(-6.0, 6.0, 2401)
    ratios = []
    for delta in np.geomspace(1e-3, 1e-1, 7):
        vals = np.exp(-x * x) * (1.0 + delta * np.sign(x))
        f = GridFn1D(x, vals)
        m = sup_convolution_midpoint(f, f)
        eps = pl_deficit(f, f, m)
        assert eps > 0
        _, _, l1 = stability_distance(f, m, "shift")
        ratios.append(l1 / omega(eps))
    assert np.all(np.isfinite(ratios))
    assert max(ratios) < 50.0


def test_pl_report_fields_and_vacuous_flag():
    f = gaussian(2049)
    rep = pl_report(f, f, m=f)
    assert rep.deficit == pytest.approx(0.0, abs=1e-12)
    assert rep.omega_bound == 0.0
    assert not rep.vacuous
    assert rep.l1_f <= 1e-9 and rep.l1_g <= 1e-9
    # a visibly lossy pair has an omega bound above 1, flagged vacuous
    x = np.linspace(-4.0, 4.0, 1601)
    fi = make_logconcave(x, "indicator", 0.0, 0.5)
    gi = make_logconcave(x, "indicator", 0.0, 2.0)
    rep2 = pl_report(fi, gi)
    assert rep2.deficit > 0
    assert rep2.vacuous == (rep2.omega_bound >= 1.0)
