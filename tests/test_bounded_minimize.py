"""bodies.bounded_minimize against scipy's bounded Brent search, which it
ports step for step: x, the value and the evaluation count must agree bit
for bit.  scipy is only the oracle here; the package does not import it for
this search."""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from stabgeo import bodies, pl1d, polarity
from stabgeo.bodies import bounded_minimize


def scipy_bounded(fun, lo, hi, xatol):
    res = minimize_scalar(fun, bounds=(lo, hi), method="bounded", options=dict(xatol=xatol))
    return float(res.x), float(res.fun), int(res.nfev)


def bits(result):
    """Comparable form of (x, value, evaluations): floats by their bits, so
    NaN matches NaN and -0.0 does not match 0.0."""
    x, value, evaluations = result
    return float(x).hex(), float(value).hex(), evaluations


def assert_same_as_scipy(fun, lo, hi, xatol):
    port = bounded_minimize(fun, lo, hi, xatol)
    assert bits(port) == bits(scipy_bounded(fun, lo, hi, xatol)), (lo, hi, xatol)
    return port


def test_synthetic_objectives_match_scipy():
    # convex, kinked, flat and oscillating objectives on random bounds, from
    # an interval of 1e-6 to one of 10, with xatol from 1e-13 to 1e-3
    rng = np.random.default_rng(16)
    for k in range(400):
        c, s = rng.normal(size=2)
        fun = (
            lambda x, c=c, s=s: abs(s) * (x - c) ** 2,
            lambda x, c=c, s=s: abs(x - c) + 0.3 * s * (x - c),
            lambda x: 1.0,
            lambda x, c=c, s=s: math.sin(7.0 * s * x) + 0.1 * (x - c) ** 2,
            lambda x, c=c: max(abs(x - c) - 0.2, 0.0),
        )[k % 5]
        lo = 3.0 * float(rng.normal())
        hi = lo + abs(float(rng.normal())) * float(rng.choice([1e-6, 1e-2, 1.0, 10.0]))
        assert_same_as_scipy(fun, lo, hi, 10.0 ** float(rng.uniform(-13.0, -3.0)))


def record_searches(monkeypatch):
    """Every bounded_minimize call that pl1d and polarity make, recorded."""
    calls = []

    def recorder(fun, lo, hi, xatol):
        calls.append((fun, lo, hi, xatol))
        return bounded_minimize(fun, lo, hi, xatol)

    monkeypatch.setattr(pl1d, "bounded_minimize", recorder)
    monkeypatch.setattr(bodies, "bounded_minimize", recorder)
    return calls


def test_fit_objectives_match_scipy(monkeypatch):
    calls = record_searches(monkeypatch)
    x = np.linspace(-5.0, 5.0, 161)
    f = pl1d.GridFn1D(x, np.exp(-0.5 * x * x))
    g = pl1d.GridFn1D(x, np.exp(-0.5 * ((x - 0.3) / 1.2) ** 2))
    pl1d.pl_report(f, g)
    t = np.geomspace(1e-2, 12.0, 121)
    F = pl1d.GridFn1D(t, np.exp(-t), pl1d.HALF_LINE)
    G = pl1d.GridFn1D(t, t * np.exp(-t), pl1d.HALF_LINE)
    pl1d.pl_report(F, G, mean="geometric")
    pl1d.stability_distance(F, pl1d.sup_convolution_midpoint(F, G, "geometric"), "scale",
                            constrain_equal=True)
    # the scan, the polish and the constrained scan, each with its tolerance
    assert len({xatol for *_, xatol in calls}) >= 4
    for call in calls:
        assert_same_as_scipy(*call)


def test_banach_mazur_objectives_match_scipy(monkeypatch):
    calls = record_searches(monkeypatch)
    rng = np.random.default_rng(3)
    shapes = [bodies.revolution_cylinder(3, 0.7, 1.3, 33),
              bodies.revolution_ellipsoid(4, 2.0, 0.5, 65),
              polarity.cap_cut_body(3, 0.05, 129)]
    shapes += [bodies.random_revolution_body(n, rng, 17) for n in (2, 3, 5)]
    for K in shapes:
        polarity.bm_distance_to_ball(K)
    assert len(calls) == len(shapes)
    for call in calls:
        assert_same_as_scipy(*call)


def test_degenerate_interval_takes_one_evaluation():
    x, value, evaluations = assert_same_as_scipy(lambda x: (x - 3.0) ** 2, 1.5, 1.5, 1e-9)
    assert (x, value, evaluations) == (1.5, 2.25, 1)


def test_evaluation_cap():
    # with xatol = 0 the tolerance shrinks with |x| towards the minimum at 0,
    # so only the cap of 500 evaluations stops the search
    x, value, evaluations = assert_same_as_scipy(abs, -1.0, 2.0, 0.0)
    assert evaluations == 500 and abs(x) < 1e-100


def test_nan_values():
    # a NaN value never replaces the best point: with NaN from the first
    # evaluation on, the search closes in on that first point,
    # lo + (3 - sqrt 5) / 2 (hi - lo), and returns it with NaN
    x, value, _ = assert_same_as_scipy(lambda x: math.nan, -1.0, 2.0, 1e-9)
    assert math.isnan(value) and x == -1.0 + 0.5 * (3.0 - math.sqrt(5.0)) * 3.0
    # NaN beyond 0.5: the minimum at 0.7 is out of reach, and the search
    # stops at the edge of the region where the values are numbers
    x, value, _ = assert_same_as_scipy(
        lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2, -1.0, 2.0, 1e-9)
    assert 0.49 < x <= 0.5 and value == (x - 0.7) ** 2
