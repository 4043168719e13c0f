"""Tests of the benchmark's tracer and input generation.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402
from stabgeo import bodies, experiments, fmp, pl1d, pln, polarity  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [6, 7] holds a
    # grandchild [6.2, 6.5]; a child may not be counted past its parent
    start = [0.0, 1.0, 2.0, 6.0, 6.2, 9.5]
    end = [10.0, 3.0, 5.0, 7.0, 6.5, 11.0]
    parent = [-1, 0, 0, 0, 3, 0]
    own = self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own[3] == pytest.approx(0.7)
    assert own[1:3] == [2.0, 3.0] and own[4] == pytest.approx(0.3)


def test_nested_spans_from_wrapped_calls():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    inner = tr.wrap("m.inner", lambda: 1)
    outer = tr.wrap("m.outer", lambda: inner() + inner())
    assert outer() == 2
    agg = tr.summary()
    # outer spans ticks 0..5, each inner span lasts one tick
    assert agg["m.outer"] == {"calls": 1, "self_s": 3.0, "nfev": 0}
    assert agg["m.inner"] == {"calls": 2, "self_s": 2.0, "nfev": 0}
    assert tr.parent == [-1, 0, 0]


def test_install_rebinds_imported_names_and_restores():
    import stabgeo

    originals = {
        (polarity, "volume"): polarity.volume,
        (fmp, "volume"): fmp.volume,
        (bodies, "volume"): bodies.volume,
        (stabgeo, "volume"): stabgeo.volume,
        (polarity, "minimize"): polarity.minimize,
        (pl1d, "minimize"): pl1d.minimize,
    }
    post = bodies.RevolutionBody.__post_init__
    tr = Tracer()
    tr.install()
    try:
        assert polarity.volume is bodies.volume is fmp.volume is stabgeo.volume
        assert polarity.volume is not originals[(bodies, "volume")]
        assert polarity.minimize is not pl1d.minimize
        ball = bodies.revolution_ball(3, 1.0, 33)
        assert isinstance(ball, bodies.RevolutionBody)
        polarity.bs_deficit(ball)
    finally:
        tr.restore()
    for (owner, attr), value in originals.items():
        assert getattr(owner, attr) is value
    assert bodies.RevolutionBody.__post_init__ is post
    assert not tr.missing
    names = tr.name
    santalo = names.index("polarity.santalo_point")
    # volume calls made through polarity's own name are children of the search
    assert any(n == "bodies.volume" and tr.parent[i] == santalo for i, n in enumerate(names))
    assert "bodies.RevolutionBody.init" in names
    assert "bodies.concave_majorant" in names


def test_sup_convolution_split_by_log_concave_flag():
    import numpy as np

    x = np.linspace(-3.0, 3.0, 31)
    f = pl1d.GridFn1D(x, np.exp(-x * x), log_concave=True)
    h = pl1d.GridFn1D(x, np.exp(-x * x))
    tr = Tracer()
    tr.install()
    try:
        pl1d.sup_convolution_midpoint(f, f)
        pl1d.sup_convolution_midpoint(f, h)
    finally:
        tr.restore()
    agg = tr.summary()
    assert agg["pl1d.sup_convolution_midpoint.lc"]["calls"] == 1
    assert agg["pl1d.sup_convolution_midpoint.general"]["calls"] == 1


def _small_scans(out):
    cfgs = [
        experiments.ExperimentConfig(experiment="cap-scan", dim=3, grid=(1e-4, 1e-3, 1e-2),
                                     profile_samples=257, output_path=str(out / "cap.csv")),
        experiments.ExperimentConfig(experiment="pl-scan", grid=(0.05, 0.1, 0.2),
                                     grid_samples=201, output_path=str(out / "pl.csv")),
        experiments.ExperimentConfig(experiment="pln-scan", dim=3, grid=(0.05, 0.1, 0.2),
                                     level_count=8, output_path=str(out / "pln.csv")),
    ]
    for cfg in cfgs:
        experiments.run(cfg)
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def test_scan_csv_identical_traced_and_untraced(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = _small_scans(tmp_path / "plain")
    tr = Tracer()
    tr.install()
    try:
        traced = _small_scans(tmp_path / "traced")
    finally:
        tr.restore()
    assert len(plain) == 3 and plain == traced
    assert tr.summary()["experiments.run"]["calls"] == 3


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    ball = bodies.revolution_ball(3, 1.0, 65)
    st = pln.gaussian_stack(3, level_count=4, samples=17)
    checks = [workloads.Check("a", lambda _d: workloads._out(polarity.bs_deficit(ball).bs_deficit)),
              workloads.Check("b", lambda _d: workloads._out(
                  pln.pl_trace(st, st, pln.minimal_midpoint_stack(st, st)).eps))]
    tr = Tracer()
    tr.install()
    try:
        r = bench.run_round(checks, tmp_path, tr)
    finally:
        tr.restore()
    layers, gap = bench._layer_metrics(tr, [(0, len(tr.name), r["span"])])
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s") and k != "bench.self_s")
    assert self_sum + layers["bench.self_s"] == pytest.approx(r["span"], abs=1e-9)
    assert gap < 1e-9
    assert layers["pln.minimal_midpoint_stack.calls"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload):
    a = bench.input_hash(workloads.build(workload, 11))
    assert a == bench.input_hash(workloads.build(workload, 11))
    assert a != bench.input_hash(workloads.build(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_enough_distinct_checks_for_p90(workload):
    labels = [c.label for c in workloads.build(workload, 11)]
    assert len(labels) >= bench.MIN_CHECKS
    assert len(set(labels)) == len(labels)
