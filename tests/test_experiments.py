import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgeo import experiments as ex
from stabgeo.errors import ConfigError, InvalidDataError


# ---------------------------------------------------------------------------
# fit_exponent
# ---------------------------------------------------------------------------


def test_fit_exponent_quadratic():
    pts = [(x, x * x) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
    fit = ex.fit_exponent(pts)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_half_power():
    pts = [(x, 3.0 * math.sqrt(x)) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
    fit = ex.fit_exponent(pts)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_exponent_errors():
    with pytest.raises(InvalidDataError):
        ex.fit_exponent([(1.0, 1.0)])
    with pytest.raises(InvalidDataError):
        ex.fit_exponent([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(InvalidDataError, match=r"\(2.0, -1.0\)"):
        ex.fit_exponent([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidDataError, match="finite"):
            ex.fit_exponent([(1.0, 1.0), (2.0, bad), (3.0, 2.0)])
        with pytest.raises(InvalidDataError, match="finite"):
            ex.fit_exponent([(1.0, 1.0), (bad, 2.0), (3.0, 2.0)])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_fit_exponent_recovers_monomials(p, c):
    xs = [0.5, 1.0, 2.0, 4.0, 8.0]
    fit = ex.fit_exponent([(x, c * x ** p) for x in xs])
    assert fit.slope == pytest.approx(p, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_parse_config_text():
    cfg = ex.parse_config_text(
        """
        # bs scan at desk scale
        experiment=bs-scan
        dim=3
        grid=1e-4,1e-3,1e-2
        seed=7
        min_deficit=1e-10
        """
    )
    assert cfg.experiment == "bs-scan"
    assert cfg.dim == 3
    assert cfg.grid == (1e-4, 1e-3, 1e-2)
    assert cfg.seed == 7
    assert cfg.min_deficit == 1e-10


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        ex.parse_config_text("experiment=warp-scan\ngrid=1")
    with pytest.raises(ConfigError):
        ex.parse_config_text("experiment=cap-scan")  # empty grid
    with pytest.raises(ConfigError):
        ex.parse_config_text("experiment=cap-scan\ngrid=1,2,3\nwhatever=1")
    with pytest.raises(ConfigError):
        ex.parse_config_text("experiment=cap-scan\ngrid=-1")
    with pytest.raises(ConfigError):
        ex.parse_config_text("experiment=bs-scan\ngrid=1.5")
    with pytest.raises(ConfigError):
        ex.parse_config_text("experiment=pl-scan\ngrid=0.1\nfamily=unheard-of")
    with pytest.raises(ConfigError, match="seed must be nonnegative, got -3"):
        ex.parse_config_text("experiment=bs-scan\ngrid=0.5\nseed=-3")
    text = "experiment=cap-scan\ngrid=1e-3,1e-2\ndim=2\n# again\ndim=3\n"
    with pytest.raises(ConfigError, match="line 5: dim is set twice"):
        ex.parse_config_text(text)
    # an option still overrides the config's value
    assert ex.parse_config_text(text.replace("dim=3\n", ""), dim="3").dim == 3


def test_bad_config_never_writes_output(tmp_path):
    out = tmp_path / "scan.csv"
    cfg = ex.ExperimentConfig(experiment="cap-scan", dim=3, grid=(-1.0,),
                              output_path=str(out))
    with pytest.raises(ConfigError):
        ex.run(cfg)
    assert not out.exists()


def test_interrupted_write_keeps_previous_csv(tmp_path, disk_full):
    out = tmp_path / "scan.csv"
    out.write_bytes(b"delta,eps\n1,2\n")
    with pytest.raises(OSError):
        ex._write_csv(str(out), "delta,eps", [(0.5, 0.25), (1.0, 0.5)])
    assert out.read_bytes() == b"delta,eps\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]


def test_scan_keys_are_config_keys():
    # every key a scan reads is a field of the config, and every field but
    # the experiment name is read by some scan
    fields = {f.name for f in dataclasses.fields(ex.ExperimentConfig)} - {"experiment"}
    read = {key for scan in ex.SCANS.values() for key in scan.keys}
    assert read == fields
    assert ex.EXPERIMENTS == tuple(ex.SCANS)


@pytest.mark.parametrize("experiment", ex.EXPERIMENTS)
def test_config_key_the_scan_does_not_read_is_config_error(experiment):
    grid = {"cap-scan": "1e-3", "bs-scan": "0.5"}.get(experiment, "0.1")
    values = {"dim": "3", "seed": "0", "output_path": "x.csv", "profile_samples": "65",
              "grid_samples": "65", "level_count": "8", "family": "shift",
              "min_deficit": "1e-12"}
    ex.parse_config_text(f"experiment={experiment}\ngrid={grid}\n" + "".join(
        f"{key}={values[key]}\n" for key in ex.SCANS[experiment].keys if key != "grid"))
    for key in sorted(set(values) - set(ex.SCANS[experiment].keys)):
        with pytest.raises(ConfigError, match=f"{key} applies to"):
            ex.parse_config_text(f"experiment={experiment}\ngrid={grid}\n{key}={values[key]}")
    # a config object may leave an unread key at its default, not set it
    other = {"dim": 7, "seed": 3, "profile_samples": 99, "grid_samples": 99,
             "level_count": 9, "family": "shift"}
    for key in sorted(set(other) - set(ex.SCANS[experiment].keys)):
        cfg = ex.ExperimentConfig(experiment=experiment, grid=(float(grid),), **{key: other[key]})
        with pytest.raises(ConfigError, match=f"{key} applies to"):
            cfg.validate()


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Scan configs are", 1)[1].split("```", 2)[1]
    cfg = ex.parse_config_text(example)
    assert cfg.experiment in ex.EXPERIMENTS and cfg.grid


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_cap_scan_writes_csv_and_fits(tmp_path):
    out = tmp_path / "cap.csv"
    cfg = ex.ExperimentConfig(
        experiment="cap-scan", dim=3,
        grid=tuple(np.geomspace(1e-4, 1e-2, 5)),
        output_path=str(out), profile_samples=4097,
    )
    fit, rows = ex.run(cfg)
    assert len(rows) == 5
    assert 0.3 <= fit.slope <= 0.7
    lines = out.read_text().splitlines()
    assert lines[0] == "eps_cap,bs_deficit,delta_bm"
    assert len(lines) == 6


def test_bs_scan_ball_row_and_determinism(tmp_path):
    out1 = tmp_path / "bs1.csv"
    out2 = tmp_path / "bs2.csv"
    grid = (0.0, 0.25, 0.5, 0.75)
    cfg1 = ex.ExperimentConfig(experiment="bs-scan", dim=3, grid=grid, seed=11,
                               output_path=str(out1))
    cfg2 = ex.ExperimentConfig(experiment="bs-scan", dim=3, grid=grid, seed=11,
                               output_path=str(out2))
    _, rows = ex.run(cfg1)
    ex.run(cfg2)
    # amplitude 0 is an exact ellipsoid: the scatter's equality anchor
    assert rows[0][0] <= 1e-6
    assert rows[0][1] <= 1e-4
    assert all(r[0] >= -1e-6 for r in rows)
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "bs_deficit,delta_bm"


def test_pl_scan_shift_family_absorbed(tmp_path):
    out = tmp_path / "shift.csv"
    cfg = ex.ExperimentConfig(experiment="pl-scan", dim=3, grid=(0.06, 0.12, 0.24),
                              family="shift", output_path=str(out))
    _, rows = ex.run(cfg)
    for _, eps, l1, _, _ in rows:
        assert abs(eps) <= 1e-9
        assert l1 <= 1e-9
    assert out.read_text().splitlines()[0] == "delta,eps,l1,omega,ratio"


def test_pl_scan_asymmetric_family():
    cfg = ex.ExperimentConfig(experiment="pl-scan", dim=3,
                              grid=tuple(np.geomspace(3e-3, 1e-1, 5)),
                              grid_samples=2401)
    fit, rows = ex.run(cfg)
    eps = [r[1] for r in rows]
    assert all(b > a > 0 for a, b in zip(eps, eps[1:]))
    assert all(np.isfinite(r[4]) for r in rows)
    assert fit is not None


def test_pln_scan_small():
    cfg = ex.ExperimentConfig(experiment="pln-scan", dim=3,
                              grid=(0.05, 0.1, 0.2), level_count=32)
    fit, rows = ex.run(cfg)
    for _, eps, l1, om, ratio in rows:
        assert eps > 0 and l1 > 0
        assert np.isfinite(ratio)
    assert fit is not None and fit.slope >= 1.0 / 6.0 - 0.01
