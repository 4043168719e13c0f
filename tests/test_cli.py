import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import regular_polygon
from stabgeo import bodies, experiments, fileio, pl1d, pln
from stabgeo.cli import _build_parser, main, scan_option
from stabgeo.errors import ConfigError


@pytest.fixture()
def square_file(tmp_path):
    p = tmp_path / "square.csv"
    p.write_text("x,y\n1,1\n-1,1\n-1,-1\n1,-1\n")
    return str(p)


@pytest.fixture()
def ball_file(tmp_path):
    p = tmp_path / "ball.csv"
    t = np.linspace(-1.0, 1.0, 2049)
    body = bodies.revolution_ball(3, 1.0, 2049)
    fileio.save_profile(str(p), body)
    return str(p)


def _gauss_file(tmp_path, name, shift):
    p = tmp_path / name
    x = np.linspace(-6.0, 6.0, 2001)
    f = pl1d.GridFn1D(x, np.exp(-(x - shift) ** 2))
    fileio.save_gridfn(str(p), f)
    return str(p)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_profile_roundtrip(tmp_path, ball_file):
    body = fileio.load_profile(ball_file, 3)
    assert bodies.volume(body) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-5)


def test_polygon_roundtrip(tmp_path, square_file):
    poly = fileio.load_polygon(square_file)
    assert bodies.volume(poly) == pytest.approx(4.0)
    out = tmp_path / "copy.csv"
    fileio.save_polygon(str(out), poly)
    again = fileio.load_polygon(str(out))
    assert np.allclose(again.vertices, poly.vertices)


def test_sniff_headers(tmp_path, square_file, ball_file):
    assert fileio.sniff_body_header(square_file) == "polygon"
    assert fileio.sniff_body_header(ball_file) == "profile"
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        fileio.sniff_body_header(str(bad))


def test_gridfn_roundtrip(tmp_path):
    path = _gauss_file(tmp_path, "f.csv", 0.0)
    f = fileio.load_gridfn(path)
    assert pl1d.integral(f) == pytest.approx(math.sqrt(math.pi), rel=1e-6)


def test_stack_roundtrip(tmp_path):
    st = pln.gaussian_stack(3, level_count=12, samples=65)
    path = tmp_path / "stack.txt"
    fileio.save_stack(str(path), st)
    back = fileio.load_stack(str(path))
    assert back.dim == 3
    assert np.allclose(back.levels, st.levels)
    assert pln.stack_integral(back) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("save", ["profile", "polygon", "gridfn"])
def test_interrupted_save_keeps_previous_file(tmp_path, disk_full, save):
    out = tmp_path / "body.csv"
    out.write_bytes(b"old\n")
    obj = {"profile": bodies.revolution_ball(3, 1.0, 9),
           "polygon": regular_polygon(6),
           "gridfn": pl1d.GridFn1D(np.linspace(0.0, 1.0, 9), np.ones(9))}[save]
    with pytest.raises(OSError):
        getattr(fileio, f"save_{save}")(str(out), obj)
    assert out.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["body.csv"]


def test_stack_header_validation(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("dim=3 levels=2\nt=1.0 profile=missing.csv\n")
    with pytest.raises(ConfigError):
        fileio.load_stack(str(p))


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def test_cli_santalo_square(square_file, capsys):
    code = main(["santalo", "--body", square_file])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "zx,zy,volume,polar_volume,product,deficit"
    vals = [float(v) for v in out[1].split(",")]
    assert vals[2] == pytest.approx(4.0)
    assert vals[5] == pytest.approx(math.pi ** 2 / 8.0 - 1.0, abs=1e-9)


def test_cli_santalo_profile(ball_file, capsys):
    code = main(["santalo", "--body", ball_file, "--dim", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    deficit = float(out[1].split(",")[5])
    assert abs(deficit) <= 1e-6


def test_cli_body_kind_and_symmetry_come_from_the_file(tmp_path, square_file, capsys):
    assert main(["santalo", "--body", square_file]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,4,2,8,0.233700550136"
    # a vertex 5e-12 from a corner, on the top edge, is no corner
    flat = tmp_path / "flat.csv"
    flat.write_text("x,y\n-1,-1\n1,-1\n1,1\n0.999999999995,1\n-1,1\n")
    assert main(["santalo", "--body", str(flat)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,4,2,8,0.233700550136"
    triangle = tmp_path / "triangle.csv"
    triangle.write_text("x,y\n0,0\n2,0\n0,1\n")
    assert main(["fmp", "--k", str(triangle), "--c", square_file]) == 0
    for flag in ("--polygon", "--profile", "--o-symmetric"):
        assert main(["santalo", "--body", square_file, flag]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["santalo", "--body", str(bad)]) == 1
    assert "unrecognized body header" in capsys.readouterr().err


def test_cli_pl1d(tmp_path, capsys):
    f = _gauss_file(tmp_path, "f.csv", 0.25)
    g = _gauss_file(tmp_path, "g.csv", -0.25)
    code = main(["pl1d", "--f", f, "--g", g])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "eps,omega,a,b,l1_f,l1_g,vacuous"
    vals = out[1].split(",")
    assert float(vals[4]) <= 1e-4  # shift pair: distances absorbed
    assert float(vals[5]) <= 1e-4


def test_cli_pl1d_geometric(tmp_path, capsys):
    t = np.linspace(1e-2, 8.0, 401)
    paths = [str(tmp_path / name) for name in ("f.csv", "g.csv")]
    for path, vals in zip(paths, (np.exp(-t), t * np.exp(-t))):
        fileio.save_gridfn(path, pl1d.GridFn1D(t, vals, pl1d.HALF_LINE))
    code = main(["pl1d", "--f", paths[0], "--g", paths[1], "--mode", "geom"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "eps,omega,a,b,l1_f,l1_g,vacuous"
    f, g = (fileio.load_gridfn(path, domain=pl1d.HALF_LINE) for path in paths)
    rep = pl1d.pl_report(f, g, mean="geometric")
    assert out[1] == experiments.csv_row(rep.deficit, rep.omega_bound, rep.a, rep.b,
                                         rep.l1_f, rep.l1_g, rep.vacuous)
    assert rep.deficit > 0 and rep.b != 1.0


def test_cli_fmp(ball_file, capsys):
    code = main(["fmp", "--k", ball_file, "--c", ball_file, "--dim", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "sigma,A,gamma_star,lhs_add,rhs_add,lhs_prod,rhs_prod,eta"
    vals = [float(v) for v in out[1].split(",")]
    assert vals[0] == 1.0 and abs(vals[1]) <= 1e-9


def test_cli_fmp_rejects_mixed_body_kinds(tmp_path, square_file, capsys):
    profile = tmp_path / "profile.csv"
    fileio.save_profile(str(profile), bodies.revolution_ellipsoid(3, 1.5, 0.8, 33))
    for extra in ([], ["--dim", "2"]):
        for k, c in ((str(profile), square_file), (square_file, str(profile))):
            assert main(["fmp", "--k", k, "--c", c] + extra) == 1
            err = capsys.readouterr().err
            assert "config error" in err
            assert "RevolutionBody" in err and "ConvexPolygon" in err


def test_cli_pln(tmp_path, capsys):
    f = pln.gaussian_stack(3, level_count=16, samples=65)
    g = pln.axis_dilated_stack(f, 1.15)
    fp, gp = tmp_path / "f.txt", tmp_path / "g.txt"
    fileio.save_stack(str(fp), f)
    fileio.save_stack(str(gp), g)
    code = main(["pln", "--f", str(fp), "--g", str(gp)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("eps,b,b_gap,omega")
    assert out[len(out) - 17] == "t,alpha,beta,sigma,eta,in_I"
    assert len(out) == 2 + 1 + 16  # report header+row, table header, 16 levels


def test_cli_cap_scan_and_exit_codes(tmp_path, capsys):
    out_csv = tmp_path / "cap.csv"
    code = main(["cap-scan", "--dim", "3", "--grid", "1e-4,1e-3,1e-2",
                 "--out", str(out_csv), "--profile-samples", "2049"])
    captured = capsys.readouterr()
    assert code == 0
    assert "slope=" in captured.out
    assert out_csv.read_text().splitlines()[0] == "eps_cap,bs_deficit,delta_bm"
    # config error: exit 1, no file
    out2 = tmp_path / "cap2.csv"
    code = main(["cap-scan", "--dim", "3", "--grid", "-5", "--out", str(out2)])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error" in captured.err
    assert not out2.exists()


@pytest.mark.parametrize("experiment,value", [
    ("cap-scan", "nan"), ("bs-scan", "nan"), ("pl-scan", "nan"), ("pln-scan", "nan"),
    ("pl-scan", "inf"), ("pln-scan", "inf")])
def test_cli_non_finite_grid_is_config_error(tmp_path, experiment, value, capsys):
    out = tmp_path / "scan.csv"
    rest = "1e-4,1e-3" if experiment == "cap-scan" else "0.1,0.2"
    assert main([experiment, "--grid", f"{value},{rest}", "--out", str(out)]) == 1
    assert "grid values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cap_scan_with_two_points_writes_csv_and_prints_nan(tmp_path, capsys):
    out_csv = tmp_path / "cap.csv"
    code = main(["cap-scan", "--dim", "2", "--grid", "1e-4,1e-3", "--out", str(out_csv),
                 "--profile-samples", "257"])
    assert code == 0
    assert "rows=2 slope=nan" in capsys.readouterr().out
    assert len(out_csv.read_text().splitlines()) == 3


def test_cli_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "bs.csv"
    assert main(["bs-scan", "--grid", "0.5", "--seed", "-3", "--out", str(out)]) == 1
    assert "config error: seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    out_csv = tmp_path / "bs.csv"
    cfg.write_text(
        "experiment=bs-scan\ndim=3\ngrid=0.0,0.4\nseed=3\n"
        f"output_path={out_csv}\nprofile_samples=2049\n"
    )
    code = main(["bs-scan", "--config", str(cfg)])
    assert code == 0
    assert out_csv.read_text().splitlines()[0] == "bs_deficit,delta_bm"


def test_cli_missing_file_is_config_error(capsys):
    code = main(["santalo", "--body", "/nonexistent/file.csv"])
    assert code == 1


def test_cli_malformed_inputs_are_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bs.cfg"
    cfg.write_text("experiment=bs-scan\ngrid=1e-3\nseed=1e3\n")
    assert main(["bs-scan", "--config", str(cfg)]) == 1
    good = tmp_path / "good.txt"
    fileio.save_stack(str(good), pln.gaussian_stack(3, level_count=4, samples=17))
    for name, text in (("noeq.txt", "dim=3 levels=1\nt=1 profile\n"),
                       ("dimx.txt", "dim=x levels=1\nt=1 profile=good_level000.csv\n")):
        bad = tmp_path / name
        bad.write_text(text)
        assert main(["pln", "--f", str(bad), "--g", str(good)]) == 1
    # content the constructors reject: two level lines swapped, a NaN radius
    head, first, second, *rest = good.read_text().splitlines()
    swapped = tmp_path / "swapped.txt"
    swapped.write_text("\n".join([head, second, first, *rest]) + "\n")
    assert main(["pln", "--f", str(swapped), "--g", str(good)]) == 1
    nan = tmp_path / "nan.csv"
    nan.write_text("t,phi\n-1,0\n0,nan\n1,0\n")
    assert main(["santalo", "--body", str(nan)]) == 1
    assert capsys.readouterr().err.count("config error") == 5
    # a polygon with a non-finite vertex
    for name, vertex in (("nan_polygon.csv", "nan,1"), ("inf_polygon.csv", "-inf,1")):
        poly = tmp_path / name
        poly.write_text(f"x,y\n-1,-1\n1,-1\n1,1\n{vertex}\n")
        assert main(["santalo", "--body", str(poly)]) == 1
        assert main(["fmp", "--k", str(poly), "--c", str(poly)]) == 1
        assert capsys.readouterr().err.count("polygon vertices must be finite") == 2
    # stacks of different dimensions, as --g and as --m
    planar = tmp_path / "planar.txt"
    fileio.save_stack(str(planar), pln.gaussian_stack(2, level_count=4, samples=17))
    assert main(["pln", "--f", str(good), "--g", str(planar)]) == 1
    assert main(["pln", "--f", str(good), "--g", str(good), "--m", str(planar)]) == 1
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and err.count("3-D LevelStack and a 2-D") == 2


def test_cli_pln_scan_subcommand(tmp_path, capsys):
    out_csv = tmp_path / "pln.csv"
    code = main(["pln-scan", "--grid", "0.05,0.1,0.2", "--level-count", "8",
                 "--out", str(out_csv)])
    assert code == 0
    assert "rows=3" in capsys.readouterr().out
    assert out_csv.read_text().splitlines()[0] == "delta,eps,l1,omega,ratio"


def test_cli_config_for_another_experiment_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "pln.cfg"
    out_csv = tmp_path / "pln.csv"
    cfg.write_text(f"experiment=pln-scan\ngrid=0.1\noutput_path={out_csv}\n")
    assert main(["pl-scan", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cli_family_is_pl_scan_only(tmp_path, capsys):
    assert main(["cap-scan", "--grid", "1e-3,1e-2,2e-2", "--family", "nonsense"]) == 1
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("experiment=cap-scan\ngrid=1e-3,1e-2,2e-2\nfamily=shift\n")
    assert main(["cap-scan", "--config", str(cfg)]) == 1
    assert "family applies to pl-scan only" in capsys.readouterr().err


def test_cli_numerical_failure_exit_2(tmp_path, capsys):
    # a zero function is a numerical (domain) failure, not a config error
    p = tmp_path / "zero.csv"
    p.write_text("x,value\n0,0\n1,0\n2,0\n")
    g = _gauss_file(tmp_path, "g.csv", 0.0)
    code = main(["pl1d", "--f", str(p), "--g", g])
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical failure" in captured.err


def test_cli_one_sample_support_exit_2(tmp_path, capsys):
    hat = tmp_path / "hat.csv"
    hat.write_text("x,value\n0,0\n1,1\n2,0\n")
    tri = tmp_path / "tri.csv"
    tri.write_text("x,value\n0,0\n1,1\n2,2\n3,1\n4,0\n")
    code = main(["pl1d", "--f", str(hat), "--g", str(tri)])
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical failure: InvalidDataError" in captured.err
    assert "one sample x = 1.0" in captured.err


_SCAN_OPTIONS = {"--dim": "3", "--seed": "1", "--out": "x.csv", "--profile-samples": "65",
                 "--grid-samples": "65", "--level-count": "8", "--family": "shift",
                 "--min-deficit": "1e-12"}


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
def test_cli_scan_takes_exactly_the_keys_it_reads(tmp_path, experiment, capsys):
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[experiment]
    options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help", "--config"}
    assert options == {scan_option(key) for key in experiments.SCANS[experiment].keys}
    grid = {"cap-scan": "1e-3,1e-2,2e-2", "bs-scan": "0.5"}.get(experiment, "0.1")
    unread = sorted(set(_SCAN_OPTIONS) - options)
    for option in unread:
        out = tmp_path / "never.csv"
        assert main([experiment, "--grid", grid, "--out", str(out),
                     option, _SCAN_OPTIONS[option]]) == 1
        assert not out.exists()
    assert capsys.readouterr().err.count("unrecognized arguments") == len(unread)


def _write_readme_inputs(d: Path) -> None:
    """The input files the README's commands name, small enough to run."""
    (d / "square.csv").write_text("x,y\n1,1\n-1,1\n-1,-1\n1,-1\n")
    (d / "triangle.csv").write_text("x,y\n0,0\n2,0\n0,1\n")
    fileio.save_profile(str(d / "profile.csv"), bodies.revolution_ellipsoid(3, 1.5, 0.8, 257))
    x = np.linspace(-6.0, 6.0, 401)
    fileio.save_gridfn(str(d / "f.csv"), pl1d.GridFn1D(x, np.exp(-(x - 0.3) ** 2)))
    fileio.save_gridfn(str(d / "g.csv"), pl1d.GridFn1D(x, np.exp(-0.5 * x * x)))
    f = pln.gaussian_stack(3, level_count=8, samples=33)
    fileio.save_stack(str(d / "stack_f.txt"), f)
    fileio.save_stack(str(d / "stack_g.txt"), pln.axis_dilated_stack(f, 1.2))


def test_readme_commands_parse_and_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("### File formats", 1)[0]
    blocks = section.split("```")[1::2]
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("stabgeo ")]
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert {args[0] for args in commands} == set(subcommands)
    _write_readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for args in commands:
        try:
            _build_parser().parse_args(args)
        except SystemExit:
            pytest.fail(f"README command does not parse: stabgeo {shlex.join(args)}")
        if args[0] not in experiments.EXPERIMENTS:
            assert main(args) == 0, f"stabgeo {shlex.join(args)}"
