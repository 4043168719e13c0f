"""What a fresh interpreter loads: importing stabgeo, running its command
line, building random polygons, computing cap volumes and heights and
running a cap scan load no scipy module.  scipy is a test dependency only;
the package imports it for nothing but the ``minimize`` and
``minimize_scalar`` names that pl1d, polarity and fmp still hand out on
request."""

import subprocess
import sys
import textwrap
from pathlib import Path

import stabgeo

SRC = str(Path(stabgeo.__file__).resolve().parents[1])


def run_fresh(code):
    """Run code in a new interpreter that imports this stabgeo; its stdout."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_help_load_no_scipy():
    out = run_fresh("""
        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        import stabgeo
        print("after import", scipy_modules())
        from stabgeo import cli
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
        print("after help", scipy_modules())
        from stabgeo import fmp, pl1d, polarity
        import scipy.optimize
        assert pl1d.minimize_scalar is scipy.optimize.minimize_scalar
        assert pl1d.minimize is polarity.minimize is fmp.minimize is scipy.optimize.minimize
        assert polarity.minimize_scalar is scipy.optimize.minimize_scalar
    """)
    assert "after import []" in out
    assert "after help []" in out
    assert "usage: stabgeo" in out


def test_generators_caps_and_cap_scan_load_no_scipy(tmp_path):
    out = run_fresh(f"""
        import numpy as np
        from stabgeo import bodies, cli, polarity
        rng = np.random.default_rng(0)
        bodies.random_polygon(rng), bodies.random_o_symmetric_polygon(rng)
        K = polarity.cap_cut_body(3, 1e-2)
        print(K.alpha, polarity.spherical_cap_volume(3, 1.0 - K.alpha))
        assert cli.main(["cap-scan", "--dim", "2", "--grid", "1e-4,1e-3",
                         "--profile-samples", "33", "--out", {str(tmp_path / "cap.csv")!r}]) == 0
        print("scipy", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    lines = out.splitlines()
    alpha, cap = map(float, lines[0].split())
    assert 0.9 < alpha < 1.0
    assert abs(cap - 1e-2) <= 1e-12
    assert lines[-1] == "scipy []"
