"""What a fresh interpreter loads: importing stabgeo and running its command
line load no scipy module.  scipy is imported by the functions that need it
(the random polygon generators and the two cap functions) and by anything
that asks pl1d, polarity or fmp for ``minimize`` or ``minimize_scalar``."""

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


def test_cap_functions_import_scipy_when_called():
    out = run_fresh("""
        from stabgeo import polarity
        K = polarity.cap_cut_body(3, 1e-2)
        print(K.alpha, polarity.spherical_cap_volume(3, 1.0 - K.alpha))
    """)
    alpha, cap = map(float, out.split())
    assert 0.9 < alpha < 1.0
    assert abs(cap - 1e-2) <= 1e-12
