"""Experiment runner: parameter scans, CSV emission, log-log exponent fits.

Configs are plain ``key=value`` text (``#`` comments); every run validates
its config before doing any work, gathers all rows in grid order, and only
then writes the output file, so a bad config never leaves a partial CSV.
Grid points use derived seeds (seed + index), making reruns byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import bodies as _bodies
from . import pl1d as _pl1d
from . import pln as _pln
from . import polarity as _polarity
from .errors import ConfigError, InvalidDataError

# the config keys each scan reads, in command-line order; a config or an
# option naming any other key is a configuration error
SCAN_KEYS = {
    "cap-scan": ("dim", "grid", "output_path", "profile_samples", "min_deficit"),
    "bs-scan": ("dim", "grid", "seed", "output_path", "profile_samples", "min_deficit"),
    "pl-scan": ("grid", "family", "output_path", "grid_samples", "min_deficit"),
    "pln-scan": ("dim", "grid", "output_path", "level_count", "min_deficit"),
}
EXPERIMENTS = tuple(SCAN_KEYS)
PL_FAMILIES = ("asymmetric", "shift")

CSV_HEADERS = {
    "cap-scan": "eps_cap,bs_deficit,delta_bm",
    "bs-scan": "bs_deficit,delta_bm",
    "pl-scan": "delta,eps,l1,omega,ratio",
    "pln-scan": "delta,eps,l1,omega,ratio",
}


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit on log-log points."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def fit_exponent(points) -> FitResult:
    """Ordinary least squares of ln y against ln x.

    Raises InvalidDataError for fewer than 3 points or any coordinate that
    is not positive and finite (which the log-log transform cannot
    represent).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise InvalidDataError(f"need at least 3 points to fit an exponent, got {len(pts)}")
    for x, y in pts:
        if not (0 < x < math.inf and 0 < y < math.inf):
            raise InvalidDataError(f"log-log fit needs positive finite data, got point ({x}, {y})")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    vx = float(np.var(lx))
    if vx == 0.0:
        raise InvalidDataError("all x values coincide; exponent is undefined")
    slope = float(np.cov(lx, ly, bias=True)[0, 1] / vx)
    intercept = float(np.mean(ly) - slope * np.mean(lx))
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    ss_res = float(np.sum(resid ** 2))
    # flat data: ss_tot is float noise and the flat line fits it exactly
    if ss_tot <= 1e-24 * len(pts):
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, min(max(r2, 0.0), 1.0),
                     tuple(zip(lx.tolist(), ly.tolist())))


def _scan_fit(pts):
    """The exponent fit of a scan's kept points; None for fewer than 3."""
    return fit_exponent(pts) if len(pts) >= 3 else None


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dim: int = 3
    grid: tuple = ()
    seed: int = 0
    output_path: str = ""
    profile_samples: int | None = None
    grid_samples: int | None = None
    level_count: int | None = None
    family: str | None = None
    min_deficit: float = 1e-12

    def validate(self) -> None:
        """Raise ConfigError for an unknown experiment, a bad value, or a key
        the experiment does not read set to anything but its default."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        reads = SCAN_KEYS[self.experiment]
        for f in dataclasses.fields(self):
            if f.name not in reads and f.name in _CONVERT and getattr(self, f.name) != f.default:
                _check_reads(self.experiment, f.name)
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if len(self.grid) == 0:
            raise ConfigError("grid must be nonempty")
        g = np.asarray(self.grid, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ConfigError(f"grid values must be finite, got {list(self.grid)}")
        if self.experiment == "cap-scan":
            cap = _bodies.unit_ball_volume(self.dim) / 4.0
            if np.any(g <= 0) or np.any(g >= cap):
                raise ConfigError(
                    f"cap-scan grid values must lie in (0, {cap:.6g}) for dim {self.dim}"
                )
        elif self.experiment == "bs-scan":
            if np.any(g < 0) or np.any(g >= 1):
                raise ConfigError("bs-scan grid (profile amplitudes) must lie in [0, 1)")
        else:
            if np.any(g <= 0):
                raise ConfigError("perturbation grid values must be positive")
        if self.family is not None and self.family not in PL_FAMILIES:
            raise ConfigError(f"unknown pl-scan family {self.family!r}")
        for name in ("profile_samples", "grid_samples", "level_count"):
            v = getattr(self, name)
            if v is not None and v < 8:
                raise ConfigError(f"{name} must be at least 8, got {v}")
        if not self.min_deficit >= 0:
            raise ConfigError("min_deficit must be nonnegative")


def _grid(g) -> tuple:
    if isinstance(g, str):
        return tuple(float(s) for s in g.split(",") if s.strip())
    return tuple(g)


# the conversion of each config key's text
_CONVERT = dict(dim=int, grid=_grid, seed=int, output_path=str, profile_samples=int,
                grid_samples=int, level_count=int, family=str, min_deficit=float)


def _check_reads(experiment: str, key: str) -> None:
    if key not in _CONVERT:
        raise ConfigError(f"unknown config key {key!r}")
    if key not in SCAN_KEYS[experiment]:
        readers = ", ".join(e for e, keys in SCAN_KEYS.items() if key in keys)
        raise ConfigError(f"{key} applies to {readers} only, not {experiment}")


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """Parse ``key=value`` lines (# comments) into an ExperimentConfig."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in kv:
            raise ConfigError(f"line {lineno}: {key} is set twice")
        kv[key] = val
    for key, val in overrides.items():
        if val is None:
            continue
        if key == "experiment" and kv.get(key, val) != val:
            raise ConfigError(f"config is for experiment {kv[key]!r}, not {val!r}")
        kv[key] = val
    if "experiment" not in kv:
        raise ConfigError("config is missing the experiment key")
    experiment = str(kv.pop("experiment"))
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    args = {"experiment": experiment}
    for key, val in kv.items():
        _check_reads(experiment, key)
        try:
            args[key] = _CONVERT[key](val)
        except ValueError:
            raise ConfigError(f"bad {key} value {val!r}") from None
    cfg = ExperimentConfig(**args)
    cfg.validate()
    return cfg


def load_config(path: str, **overrides) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), **overrides)


def _write_csv(path: str, header: str, rows) -> None:
    """Write the header and rows to ``path`` (nothing when it is empty)."""
    from .fileio import write_lines  # here, so importing stabgeo leaves fileio unloaded
    if path:
        write_lines(path, [header] + [csv_row(*row) for row in rows])


def csv_row(*values) -> str:
    """One CSV line: bools as 0/1, integers as-is, floats to 12 significant
    digits."""
    return ",".join(_fmt(v) for v in values)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def run_cap_scan(cfg: ExperimentConfig):
    """Cap-cutting family: for each cap volume, the volume-product deficit
    and the Banach-Mazur distance to the ball; fits the log-log exponent of
    delta_bm against bs_deficit.  Returns (FitResult or None, rows)."""
    cfg.validate()
    if cfg.experiment != "cap-scan":
        raise ConfigError(f"run_cap_scan got experiment {cfg.experiment!r}")
    samples = cfg.profile_samples or 16385
    rows = []
    for eps_cap in cfg.grid:
        body = _polarity.cap_cut_body(cfg.dim, float(eps_cap), samples=samples)
        res = _polarity.bs_deficit(body)
        delta = _polarity.bm_distance_to_ball(body)
        rows.append((float(eps_cap), res.bs_deficit, delta))
    pts = [(r[1], r[2]) for r in rows if r[1] > cfg.min_deficit and r[2] > 0]
    fit = _scan_fit(pts)
    _write_csv(cfg.output_path, CSV_HEADERS["cap-scan"], rows)
    return fit, rows


def run_bs_scan(cfg: ExperimentConfig):
    """Seeded family of random o-symmetric revolution bodies (one per grid
    amplitude; amplitude 0 is an exact ellipsoid).  Writes one
    (bs_deficit, delta_bm) row per body and returns (max_ratio, rows) where
    max_ratio is the measured sup of delta_bm / deficit^(2/(3(n+1)))."""
    cfg.validate()
    if cfg.experiment != "bs-scan":
        raise ConfigError(f"run_bs_scan got experiment {cfg.experiment!r}")
    samples = cfg.profile_samples or 8193
    rows = []
    for idx, amp in enumerate(cfg.grid):
        rng = np.random.default_rng(cfg.seed + idx)
        body = _bodies.random_revolution_body(cfg.dim, rng, samples=samples,
                                              amplitude=float(amp))
        res = _polarity.bs_deficit(body)
        delta = _polarity.bm_distance_to_ball(body)
        rows.append((res.bs_deficit, delta))
    expo = 2.0 / (3.0 * (cfg.dim + 1))
    ratios = [d / e ** expo for e, d in rows if e > cfg.min_deficit]
    max_ratio = max(ratios) if ratios else float("nan")
    _write_csv(cfg.output_path, CSV_HEADERS["bs-scan"], rows)
    return max_ratio, rows


def _gaussian_gridfn(samples, half_width=6.0):
    x = np.linspace(-half_width, half_width, samples)
    return _pl1d.GridFn1D(x, np.exp(-x * x), log_concave=True)


def _pl_scan_point_shift(delta, samples):
    m = _gaussian_gridfn(samples)
    x = m.grid
    f = _pl1d.GridFn1D(x, np.exp(-(x - delta) ** 2), log_concave=True)
    g = _pl1d.GridFn1D(x, np.exp(-(x + delta) ** 2), log_concave=True)
    return _pl1d.pl_report(f, g, m=m)


def _pl_scan_point_asymmetric(delta, samples):
    x = np.linspace(-6.0, 6.0, samples)
    vals = np.exp(-x * x) * (1.0 + delta * np.sign(x))
    f = _pl1d.GridFn1D(x, vals)
    return _pl1d.pl_report(f, f)


def run_pl_scan(cfg: ExperimentConfig):
    """Perturbation-family scan of the 1-D (pl-scan) or level-stack
    (pln-scan) deficit/stability pipeline.  Writes
    ``delta,eps,l1,omega,ratio`` rows and fits log l1 against log eps.
    The ratio column is l1/omega(eps) in 1-D and l1/sqrt(omega(eps)) for
    stacks.  Returns (FitResult or None, rows)."""
    cfg.validate()
    if cfg.experiment not in ("pl-scan", "pln-scan"):
        raise ConfigError(f"run_pl_scan got experiment {cfg.experiment!r}")
    rows = []
    if cfg.experiment == "pl-scan":
        samples = cfg.grid_samples or 4801
        for delta in cfg.grid:
            if cfg.family == "shift":
                rep = _pl_scan_point_shift(float(delta), samples)
            else:
                rep = _pl_scan_point_asymmetric(float(delta), samples)
            l1 = max(rep.l1_f, rep.l1_g)
            om = rep.omega_bound
            rows.append((float(delta), rep.deficit, l1, om, _safe_ratio(l1, om)))
    else:
        levels = cfg.level_count or 48
        f = _pln.gaussian_stack(cfg.dim, level_count=levels)
        for delta in cfg.grid:
            g = _pln.axis_dilated_stack(f, 1.0 + float(delta))
            m = _pln.minimal_midpoint_stack(f, g)
            trace = _pln.pl_trace(f, g, m)
            om = trace.omega
            bound = math.sqrt(om) if om > 0 else 0.0
            rows.append((float(delta), trace.eps, trace.l1_fg, om,
                         _safe_ratio(trace.l1_fg, bound)))
    pts = [(r[1], r[2]) for r in rows if r[1] > cfg.min_deficit and r[2] > cfg.min_deficit]
    fit = _scan_fit(pts)
    _write_csv(cfg.output_path, CSV_HEADERS[cfg.experiment], rows)
    return fit, rows


def _safe_ratio(num, den):
    if den > 0:
        return num / den
    return 0.0 if num <= 1e-9 else float("inf")


def run(cfg: ExperimentConfig):
    cfg.validate()
    if cfg.experiment == "cap-scan":
        return run_cap_scan(cfg)
    if cfg.experiment == "bs-scan":
        return run_bs_scan(cfg)
    return run_pl_scan(cfg)
