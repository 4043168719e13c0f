"""Experiment runner: parameter scans, CSV emission, log-log exponent fits.

Each scan is one entry of ``SCANS``: the config keys it reads (in
command-line order), its CSV header, its grid rule, its row generator, and
how its rows are summarized (an exponent fit or a sup ratio) and printed.
``run`` is the one runner.  It validates the config before doing any work,
gathers all rows in grid order, and only then writes the output file, so a
bad config never leaves a partial CSV.  Configs are plain ``key=value`` text
(``#`` comments).  Grid points use derived seeds (seed + index), making
reruns byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import bodies as _bodies
from . import pl1d as _pl1d
from . import pln as _pln
from . import polarity as _polarity
from .errors import ConfigError, InvalidDataError

PL_FAMILIES = ("asymmetric", "shift")


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
        if self.experiment not in SCANS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for f in dataclasses.fields(self):
            if f.name in _CONVERT and getattr(self, f.name) != f.default:
                _check_reads(self.experiment, f.name)
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if len(self.grid) == 0:
            raise ConfigError("grid must be nonempty")
        g = np.asarray(self.grid, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ConfigError(f"grid values must be finite, got {list(self.grid)}")
        SCANS[self.experiment].check_grid(self, g)
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
    if key not in SCANS[experiment].keys:
        readers = ", ".join(e for e, scan in SCANS.items() if key in scan.keys)
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


def _cap_grid(cfg: ExperimentConfig, g: np.ndarray) -> None:
    cap = _bodies.unit_ball_volume(cfg.dim) / 4.0
    if np.any(g <= 0) or np.any(g >= cap):
        raise ConfigError(f"cap-scan grid values must lie in (0, {cap:.6g}) for dim {cfg.dim}")


def _bs_grid(cfg: ExperimentConfig, g: np.ndarray) -> None:
    if np.any(g < 0) or np.any(g >= 1):
        raise ConfigError("bs-scan grid (profile amplitudes) must lie in [0, 1)")


def _positive_grid(cfg: ExperimentConfig, g: np.ndarray) -> None:
    if np.any(g <= 0):
        raise ConfigError("perturbation grid values must be positive")


def _cap_rows(cfg: ExperimentConfig):
    """Per cap volume: the volume-product deficit and the Banach-Mazur
    distance to the ball of the cap-cut body."""
    samples = cfg.profile_samples or 16385
    for eps_cap in cfg.grid:
        body = _polarity.cap_cut_body(cfg.dim, float(eps_cap), samples=samples)
        yield (float(eps_cap), _polarity.bs_deficit(body).bs_deficit,
               _polarity.bm_distance_to_ball(body))


def _bs_rows(cfg: ExperimentConfig):
    """Per amplitude, the same for a seeded random o-symmetric body of
    revolution (amplitude 0 is an exact ellipsoid)."""
    samples = cfg.profile_samples or 8193
    for idx, amp in enumerate(cfg.grid):
        rng = np.random.default_rng(cfg.seed + idx)
        body = _bodies.random_revolution_body(cfg.dim, rng, samples=samples, amplitude=float(amp))
        yield _polarity.bs_deficit(body).bs_deficit, _polarity.bm_distance_to_ball(body)


def _pl_rows(cfg: ExperimentConfig):
    """Per delta, the 1-D deficit, L1 distance, omega(eps) and l1/omega(eps):
    Gaussians shifted by +-delta with their midpoint, or one Gaussian scaled
    by 1 +- delta on either side of 0 paired with itself."""
    x = np.linspace(-6.0, 6.0, cfg.grid_samples or 4801)
    for delta in map(float, cfg.grid):
        if cfg.family == "shift":
            f, g, m = (_pl1d.GridFn1D(x, np.exp(-(x - c) ** 2), log_concave=True)
                       for c in (delta, -delta, 0.0))
            rep = _pl1d.pl_report(f, g, m=m)
        else:
            f = _pl1d.GridFn1D(x, np.exp(-x * x) * (1.0 + delta * np.sign(x)))
            rep = _pl1d.pl_report(f, f)
        l1 = max(rep.l1_f, rep.l1_g)
        yield delta, rep.deficit, l1, rep.omega_bound, _safe_ratio(l1, rep.omega_bound)


def _pln_rows(cfg: ExperimentConfig):
    """Per delta, the same for a Gaussian level stack and its axis dilation
    by 1 + delta, with l1/sqrt(omega(eps))."""
    f = _pln.gaussian_stack(cfg.dim, level_count=cfg.level_count or 48)
    for delta in map(float, cfg.grid):
        g = _pln.axis_dilated_stack(f, 1.0 + delta)
        trace = _pln.pl_trace(f, g, _pln.minimal_midpoint_stack(f, g))
        bound = math.sqrt(trace.omega) if trace.omega > 0 else 0.0
        yield delta, trace.eps, trace.l1_fg, trace.omega, _safe_ratio(trace.l1_fg, bound)


def _safe_ratio(num, den):
    if den > 0:
        return num / den
    return 0.0 if num <= 1e-9 else float("inf")


def _fit_rows(rows, x_min: float, y_min: float):
    """The exponent fit of column 2 against column 1 over the rows above
    (x_min, y_min); None for fewer than 3 such rows."""
    pts = [(r[1], r[2]) for r in rows if r[1] > x_min and r[2] > y_min]
    return fit_exponent(pts) if len(pts) >= 3 else None


def _bs_sup_ratio(cfg: ExperimentConfig, rows) -> float:
    """The measured sup of delta_bm / deficit^(2/(3(n+1))) over the deficits
    above min_deficit; nan when there are none."""
    expo = 2.0 / (3.0 * (cfg.dim + 1))
    return max((d / e ** expo for e, d in rows if e > cfg.min_deficit), default=float("nan"))


def _fit_line(*names):
    return lambda fit: ("slope=nan" if fit is None else
                        " ".join(f"{name}={getattr(fit, name):.6g}" for name in names))


# Each scan by name: the config keys it reads, in command-line order (a
# config or an option naming another key is a configuration error); its CSV
# header; its grid rule, which raises ConfigError; its row generator, in
# grid order; its summary of the rows, a FitResult (None for fewer than 3
# points) or a sup ratio; and the summary as the command prints it.
_Scan = namedtuple("_Scan", "keys header check_grid rows summary line")
SCANS = {
    "cap-scan": _Scan(
        ("dim", "grid", "output_path", "profile_samples", "min_deficit"),
        "eps_cap,bs_deficit,delta_bm", _cap_grid, _cap_rows,
        lambda cfg, rows: _fit_rows(rows, cfg.min_deficit, 0.0),
        _fit_line("slope", "intercept", "r_squared")),
    "bs-scan": _Scan(
        ("dim", "grid", "seed", "output_path", "profile_samples", "min_deficit"),
        "bs_deficit,delta_bm", _bs_grid, _bs_rows, _bs_sup_ratio,
        lambda max_ratio: f"max_ratio={max_ratio:.6g}"),
    "pl-scan": _Scan(
        ("grid", "family", "output_path", "grid_samples", "min_deficit"),
        "delta,eps,l1,omega,ratio", _positive_grid, _pl_rows,
        lambda cfg, rows: _fit_rows(rows, cfg.min_deficit, cfg.min_deficit),
        _fit_line("slope", "r_squared")),
    "pln-scan": _Scan(
        ("dim", "grid", "output_path", "level_count", "min_deficit"),
        "delta,eps,l1,omega,ratio", _positive_grid, _pln_rows,
        lambda cfg, rows: _fit_rows(rows, cfg.min_deficit, cfg.min_deficit),
        _fit_line("slope", "r_squared")),
}
EXPERIMENTS = tuple(SCANS)


def run(cfg: ExperimentConfig):
    """Run the scan ``cfg.experiment``: validate the config, build its rows
    in grid order, summarize them, and only then write the CSV.  Returns
    (summary, rows); the summary is the log-log fit of the scan's deficit
    columns (None for fewer than 3 points above min_deficit), or for
    bs-scan the sup ratio."""
    cfg.validate()
    scan = SCANS[cfg.experiment]
    rows = list(scan.rows(cfg))
    summary = scan.summary(cfg, rows)
    _write_csv(cfg.output_path, scan.header, rows)
    return summary, rows
