"""Shared random families for the property sweeps, and a full-disk fixture.

The 1-D pair generator enforces a minimum shape separation between the two
functions: the deficit of a pair vanishes exactly when one function is a
shifted/scaled copy of the other, and near-copies would push the true
deficit below the discretization floor of the midpoint construction.
"""

import numpy as np
import pytest

from stabgeo import fileio, pl1d

_trapz = getattr(np, "trapezoid", None) or np.trapz

PAIR_GRID = np.linspace(-8.0, 8.0, 1601)


def make_logconcave(grid, kind, center, width, height=1.0):
    x = grid
    if kind == "gauss":
        v = height * np.exp(-((x - center) / width) ** 2 / 2.0)
    elif kind == "laplace":
        v = height * np.exp(-np.abs(x - center) / width)
    elif kind == "indicator":
        # keep only the support lattice so the trapezoid integral is the
        # exact interval length (a zero-taper node would inflate it by one
        # grid step against the sharp midpoint function)
        keep = (x >= center - width) & (x <= center + width)
        x = x[keep]
        v = np.full(len(x), height)
    else:
        raise ValueError(kind)
    return pl1d.GridFn1D(x, v, log_concave=True)


def random_logconcave_pair(rng, grid=PAIR_GRID):
    """Distinct random log-concave pair (mixture of truncated Gaussians,
    two-sided exponentials and interval indicators).  Widths are forced at
    least 20% apart so the pair is never a near-affine copy."""
    kinds = ["gauss", "laplace", "indicator"]
    k1 = kinds[int(rng.integers(0, 3))]
    k2 = kinds[int(rng.integers(0, 3))]
    w1 = float(rng.uniform(0.4, 1.4))
    w2 = w1 * float(rng.uniform(1.2, 2.2))
    if rng.integers(0, 2):
        w1, w2 = w2, w1
    c1, c2 = rng.uniform(-1.5, 1.5, size=2)
    h1, h2 = rng.uniform(0.5, 2.0, size=2)
    return (
        make_logconcave(grid, k1, float(c1), w1, float(h1)),
        make_logconcave(grid, k2, float(c2), w2, float(h2)),
    )


HALFLINE_GRID = np.geomspace(1e-3, 30.0, 5121)


def random_decreasing_logconcave(rng, grid=HALFLINE_GRID):
    """Random decreasing log-concave function on the half-line."""
    u = grid
    lam = float(rng.uniform(0.3, 2.0))
    s = float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(0.5, 2.0))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        v = c * np.exp(-lam * u)
    elif kind == 1:
        v = c * np.exp(-((u / s) ** 2))
    else:
        v = c * np.exp(-lam * u - (u / s) ** 2)
    return pl1d.GridFn1D(u, v, pl1d.HALF_LINE, log_concave=True)


def probability_gridfn(grid, values, log_concave=False):
    total = float(_trapz(values, grid))
    return pl1d.GridFn1D(grid, values / total, log_concave=log_concave)


class _DiskFull:
    """A text file whose writes stop halfway with ENOSPC."""

    def __init__(self, *args, **kwargs):
        self._fh = open(*args, **kwargs)

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture()
def disk_full(monkeypatch):
    """Make every file the package writes fail halfway, as on a full disk."""
    monkeypatch.setattr(fileio, "open", _DiskFull, raising=False)
