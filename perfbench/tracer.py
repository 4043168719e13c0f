"""Span tracer installed around stabgeo's layer functions from outside.

The tracer patches module attributes at run time and never edits the
package.  Every call of a traced function records one span (name, start,
end, parent span, check id); spans stay in memory until the run writes them
out.  A layer's self time is its span's duration minus the union of its
child spans.

Three kinds of target are traced:

* functions defined in a stabgeo module, re-bound under every stabgeo
  module attribute that refers to them, so names imported with
  ``from .bodies import volume`` (in ``polarity`` and ``fmp``) are traced too;
* dataclass constructors, through ``__post_init__`` so the class object
  itself is untouched and ``isinstance`` keeps working;
* the scipy optimizers each module imported, traced per importing module
  and counting ``nfev``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time

MODULES = ("bodies", "polarity", "pl1d", "fmp", "pln", "experiments")

FUNCTIONS = (
    ("bodies", "minkowski_midpoint"),
    ("bodies", "concave_majorant"),
    ("bodies", "meridian_support"),
    ("bodies", "volume"),
    ("bodies", "symmetric_difference_volume"),
    ("polarity", "polar"),
    ("polarity", "santalo_point"),
    ("polarity", "bm_distance_to_ball"),
    ("polarity", "cap_cut_body"),
    ("pl1d", "sup_convolution_midpoint"),
    ("pl1d", "pl_report"),
    ("pl1d", "stability_distance"),
    ("pl1d", "exp_substitution"),
    ("fmp", "fmp_bound_check"),
    ("fmp", "homothetic_distance"),
    ("pln", "minimal_midpoint_stack"),
    ("pln", "pl_trace"),
    ("pln", "section_profile"),
    ("experiments", "run"),
    ("experiments", "fit_exponent"),
)
CLASSES = (("bodies", "RevolutionBody"), ("pl1d", "GridFn1D"), ("pln", "LevelStack"))
OPTIMIZERS = (
    ("polarity", "minimize"),
    ("polarity", "minimize_scalar"),
    ("pl1d", "minimize"),
    ("pl1d", "minimize_scalar"),
    ("fmp", "minimize"),
)


def _lc_split(args, kwargs):
    """sup_convolution_midpoint spans are split by whether both inputs are
    flagged log-concave, the property a specialised kernel would key on."""
    f = args[0] if len(args) > 0 else kwargs["f"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    return "lc" if (f.log_concave and g.log_concave) else "general"


# span name -> (function picking the suffix of a call, every suffix it returns)
SPLITS = {"pl1d.sup_convolution_midpoint": (_lc_split, ("lc", "general"))}


def layer_names():
    """Every span name the tracer can emit, with whether it counts nfev."""
    names = []
    for mod, fn in FUNCTIONS:
        base = f"{mod}.{fn}"
        if base in SPLITS:
            names += [(f"{base}.{suffix}", False) for suffix in SPLITS[base][1]]
        else:
            names.append((base, False))
    names += [(f"{mod}.{cls}.init", False) for mod, cls in CLASSES]
    names += [(f"{mod}.{fn}", True) for mod, fn in OPTIMIZERS]
    return names


def self_times(start, end, parent):
    """Self time of every span: duration minus the union of child intervals
    (clipped to the parent), so overlapping children are not counted twice."""
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_a, cur_b = None, None
        for a, b in ivals:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


class Tracer:
    """In-memory span recorder with reversible patching of stabgeo."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name, self.start, self.end = [], [], []
        self.parent, self.check, self.nfev = [], [], []
        self._stack = []
        self.check_id = -1
        self._patches = []
        self.missing = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        i = len(self.name)
        self.name.append(name)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.check.append(self.check_id)
        self.nfev.append(0)
        self._stack.append(i)
        return i

    def close(self, i):
        self.end[i] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, split=None, count_nfev=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(f"{name}.{split(args, kwargs)}" if split else name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count_nfev:
                tracer.nfev[i] = int(getattr(res, "nfev", 0))
            return res

        return traced

    def summary(self, first=0, last=None):
        """{name: {"calls", "self_s", "nfev"}} over spans [first, last)."""
        last = len(self.name) if last is None else last
        sl = slice(first, last)
        par = [p - first if p >= first else -1 for p in self.parent[sl]]
        own = self_times(self.start[sl], self.end[sl], par)
        out = {}
        for name, s, n in zip(self.name[sl], own, self.nfev[sl]):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "nfev": 0})
            agg["calls"] += 1
            agg["self_s"] += s
            agg["nfev"] += n
        return out

    def write(self, path):
        """Write every span as CSV (gzip), for explaining a run afterwards."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,check,nfev\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                fh.write(f"{i},{self.name[i]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.check[i]},"
                         f"{self.nfev[i]}\n")

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def install(self):
        """Patch every target; a target a later version removed is skipped and
        listed in ``missing`` (its metrics then read 0)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        pkg = importlib.import_module("stabgeo")
        mods = {m: importlib.import_module(f"stabgeo.{m}") for m in MODULES}
        holders = [pkg] + list(mods.values())
        for mod, fn in FUNCTIONS:
            orig = getattr(mods[mod], fn, None)
            if orig is None:
                self.missing.append(f"{mod}.{fn}")
                continue
            base = f"{mod}.{fn}"
            wrapper = self.wrap(base, orig, split=SPLITS.get(base, (None,))[0])
            for holder in holders:
                for attr, val in list(vars(holder).items()):
                    if val is orig:
                        self._set(holder, attr, wrapper)
        for mod, cls_name in CLASSES:
            cls = getattr(mods[mod], cls_name, None)
            post = getattr(cls, "__post_init__", None)
            if post is None:
                self.missing.append(f"{mod}.{cls_name}.init")
                continue
            self._set(cls, "__post_init__", self.wrap(f"{mod}.{cls_name}.init", post))
        for mod, fn in OPTIMIZERS:
            orig = getattr(mods[mod], fn, None)
            if orig is None:
                self.missing.append(f"{mod}.{fn}")
                continue
            self._set(mods[mod], fn, self.wrap(f"{mod}.{fn}", orig, count_nfev=True))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, old, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
