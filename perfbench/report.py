"""Print every end-to-end metric by name and unit, per workload, and its
ratio against an earlier result.

    python3 perfbench/report.py [RESULT ...] [--base RESULT ...]

Each RESULT is a record written by run.py (``.perfbench_out/result-*.json``)
or a directory of them; the default is ``.perfbench_out``.  Untraced records
of one workload are pooled: the median over runs is printed with the run
count and, from four runs on, the spread (interquartile range over median).
With ``--base`` every metric also gets its ratio to the base median, printed
beside the base value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{workload: [record, ...]} for the untraced records under paths."""
    out = {}
    for p in map(Path, paths):
        files = sorted(p.glob("result-*-trace0.json")) if p.is_dir() else [p]
        for f in files:
            rec = json.loads(f.read_text(encoding="utf-8"))
            if rec.get("trace") == 0:
                out.setdefault(rec["workload"], []).append(rec)
    return out


def summarize(records):
    """{metric: (median, unit, spread or None)} over runs."""
    out = {}
    for name, first in records[0]["e2e"].items():
        vals = [r["e2e"][name]["value"] for r in records]
        med = statistics.median(vals)
        spread = None
        if len(vals) >= 4 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        out[name] = (med, first["unit"], spread)
    return out


def _fmt(x):
    return "-" if x is None else f"{x:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="*", default=[str(ROOT / ".perfbench_out")])
    ap.add_argument("--base", nargs="+", default=[])
    args = ap.parse_args(argv)

    cur = load(args.results)
    base = load(args.base)
    if not cur:
        sys.stderr.write("no untraced result records found\n")
        return 1
    for workload in sorted(cur):
        recs = cur[workload]
        seeds = sorted(r["seed"] for r in recs)
        print(f"{workload}: {len(recs)} runs, seeds {seeds}, "
              f"{recs[0]['checks_per_round']} checks per round")
        head = f"  {'metric':14s} {'unit':5s} {'median':>12s} {'spread':>8s}"
        if workload in base:
            head += f" {'base':>12s} {'ratio':>8s}"
        print(head)
        b = summarize(base[workload]) if workload in base else {}
        for name, (med, unit, spread) in summarize(recs).items():
            line = f"  {name:14s} {unit:5s} {med:12.6g} {_fmt(spread):>8s}"
            if name in b:
                bmed = b[name][0]
                ratio = med / bmed if bmed else None
                line += f" {bmed:12.6g} {_fmt(ratio):>8s}"
            print(line)
        wrong = sorted({w for r in recs for w in r["wrong_checks"]})
        print(f"  wrong-direction checks (any run): {wrong}")
        for name, value in recs[0]["known_defects"].items():
            print(f"  known defect {name}: value {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
