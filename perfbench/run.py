"""stabgeo benchmark: one seeded workload, timed untraced or traced.

    python3 perfbench/run.py --workload bs-bodies --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  With ``--trace 0`` the run
repeats the workload's check list in a closed loop for about ``--seconds``
and reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced rounds and reports per-layer metrics.  The last line
of standard output is one JSON object; a fuller record (environment, input
hash, wrong-direction checks, known-defect values) goes to
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
MIN_CHECKS = 100  # checks per workload, so that 10 lie beyond the 90th percentile
# An untraced run has one warm-up round (lazy imports and caches fill) that is
# checked but not timed, and at least three timed rounds.
MIN_ROUNDS = 4

# On a shared virtual machine with a few cores, other tenants change how fast
# the same code runs by up to 1.8x within minutes.  A fixed reference kernel
# that does not call stabgeo is timed after every check, and each time the
# benchmark reports is scaled by REF_KERNEL_S over the median kernel time of
# the same round: it reads in seconds of a host on which the kernel takes
# REF_KERNEL_S.  The raw times and the kernel times go to the record.  Set-up
# probes are scaled by the median factor over the rounds: a kernel timed next
# to an idle wait reads slow from cold caches.
REF_KERNEL_S = 1e-3

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "check_ms_p50": "ms",
    "check_ms_p90": "ms", "peak_rss_mb": "MB", "returned_frac": "1",
    "right_frac": "1", "eq_floor": "1", "ref_err": "1", "exponent_err": "1",
}


def _import_package():
    """Import stabgeo from this checkout's src/ only; exit 2 if it is absent."""
    init = SRC / "stabgeo" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"perfbench: no stabgeo package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import stabgeo

    if Path(stabgeo.__file__).resolve() != init.resolve():
        sys.stderr.write(f"perfbench: imported stabgeo from {stabgeo.__file__}, not {SRC}\n")
        sys.exit(2)


def _feed(h, obj):
    """Hash generated inputs by value (arrays by their bytes)."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj, dtype=float).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        for name in obj.__dataclass_fields__:
            _feed(h, getattr(obj, name))
    else:
        h.update(repr(obj).encode())


def input_hash(checks):
    h = hashlib.sha256()
    for c in checks:
        h.update(c.label.encode())
        _feed(h, c.inputs)
    return h.hexdigest()


def _read(path, default="unknown"):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return default


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": _read("/proc/loadavg").split()[:3],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_seconds():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def reference_kernel():
    """Time a fixed piece of work in the mix of stabgeo's checks: a sort and
    scans over a 32k array, small-array numpy calls and an interpreted loop."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.random.default_rng(0).random(32768)
    x.sort()
    np.maximum.accumulate(np.cumsum(x))
    v = np.zeros(3)
    for k in range(100):
        v = v + np.sin(x[k:k + 3])
    acc = 0.0
    for k in range(2000):
        acc += k * 0.5
    return time.perf_counter() - t0


def run_round(checks, scan_dir, tracer=None):
    """Run every check once; a check that raises is recorded and the loop
    goes on.  An untraced round times the reference kernel after each check."""
    lat, cpu, ref, outs = [], [], [], []
    t_start = time.perf_counter()
    for i, check in enumerate(checks):
        if tracer is not None:
            tracer.check_id = i
            span = tracer.open("bench.check")
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = check.run(scan_dir)
        except Exception as exc:  # counted as a failed check, the run continues
            out = {"error": f"{type(exc).__name__}: {exc}"}
        lat.append(time.perf_counter() - t0)
        cpu.append(_cpu_seconds() - c0)
        if tracer is not None:
            tracer.close(span)
        outs.append(out)
        if tracer is None:
            ref.append(reference_kernel())
    elapsed = time.perf_counter() - t_start
    csv = {p.name: p.read_bytes() for p in sorted(scan_dir.glob("*.csv"))}
    return {"span": elapsed, "wall": sum(lat), "lat": lat, "cpu": cpu, "ref": ref,
            "outs": outs, "csv": csv}


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def setup_probe_times(args):
    """Set-up time from process start: fresh interpreters that import the
    package and generate the inputs, timed from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, hashes = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(2)
        hashes.append(proc.stdout.strip())
    return times, hashes


def _layer_metrics(tracer, rounds):
    """Per-layer metrics, each the median over traced rounds, and the largest
    gap between a round's traced wall time and its self times plus the
    benchmark's own time."""
    from tracer import layer_names

    per_round, gap = [], 0.0
    for first, last, span in rounds:
        agg = tracer.summary(first, last)
        checks = agg.pop("bench.check", {"self_s": 0.0})
        covered = sum(tracer.end[i] - tracer.start[i] for i in range(first, last)
                      if tracer.name[i] == "bench.check")
        bench_own = checks["self_s"] + (span - covered)
        gap = max(gap, abs(sum(v["self_s"] for v in agg.values()) + bench_own - span))
        row = {"bench.self_s": bench_own}
        for name, nfev in layer_names():
            v = agg.get(name, {"calls": 0, "self_s": 0.0, "nfev": 0})
            row[f"{name}.calls"] = v["calls"]
            row[f"{name}.self_s"] = v["self_s"]
            if nfev:
                row[f"{name}.nfev"] = v["nfev"]
        per_round.append(row)
    return {k: _median([r[k] for r in per_round]) for k in per_round[0]}, gap


def measure(checks, seconds, trace):
    """Closed loop of rounds for about ``seconds``: untraced rounds, each
    followed by a traced one when ``trace`` is set.  Without tracing, at
    least MIN_ROUNDS rounds run."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced, spans = [], [], []
    min_rounds = 2 if trace else MIN_ROUNDS
    scan_dir = OUT / f"scans-{os.getpid()}"
    scan_dir.mkdir(parents=True)
    t_begin = time.perf_counter()
    try:
        while True:
            plain.append(run_round(checks, scan_dir))
            if tracer is not None:
                first = len(tracer.name)
                tracer.install()
                try:
                    traced.append(run_round(checks, scan_dir, tracer))
                finally:
                    tracer.restore()
                spans.append((first, len(tracer.name), traced[-1]["span"]))
            elapsed = time.perf_counter() - t_begin
            per_loop = elapsed / len(plain)
            if len(plain) >= min_rounds and elapsed + per_loop > seconds:
                return plain, traced, tracer, spans
    finally:
        shutil.rmtree(scan_dir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_probe:
        print(input_hash(workloads.build(args.workload, args.seed)))
        return 0

    env = environment()
    setup_times, probe_hashes = setup_probe_times(args)
    checks = workloads.build(args.workload, args.seed)
    digest = input_hash(checks)
    plain, traced, tracer, spans = measure(checks, args.seconds, args.trace)

    every = plain + traced
    outs = [o for r in every for o in r["outs"]]
    attempted = len(outs)
    errors = [(checks[i % len(checks)].label, o["error"]) for i, o in enumerate(outs) if "error" in o]
    first_outs = plain[0]["outs"]
    wrong = [c.label for c, o in zip(checks, first_outs) if o.get("wrong")]
    gate_fail = [c.label for c, o in zip(checks, first_outs) if o.get("gate") is False]

    def worst(key):
        vals = [o[key] for o in outs if o.get(key) is not None]
        return max(vals) if vals else float("nan")

    timed = plain[1:]
    # host-speed factor of each timed round: the reference time over the
    # round's median kernel time
    speed = [REF_KERNEL_S / _median(r["ref"]) for r in timed]
    ones = [1.0] * len(timed)

    def per_check(key, scale):
        """Each check's median over the timed rounds."""
        return [_median([r[key][i] * f for r, f in zip(timed, scale)])
                for i in range(len(checks))]

    lat, raw_lat = per_check("lat", speed), per_check("lat", ones)
    raw = {
        "setup_s": _median(setup_times),
        "wall_s": sum(raw_lat),
        "cpu_s": sum(per_check("cpu", ones)),
        "check_ms_p50": 1e3 * _percentile(raw_lat, 0.5),
        "check_ms_p90": 1e3 * _percentile(raw_lat, 0.9),
    }
    e2e = {
        "setup_s": _median(setup_times) * _median(speed),
        "wall_s": sum(lat),
        "cpu_s": sum(per_check("cpu", speed)),
        "check_ms_p50": 1e3 * _percentile(lat, 0.5),
        "check_ms_p90": 1e3 * _percentile(lat, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "returned_frac": 1.0 - len(errors) / attempted,
        "right_frac": 1.0 - sum(1 for o in outs if o.get("wrong")) / attempted,
        "eq_floor": worst("eq"),
        "ref_err": worst("ref"),
        "exponent_err": worst("exp"),
    }
    problems = []
    if errors:
        problems.append(f"{len(errors)} checks raised")
    if gate_fail:
        problems.append(f"acceptance-level checks failed: {gate_fail}")
    if any(h != digest for h in probe_hashes):
        problems.append("set-up probes generated different inputs for the same seed")
    if any(r["csv"] != every[0]["csv"] for r in every):
        problems.append("scan CSV bytes differ between rounds (traced or not)")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "input_sha256": digest,
        "checks_per_round": len(checks), "rounds": len(plain), "timed_rounds": len(timed),
        "round_wall_s": [r["wall"] for r in plain], "round_host_speed": speed,
        "round_check_s": [r["lat"] for r in plain], "round_kernel_s": [r["ref"] for r in plain],
        "setup_samples_s": setup_times,
        "unscaled": raw,
        "wrong_checks": wrong,
        "known_defects": {c.known_defect: o.get("value") for c, o in zip(checks, first_outs)
                          if c.known_defect},
        "errors": errors[:20], "problems": problems,
        "values": {c.label: o.get("value") for c, o in zip(checks, first_outs)},
        "latency_ms": {c.label: 1e3 * x for c, x in zip(checks, lat)},
        "e2e": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
    }
    metrics = record["e2e"]
    if tracer is not None:
        layers, gap = _layer_metrics(tracer, spans)
        layers["trace.overhead_s"] = (_median([r["wall"] for r in traced])
                                      - _median([r["wall"] for r in plain]))
        if gap > max(abs(layers["trace.overhead_s"]), 1e-6):
            problems.append("per-layer self times do not add up to the traced wall time")
        record.update(layers=layers, accounting_gap_s=gap, trace_missing=tracer.missing)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        metrics = {k: {"value": v, "unit": "count" if k.endswith((".calls", ".nfev")) else "s"}
                   for k, v in layers.items()}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced rounds "
          f"(one warm-up) of {len(checks)} checks, input sha256 {digest[:16]}; a check's "
          f"latency is its median over {len(timed)} timed rounds, so p50 and p90 have "
          f"{len(lat)} samples")
    print(f"environment: {json.dumps(env)}")
    print(f"host speed (reference kernel {REF_KERNEL_S * 1e3:g} ms over its median time): "
          f"median {_median(speed):.4g} over {len(speed)} rounds")
    for k, v in record["e2e"].items():
        line = f"  {k:14s} {v['value']:.6g} {v['unit']}"
        if k in raw:
            line += f"  (unscaled {raw[k]:.6g})"
        print(line)
    print(f"wrong-direction checks: {wrong}")
    print(f"known defects: {record['known_defects']}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
