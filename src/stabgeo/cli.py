"""Command-line entry point.

Subcommands: santalo, pl1d, fmp, pln, and one per entry of
``experiments.SCANS`` (cap-scan, bs-scan, pl-scan, pln-scan), each bound to
its handler by ``set_defaults``; every scan runs through ``experiments.run``.
Exit codes: 0 success, 1 configuration error (malformed input, or two
bodies or stacks of different kinds or dimensions), 2 numerical failure
(diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bodies, experiments, fileio, fmp, pl1d, pln, polarity
from .errors import ConfigError, ConvergenceError, UnsupportedCombinationError
from .experiments import csv_row

_NUMERIC_ERRORS = (
    ConvergenceError,
    ArithmeticError,
    ValueError,
    TypeError,
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stabgeo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("santalo", help="Santalo point and volume-product deficit")
    s.add_argument("--body", required=True)
    s.add_argument("--dim", type=int, default=3)
    s.set_defaults(handler=_cmd_santalo)

    s = sub.add_parser("pl1d", help="1-D midpoint deficit and stability report")
    s.add_argument("--f", required=True, dest="f_path")
    s.add_argument("--g", required=True, dest="g_path")
    s.add_argument("--mode", choices=("arith", "geom"), default="arith")
    s.set_defaults(handler=_cmd_pl1d)

    s = sub.add_parser("fmp", help="Brunn-Minkowski stability bound check")
    s.add_argument("--k", required=True, dest="k_path")
    s.add_argument("--c", required=True, dest="c_path")
    s.add_argument("--dim", type=int, default=3)
    s.set_defaults(handler=_cmd_fmp)

    s = sub.add_parser("pln", help="level-stack midpoint trace")
    s.add_argument("--f", required=True, dest="f_path")
    s.add_argument("--g", required=True, dest="g_path")
    s.add_argument("--m", dest="m_path")
    s.set_defaults(handler=_cmd_pln)

    # one option per config key the scan reads; the config parser converts
    # the option text as it converts config values
    for name, scan in experiments.SCANS.items():
        s = sub.add_parser(name, help=f"run the {name} experiment")
        s.add_argument("--config")
        for key in scan.keys:
            s.add_argument(scan_option(key), dest=key)
        s.set_defaults(handler=_cmd_scan)
    return p


def scan_option(key: str) -> str:
    """The command-line option that sets a scan config key."""
    return "--out" if key == "output_path" else "--" + key.replace("_", "-")


def _cmd_santalo(args) -> int:
    body = fileio.load_body(args.body, dim=args.dim)
    res = polarity.santalo_point(body)
    z = np.zeros(2) if len(res.point) < 2 else res.point[:2]
    print("zx,zy,volume,polar_volume,product,deficit")
    print(csv_row(z[0], z[1], bodies.volume(body), res.polar_volume,
                  res.volume_product, res.bs_deficit))
    return 0


def _cmd_pl1d(args) -> int:
    domain = pl1d.HALF_LINE if args.mode == "geom" else pl1d.WHOLE_LINE
    f = fileio.load_gridfn(args.f_path, domain=domain)
    g = fileio.load_gridfn(args.g_path, domain=domain)
    mean = "geometric" if args.mode == "geom" else "arithmetic"
    rep = pl1d.pl_report(f, g, mean=mean)
    print("eps,omega,a,b,l1_f,l1_g,vacuous")
    print(csv_row(rep.deficit, rep.omega_bound, rep.a, rep.b, rep.l1_f, rep.l1_g,
                  rep.vacuous))
    return 0


def _cmd_fmp(args) -> int:
    K = fileio.load_body(args.k_path, dim=args.dim)
    C = fileio.load_body(args.c_path, dim=args.dim)
    rep = fmp.fmp_bound_check(K, C)
    print("sigma,A,gamma_star,lhs_add,rhs_add,lhs_prod,rhs_prod,eta")
    print(csv_row(rep.sigma, rep.A, rep.gamma_star, rep.lhs_additive, rep.rhs_additive,
                  rep.lhs_product, rep.rhs_product, rep.eta))
    return 0


def _cmd_pln(args) -> int:
    f = fileio.load_stack(args.f_path)
    g = fileio.load_stack(args.g_path)
    m = fileio.load_stack(args.m_path) if args.m_path else pln.minimal_midpoint_stack(f, g)
    trace = pln.pl_trace(f, g, m)
    print("eps,b,b_gap,omega,sqrt_omega,l1_fg,l1_fm,l1_gm,l1_tilde_fg,"
          "jsize_lhs,jsize_rhs,ieta,sectioncap_margin,swapped")
    print(csv_row(trace.eps, trace.b, trace.b_gap, trace.omega, trace.sqrt_omega,
                  trace.l1_fg, trace.l1_fm, trace.l1_gm, trace.l1_tilde_fg,
                  trace.jsize_lhs, trace.jsize_rhs, trace.ieta,
                  trace.sectioncap_margin, trace.swapped))
    print("t,alpha,beta,sigma,eta,in_I")
    for j in range(len(trace.levels)):
        print(csv_row(trace.levels[j], trace.alpha[j], trace.beta[j],
                      trace.sigma[j], trace.eta[j], bool(trace.I_mask[j])))
    return 0


def _cmd_scan(args) -> int:
    scan = experiments.SCANS[args.command]
    overrides = {key: getattr(args, key) for key in scan.keys}
    overrides["experiment"] = args.command
    if args.config:
        cfg = experiments.load_config(args.config, **overrides)
    else:
        cfg = experiments.parse_config_text("", **overrides)
    summary, rows = experiments.run(cfg)
    print(f"rows={len(rows)} {scan.line(summary)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConfigError, UnsupportedCombinationError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
