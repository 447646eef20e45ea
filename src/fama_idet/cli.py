"""Command-line batch runner: sweeps, cross-validation, single-cell eval.

Exit codes: 0 success, 1 validation failure, 2 numerical failure.
Cells run on `--workers` processes (default 1), except in an n_ports sweep:
it runs one MC pass and one EXACT pass over all its K values in this
process, and `--workers` has no effect on it.
"""

from __future__ import annotations

import argparse
import math
import sys

from .specfun import SeriesConvergenceError, mu_from_w
from .sweep import _write_atomic, compare, render, run_sweep, spec_from_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fama-idet",
        description="Outage sweeps and MC/analytic cross-validation for "
        "fluid-antenna multiple access with integrated data and energy transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="flat key=value config file")
        p.add_argument("--trials", type=int, help="MC trials per cell (override)")
        p.add_argument("--seed", type=int, help="MC seed (override)")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel cell processes (default: 1); no effect on an n_ports sweep")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--timing", action="store_true",
                       help="fill the seconds column, where an n_ports sweep's MC rows and "
                            "its EXACT rows each carry their pass's total (output then "
                            "differs by run)")

    add_common(sub.add_parser("sweep", help="run the configured parameter sweep"))
    add_common(sub.add_parser("compare", help="validate MC against EXACT per cell"))
    add_common(sub.add_parser("eval", help="evaluate the single configured cell"))

    p_mu = sub.add_parser("mu", help="print the port-correlation parameter")
    p_mu.add_argument("--w", type=float, required=True, help="aperture in wavelengths")
    return parser


def _load_spec(args, require_axis: bool):
    with open(args.config, "r") as fh:
        text = fh.read()
    return spec_from_config(text, trials=args.trials, seed=args.seed, fmt=args.format,
                            out=args.out, require_axis=require_axis, timing=args.timing)


def _cmd_sweep(args, require_axis: bool) -> int:
    spec = _load_spec(args, require_axis)
    result = run_sweep(spec, workers=args.workers)
    if not spec.output_path:
        sys.stdout.write(render(result, spec.format))
    return EXIT_NUMERICAL if result.failed else EXIT_OK


def _cmd_compare(args) -> int:
    spec = _load_spec(args, require_axis=False)
    report = compare(spec, workers=args.workers)
    lines = []
    all_pass = True
    for line in report:
        status = "PASS" if line.passed else "FAIL"
        all_pass &= line.passed
        cell = f"axis={line.axis} " if line.axis else ""
        if math.isnan(line.mc):
            lines.append(f"{status} {cell}{line.metric}: evaluation error")
        else:
            lines.append(
                f"{status} {cell}{line.metric}: EXACT={line.exact:.6g} vs "
                f"MC={line.mc:.6g} Wilson [{line.lo:.6g}, {line.hi:.6g}]"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_atomic(text, args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "mu":
            print(f"{mu_from_w(args.w):.12g}")
            return EXIT_OK
        if args.command == "sweep":
            return _cmd_sweep(args, require_axis=True)
        if args.command == "eval":
            return _cmd_sweep(args, require_axis=False)
        if args.command == "compare":
            return _cmd_compare(args)
    except (ValueError, FileNotFoundError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SeriesConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
