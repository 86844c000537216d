"""Command-line surface.

    wickbench run --config suite.json [--seed S] [--out DIR] [--tol T] [--jobs N]
    wickbench check <name> --params '<json>' [--tol T]
    wickbench list-checks

Exit codes: 0 all rows pass, 1 any row fails, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import CHECK_REGISTRY, DEFAULT_TOLS, run_check
from .suite import ConfigError, load_config, run_suite, write_reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickbench",
        description="Numerical verification workbench for Gaussian Wick calculus inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured check suite and write reports")
    run_p.add_argument("--config", required=True, help="path to a suite config (JSON)")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--out", help="output directory (default: config 'out' or '.')")
    run_p.add_argument("--tol", type=float, help="override the exact-path tolerance")
    run_p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")

    check_p = sub.add_parser("check", help="run one named check on inline JSON parameters")
    check_p.add_argument("name", help="check name (see list-checks)")
    check_p.add_argument("--params", required=True, help="inline JSON parameter object")
    check_p.add_argument("--tol", type=float, help="override the exact-path tolerance")

    sub.add_parser("list-checks", help="list available check names")
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.tol is not None:
        cfg.tolerances = {**cfg.tolerances, "exact": args.tol}
    out_dir = args.out or cfg.out or "."
    reports, code = run_suite(cfg, jobs=max(1, args.jobs))
    json_path, csv_path = write_reports(reports, out_dir)
    failures = [r for r in reports if not r.passed]
    for r in failures[:20]:
        print(f"FAIL {r.check} gap={r.gap!r} tol={r.tolerance!r}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures", file=sys.stderr)
    print(f"{len(reports)} rows, {len(failures)} failed; wrote {json_path} and {csv_path}")
    return code


def _cmd_check(args) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        print(f"config error: --params is not valid JSON: {exc}", file=sys.stderr)
        return 2
    tols = {"exact": args.tol} if args.tol is not None else None
    try:
        rows = run_check(args.name, params, tols)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for r in rows:
        print(json.dumps(r.as_dict(), sort_keys=True))
    return 0 if all(r.passed for r in rows) else 1


def _cmd_list() -> int:
    width = max(len(name) for name in CHECK_REGISTRY)
    for name, spec in CHECK_REGISTRY.items():
        print(f"{name:<{width}}  {spec.describe}")
    print(f"\ndefault tolerances: {json.dumps(DEFAULT_TOLS, sort_keys=True)}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_list()


if __name__ == "__main__":
    sys.exit(main())
