"""Command-line surface.

    wickbench run --config suite.json [--seed S] [--out DIR] [--tol T] [--jobs N]
    wickbench check <name> --params '<json>' [--tol T]
    wickbench list-checks

Exit codes: 0 all rows pass, 1 any row fails, 2 the config, or a task it
generates, cannot be computed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .checks import CHECK_REGISTRY, DEFAULT_TOLS, run_check
from .suite import _ENCODE, INPUT_ERRORS, ConfigError, load_config, run_rendered, write_rendered


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
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be an integer >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol is not None:
        cfg.tolerances = {**cfg.tolerances, "exact": args.tol}
    cfg.validate()
    out_dir = args.out or cfg.out or "."
    rendered = run_rendered(cfg, jobs=args.jobs)
    json_path, csv_path = write_rendered(rendered, out_dir)
    failures = [record for _, record in rendered if record[6] == "false"]
    for check, _, _, _, gap, tol, _, _ in failures[:20]:
        print(f"FAIL {check} gap={gap} tol={tol}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures", file=sys.stderr)
    print(f"{len(rendered)} rows, {len(failures)} failed; wrote {json_path} and {csv_path}")
    return 1 if failures else 0


def _cmd_check(args) -> int:
    tols = {"exact": args.tol} if args.tol is not None else None
    rows = run_check(args.name, json.loads(args.params), tols)
    for r in rows:
        print(_ENCODE(r.as_dict()))
    return 0 if all(r.passed for r in rows) else 1


def _cmd_list() -> int:
    width = max(len(name) for name in CHECK_REGISTRY)
    for name, spec in CHECK_REGISTRY.items():
        print(f"{name:<{width}}  {spec.describe}")
    print(f"\ndefault tolerances: {json.dumps(DEFAULT_TOLS, sort_keys=True)}")
    return 0


def main(argv=None) -> int:
    """0 when every row passes, 1 when any row fails, 2 when anything raises."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_list()
    except INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
    return 2


if __name__ == "__main__":
    sys.exit(main())
