"""Child process for the traced run: replays `wickbench run` through the
public API, with or without span tracing, and prints one JSON line.

    python perfbench/replay.py plain   CONFIG OUT_DIR
    python perfbench/replay.py traced  CONFIG OUT_DIR SPANS_FILE WORKLOAD
    python perfbench/replay.py speedup CONFIG FIRST_JOBS

`plain` and `traced` call, in the order `cli._cmd_run` does, `load_config`,
`build_tasks`, `run_check` per task, a sort by task key and
`write_reports`.  `speedup` times untraced `run_suite` at --jobs 1 and 2
in the order given; no wrapper is installed when its pool forks.
Run with the repository's `src` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402


def _task_key(task: dict) -> tuple:
    return task["check"], json.dumps(task["params"], sort_keys=True, separators=(",", ":"))


def replay(config_path: str, out_dir: str, span=lambda name: contextlib.nullcontext()) -> int:
    """One suite run through the public API; returns the CLI's exit code."""
    from wickbench import checks, suite

    with span("cli.run"):
        cfg = suite.load_config(config_path)
        tasks = suite.build_tasks(cfg)
        tols = {**checks.DEFAULT_TOLS, **cfg.tolerances}
        results = []
        for task in tasks:
            rows = checks.run_check(task["check"], task["params"], tols)
            if cfg.negate:
                rows = [r.negated() for r in rows]
            results.append((_task_key(task), rows))
        with span("suite.sort"):
            results.sort(key=lambda item: item[0])
        reports = [row for _, rows in results for row in rows]
        suite.write_reports(reports, out_dir)
    return 0 if all(r.passed for r in reports) else 1


def main(argv) -> dict:
    mode = argv[0]
    import wickbench  # noqa: F401  (import cost stays outside every timed region)

    if mode == "plain":
        start = time.perf_counter()
        code = replay(argv[1], argv[2])
        return {"wall_s": time.perf_counter() - start, "code": code}
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        code = replay(argv[1], argv[2], tracer.span)
        wall = time.perf_counter() - start
        tracer.uninstall()
        tracer.dump(argv[3], argv[4])
        metrics = tracing.layer_metrics(tracer.names, tracer.starts, tracer.ends,
                                        tracer.parents, tracer.counts)
        return {"wall_s": wall, "code": code, "metrics": metrics, "absent": tracer.absent}
    if mode == "speedup":
        from wickbench import suite

        cfg = suite.load_config(argv[1])
        first = int(argv[2])
        walls = {}
        for jobs in (first, 3 - first):
            start = time.perf_counter()
            _, code = suite.run_suite(cfg, jobs=jobs)
            walls[jobs] = time.perf_counter() - start
        return {"j1_s": walls[1], "j2_s": walls[2], "code": code}
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
