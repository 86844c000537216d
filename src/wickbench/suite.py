"""Sweep harness: expand a config into check tasks, run them (optionally
across processes), and write reports whose bytes do not depend on the
degree of parallelism.

Each task is a plain dict (check name + JSON parameters), so it is
picklable and pure: the same task always produces the same rows.  Rows
are ordered canonically by (check, parameter JSON) before writing.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .checks import _CHECK_INDEX, CHECK_REGISTRY, DEFAULT_TOLS, function_from_json, run_check
from .measures import DiscreteMeasure
from .report import InequalityReport


class ConfigError(ValueError):
    """Malformed suite configuration; raised before any computation."""


ALPHA_GRID = [i / 10 for i in range(11)]

_CONFIG_KEYS = {
    "seed", "dim", "alphas", "measures", "functions", "checks",
    "random_sweeps", "tolerances", "quad_order", "mc_count", "negate", "out",
}

# integer config fields: (key, smallest allowed value, null allowed)
_INT_FIELDS = (
    ("seed", 0, False),
    ("dim", 1, True),
    ("random_sweeps", 0, False),
    ("quad_order", 1, True),
    ("mc_count", 2, False),
)


@dataclass
class SuiteConfig:
    seed: int = 0
    dim: int | None = None
    alphas: list = field(default_factory=lambda: list(ALPHA_GRID))
    measures: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    random_sweeps: int = 0
    tolerances: dict = field(default_factory=dict)
    quad_order: int | None = None
    mc_count: int = 100_000
    negate: bool = False
    out: str | None = None

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self):
        for name in self.checks:
            if name not in CHECK_REGISTRY:
                raise ConfigError(f"unknown check {name!r}; see list-checks")
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"alpha {a} outside [0, 1]")
        bad = set(self.tolerances) - set(DEFAULT_TOLS)
        if bad:
            raise ConfigError(f"unknown tolerance keys: {', '.join(sorted(bad))}")
        for key, low, nullable in _INT_FIELDS:
            value = getattr(self, key)
            if value is None and nullable:
                continue
            # bool is an int subclass, but true is not a sweep count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                expected = f"an integer >= {low}" + (" or null" if nullable else "")
                raise ConfigError(f"{key} must be {expected}, got {value!r}")
        if not isinstance(self.negate, bool):
            raise ConfigError(f"negate must be true or false, got {self.negate!r}")
        try:
            for m in self.measures:
                DiscreteMeasure.from_json_dict(m)
            for f in self.functions:
                function_from_json(f)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad measure or function spec: {exc}") from exc


def load_config(path) -> SuiteConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return SuiteConfig.from_json_dict(data)


def build_tasks(cfg: SuiteConfig) -> list[dict]:
    """Grid tasks, then one task per random sweep, for each configured check."""
    tasks = []
    for name in cfg.checks:
        spec = CHECK_REGISTRY[name]
        tasks.extend({"check": name, "params": p} for p in spec.grid(cfg))
        for sweep in range(cfg.random_sweeps):
            rng = np.random.default_rng([cfg.seed, _CHECK_INDEX[name], sweep])
            params = spec.random(rng, cfg, sweep)
            params["sweep"] = sweep
            tasks.append({"check": name, "params": params})
    return tasks


def _task_key(task: dict) -> tuple:
    return task["check"], json.dumps(task["params"], sort_keys=True, separators=(",", ":"))


def _run_task(args):
    task, tols, negate = args
    rows = run_check(task["check"], task["params"], tols)
    if negate:
        rows = [r.negated() for r in rows]
    return _task_key(task), rows


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> tuple[list[InequalityReport], int]:
    """Run all tasks; returns (rows in canonical order, exit code 0 or 1)."""
    tasks = build_tasks(cfg)
    tols = {**DEFAULT_TOLS, **cfg.tolerances}
    args = [(t, tols, cfg.negate) for t in tasks]
    if jobs <= 1:
        results = [_run_task(a) for a in args]
    else:
        chunk = max(1, len(args) // (4 * jobs)) if args else 1
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_task, args, chunksize=chunk))
    results.sort(key=lambda item: item[0])
    reports = [row for _, rows in results for row in rows]
    exit_code = 0 if all(r.passed for r in reports) else 1
    return reports, exit_code


def write_reports(reports, out_dir) -> tuple[str, str]:
    """Write report.json and report.csv; byte-deterministic for given rows."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    with open(json_path, "w") as fh:
        json.dump([r.as_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["check", "params", "lhs", "rhs", "gap", "tol", "pass", "method"])
        for r in reports:
            writer.writerow([
                r.check,
                json.dumps(r.params, sort_keys=True, separators=(",", ":")),
                repr(r.lhs), repr(r.rhs), repr(r.gap), repr(r.tolerance),
                "true" if r.passed else "false",
                r.method,
            ])
    return json_path, csv_path
