"""Sweep harness: expand a config into check tasks, run them (optionally
across processes), and write reports whose bytes do not depend on the
degree of parallelism.

Each task is a plain dict (check name + JSON parameters) and pure: the
same task always produces the same rows.  run_rendered cuts the config
into task descriptors, (check, grid params) or (check, sweep), and sends
them out in chunks with the config and tolerances once per chunk.  Whoever
runs a chunk (a pool worker at jobs > 1, this process otherwise) expands
it with _expand, the routine build_tasks is built from, runs each task and
at once renders its rows with _render, the renderer write_reports uses,
into report.json lines and report.csv records.  So rows cross the process
boundary as text, and the parent only sorts the tasks by (check, parameter
JSON) and writes that text; run_suite decodes it back into rows for
library callers.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .checks import _CHECK_INDEX, CHECK_REGISTRY, DEFAULT_TOLS, function_from_json, run_check
from .measures import DiscreteMeasure
from .report import InequalityReport


class ConfigError(ValueError):
    """A config, or a task it generates, that cannot be computed.

    load_config and SuiteConfig.validate raise it on malformed fields
    before any computation; run_suite raises it when a task raises one of
    INPUT_ERRORS, naming the task's check.
    """


# What a check raises on inputs it cannot compute; the CLI exits 2 on them.
INPUT_ERRORS = (ValueError, KeyError, TypeError, ArithmeticError)


ALPHA_GRID = [i / 10 for i in range(11)]

# The one JSON text of a value: sorted keys, no whitespace, and the C
# encoder (JSONEncoder.encode takes it when indent is None; json.dump never
# does).  Task keys, report.json rows, report.csv params cells and the
# lines `wickbench check` prints are all this text.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

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


def _is_real(value) -> bool:
    # bool is a numbers.Real subclass, but true is not an alpha or a tolerance
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        for key in ("alphas", "measures", "functions", "checks"):
            if not isinstance(getattr(self, key), list):
                raise ConfigError(f"{key} must be a list, got {getattr(self, key)!r}")
        for name in self.checks:
            if not isinstance(name, str) or name not in CHECK_REGISTRY:
                raise ConfigError(f"unknown check {name!r}; see list-checks")
        for a in self.alphas:
            if not _is_real(a) or not 0.0 <= a <= 1.0:
                raise ConfigError(f"alpha {a!r} is not a number in [0, 1]")
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"tolerances must be an object, got {self.tolerances!r}")
        bad = set(self.tolerances) - set(DEFAULT_TOLS)
        if bad:
            raise ConfigError(f"unknown tolerance keys: {', '.join(sorted(bad))}")
        for key, tol in self.tolerances.items():
            if not _is_real(tol) or not 0.0 <= tol < math.inf:
                raise ConfigError(f"tolerance {key} must be a finite number >= 0, got {tol!r}")
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
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string or null, got {self.out!r}")
        try:
            for m in self.measures:
                DiscreteMeasure.from_json_dict(m)
            for f in self.functions:
                function_from_json(f)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
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


def _descriptors(cfg: SuiteConfig):
    """(check, grid params) per grid task, then (check, sweep) per random
    sweep, for each configured check: the tasks, not yet expanded."""
    for name in cfg.checks:
        for params in CHECK_REGISTRY[name].grid(cfg):
            yield name, params
        for sweep in range(cfg.random_sweeps):
            yield name, sweep


def _expand(cfg: SuiteConfig, descriptors) -> list[dict]:
    """The task of each descriptor.  A sweep draws its params from its own
    stream, seeded by (seed, check index, sweep), so any slice of the
    descriptors expands to the same tasks as the whole."""
    tasks = []
    for name, item in descriptors:
        if isinstance(item, dict):
            params = item
        else:
            rng = np.random.default_rng([cfg.seed, _CHECK_INDEX[name], item])
            params = CHECK_REGISTRY[name].random(rng, cfg, item)
            params["sweep"] = item
        tasks.append({"check": name, "params": params})
    return tasks


def build_tasks(cfg: SuiteConfig) -> list[dict]:
    """Grid tasks, then one task per random sweep, for each configured check."""
    return _expand(cfg, _descriptors(cfg))


def _task_key(task: dict) -> tuple:
    return task["check"], _ENCODE(task["params"])


def _run_chunk(chunk) -> list[tuple[tuple, list]]:
    """Expand a chunk, then run each task and render its rows at once, so
    no row object outlives its task: (task key, rendered rows) per task."""
    cfg, tols, descriptors = chunk
    done = []
    for task in _expand(cfg, descriptors):
        try:
            rows = run_check(task["check"], task["params"], tols)
        except INPUT_ERRORS as exc:
            raise ConfigError(f"{task['check']} task cannot run: {exc}") from exc
        if cfg.negate:
            rows = [r.negated() for r in rows]
        done.append((_task_key(task), list(_render(rows))))
    return done


def run_rendered(cfg: SuiteConfig, jobs: int = 1) -> list[tuple[str, tuple]]:
    """Run all tasks; returns each row's (report.json line, report.csv
    record), ordered by (check, task params text).

    At jobs > 1 a pool of jobs workers runs the 4 * jobs chunks.  A task
    that raises one of INPUT_ERRORS raises ConfigError naming its check;
    any other exception propagates as it is.  Either way nothing is
    returned, at any jobs.
    """
    tols = {**DEFAULT_TOLS, **cfg.tolerances}
    descriptors = list(_descriptors(cfg))
    size = max(1, -(-len(descriptors) // (4 * max(1, jobs))))
    chunks = [(cfg, tols, descriptors[i:i + size]) for i in range(0, len(descriptors), size)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_chunk, chunks))
    else:
        done = list(map(_run_chunk, chunks))
    results = [item for chunk in done for item in chunk]
    results.sort(key=lambda item: item[0])
    return [row for _, rows in results for row in rows]


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> tuple[list[InequalityReport], int]:
    """Run all tasks; returns (rows in canonical order, exit code 0 or 1).

    The rows are decoded from run_rendered's report.json lines, so they
    equal run_check's rows field for field; rows that shared one params
    object get equal copies.  Raises as run_rendered does.
    """
    reports = [InequalityReport.from_json_line(line) for line, _ in run_rendered(cfg, jobs)]
    return reports, 0 if all(r.passed for r in reports) else 1


def _row_line(row: dict, params_text: str) -> str:
    """_ENCODE(row), with the value of row["params"] given as its encoded text.

    The row is encoded once with a null params, and the text is spliced in.
    Encoded strings escape every quote, and no other value of a row holds
    a "params" key, so the first '"params":null' is the row's own key.
    """
    return _ENCODE({**row, "params": None}).replace('"params":null', f'"params":{params_text}', 1)


def _render(reports):
    """Yield each row's report.json line and report.csv record.

    The line is ``_ENCODE(row.as_dict())``; the record is the row's
    report.csv fields as strings, in _CSV_HEADER order, and its params cell
    is the same params text.  Each params object is encoded once, and
    consecutive rows sharing one (the three rows of an ab_psd task) share
    its text.
    """
    params, params_text = None, "null"
    for r in reports:
        row = r.as_dict()
        if row["params"] is not params:
            params = row["params"]
            params_text = _ENCODE(params)
        yield _row_line(row, params_text), (
            r.check, params_text,
            repr(r.lhs), repr(r.rhs), repr(r.gap), repr(r.tolerance),
            "true" if r.passed else "false",
            r.method,
        )


_CSV_HEADER = ("check", "params", "lhs", "rhs", "gap", "tol", "pass", "method")


def write_rendered(rendered, out_dir) -> tuple[str, str]:
    """Write report.json and report.csv in one streaming pass over
    rendered rows, (report.json line, report.csv record) pairs.

    report.json is a JSON array with one row per line: ``[``, then each
    row's line, the lines separated by commas, then ``]``; no rows give
    ``[]``.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    with open(json_path, "w") as json_fh, open(csv_path, "w", newline="") as csv_fh:
        writer = csv.writer(csv_fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        sep = "[\n"
        for line, record in rendered:
            json_fh.write(sep + line)
            sep = ",\n"
            writer.writerow(record)
        json_fh.write("[]\n" if sep == "[\n" else "\n]\n")
    return json_path, csv_path


def write_reports(reports, out_dir) -> tuple[str, str]:
    """Write report.json and report.csv for rows: run_rendered's renderer,
    then write_rendered.  Byte-deterministic for given rows."""
    return write_rendered(_render(reports), out_dir)
