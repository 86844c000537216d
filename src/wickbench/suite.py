"""Sweep harness: expand a config into check tasks, run them (optionally
across processes), and write reports whose bytes do not depend on the
degree of parallelism.

Each task is a plain dict (check name + JSON parameters) and pure: the
same task always produces the same rows.  A chunk is a slice of one
check's tasks: run_rendered cuts each configured check's tasks, its grid
params then its random sweeps, into slices and sends out each as (check,
grid params, sweep range) with the config and tolerances.  Whoever runs a
chunk (a pool worker at jobs > 1, this process otherwise) expands it with
_tasks, the routine build_tasks is built from, and gives the tasks to the
check's spec.run in one call.  The harness groups tasks by check only: the
JSON parsers stack them by JSON shape, and the kernels by canonical shape.
The rows are at once rendered with _render, the renderer write_reports
uses, into report.json and report.csv lines.  So rows cross the process
boundary as text, and the parent joins the chunks in order and writes that
text: rows come in task order, build_tasks's, at any jobs.  run_suite
decodes the text back into rows for library callers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

from .chaos import INPUT_ERRORS, check_alpha, check_integer
from .checks import _CHECK_INDEX, CHECK_REGISTRY, DEFAULT_MC_COUNT, functions_from_json, resolve_tols
from .measures import measures_from_json
from .report import InequalityReport


class ConfigError(ValueError):
    """A config, or a task it generates, that cannot be computed.

    load_config and SuiteConfig.validate raise it on malformed fields
    before any computation; run_suite raises it when a task raises one of
    INPUT_ERRORS, naming the task's check.
    """


ALPHA_GRID = [i / 10 for i in range(11)]

# The one JSON text of a value: sorted keys, no whitespace, and the C
# encoder (JSONEncoder.encode takes it when indent is None; json.dump never
# does).  report.json rows, report.csv params cells and the lines
# `wickbench check` prints are all this text.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# integer config fields: (key, smallest allowed value, null allowed)
_INT_FIELDS = (
    ("seed", 0, False),
    ("dim", 1, True),
    ("random_sweeps", 0, False),
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
    mc_count: int = DEFAULT_MC_COUNT
    negate: bool = False
    out: str | None = None

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
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
        try:
            for a in self.alphas:
                check_alpha(a)
            resolve_tols(self.tolerances)
            for key, low, nullable in _INT_FIELDS:
                check_integer(getattr(self, key), key, low, nullable)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.negate, bool):
            raise ConfigError(f"negate must be true or false, got {self.negate!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string or null, got {self.out!r}")
        try:
            measures_from_json(self.measures)
            functions_from_json(self.functions)
        except INPUT_ERRORS as exc:
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


def _runs(cfg: SuiteConfig) -> list[tuple[str, list, range]]:
    """(check, grid params, sweeps) of each configured check, in config order."""
    return [(name, list(CHECK_REGISTRY[name].grid(cfg)), range(cfg.random_sweeps)) for name in cfg.checks]


def _tasks(cfg: SuiteConfig, name: str, grid: list, sweeps: range) -> list[dict]:
    """The params of a slice of one check's tasks: the grid params, then
    one spec.random call's params for the sweeps, each with its "sweep".
    A sweep's params depend only on (seed, check index, sweep), so any
    cut of a check's tasks gives the params of the whole."""
    drawn = CHECK_REGISTRY[name].random(cfg, _CHECK_INDEX[name], sweeps)
    return grid + [{**params, "sweep": sweep} for sweep, params in zip(sweeps, drawn)]


def build_tasks(cfg: SuiteConfig) -> list[dict]:
    """Grid tasks, then one task per random sweep, for each configured check."""
    return [{"check": name, "params": params}
            for name, grid, sweeps in _runs(cfg) for params in _tasks(cfg, name, grid, sweeps)]


def _run_chunk(chunk) -> list[tuple[str, str, bool]]:
    """Give a chunk's tasks, a slice of one check's, to the check's
    spec.run in one call and render their rows at once: the chunk's
    rendered rows, in task order."""
    cfg, tols, name, grid, sweeps = chunk
    tasks = _tasks(cfg, name, grid, sweeps)
    try:
        results = CHECK_REGISTRY[name].run(tasks, tols)
    except INPUT_ERRORS as exc:
        raise ConfigError(f"{name} task cannot run: {exc}") from exc
    return [line for rows in results for line in _render([r.negated() for r in rows] if cfg.negate else rows)]


def run_rendered(cfg: SuiteConfig, jobs: int = 1) -> list[tuple[str, str, bool]]:
    """Run all tasks; returns each row's (report.json line, report.csv
    line, pass), in task order.

    The workers are jobs, but never more than os.cpu_count() or than the
    tasks.  A chunk is a slice of one check's tasks, at most ceil(tasks /
    (4 * workers)) long, so there are at most 4 * workers chunks plus one
    per check; they run in a pool of that many workers, or in this
    process when there is one.  A task that raises one of INPUT_ERRORS
    raises ConfigError naming its check; any other exception propagates
    as it is.  Either way nothing is returned, at any jobs.
    """
    tols = resolve_tols(cfg.tolerances)
    runs = _runs(cfg)
    total = sum(len(grid) + len(sweeps) for _, grid, sweeps in runs)
    workers = max(1, min(jobs, os.cpu_count() or 1, total))
    size = max(1, -(-total // (4 * workers)))
    chunks = [(cfg, tols, name, grid[i:i + size], sweeps[max(i - len(grid), 0):max(i + size - len(grid), 0)])
              for name, grid, sweeps in runs for i in range(0, len(grid) + len(sweeps), size)]
    if workers > 1:
        # imported here: the pool module costs every run some 15 ms to import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_chunk, chunks))
    else:
        done = list(map(_run_chunk, chunks))
    return [row for chunk in done for row in chunk]


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> tuple[list[InequalityReport], int]:
    """Run all tasks; returns (rows in task order, exit code 0 or 1).

    The rows are decoded from run_rendered's report.json lines, so they
    equal run_check's rows field for field; rows that shared one params
    object get equal copies.  Raises as run_rendered does.
    """
    reports = [InequalityReport.from_json_line(line) for line, _, _ in run_rendered(cfg, jobs)]
    return reports, 0 if all(r.passed for r in reports) else 1


def _row_line(row: dict, params_text: str) -> str:
    """_ENCODE(row), with the value of row["params"] given as its encoded text.

    The row is encoded once with a null params, and the text is spliced in.
    Encoded strings escape every quote, and no other value of a row holds
    a "params" key, so the first '"params":null' is the row's own key.
    """
    return _ENCODE({**row, "params": None}).replace('"params":null', f'"params":{params_text}', 1)


def _csv_cell(text: str) -> str:
    """text as csv.writer writes a cell (excel dialect, "\\n" line ends):
    quoted, with quotes doubled, when it holds a comma, a quote or a line
    end."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render(reports):
    """Yield each row's report.json line, report.csv line and pass flag.

    The JSON line is ``_ENCODE(row.as_dict())``; the CSV line holds the
    row's report.csv fields in _CSV_HEADER order, as csv.writer writes
    them, and its params cell is the same params text.  Each params object
    is encoded once, and consecutive rows sharing one (the three rows of
    an ab_psd task) share its text.
    """
    params, params_text, params_cell = None, "null", "null"
    for r in reports:
        row = r.as_dict()
        if row["params"] is not params:
            params = row["params"]
            params_text = _ENCODE(params)
            params_cell = _csv_cell(params_text)
        fields = (_csv_cell(r.check), params_cell, repr(r.lhs), repr(r.rhs), repr(r.gap),
                  repr(r.tolerance), "true" if r.passed else "false", _csv_cell(r.method))
        yield _row_line(row, params_text), ",".join(fields) + "\n", r.passed


_CSV_HEADER = "check,params,lhs,rhs,gap,tol,pass,method\n"


def write_rendered(rendered, out_dir) -> tuple[str, str]:
    """Write report.json and report.csv from a list of rendered rows,
    (report.json line, report.csv line, pass) triples.

    report.json is a JSON array with one row per line: ``[``, then each
    row's line, the lines separated by commas, then ``]``; no rows give
    ``[]``.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    with open(json_path, "w") as json_fh, open(csv_path, "w", newline="") as csv_fh:
        json_fh.writelines((",\n" if i else "[\n") + line for i, (line, _, _) in enumerate(rendered))
        json_fh.write("\n]\n" if rendered else "[]\n")
        csv_fh.write(_CSV_HEADER)
        csv_fh.writelines(line for _, line, _ in rendered)
    return json_path, csv_path


def write_reports(reports, out_dir) -> tuple[str, str]:
    """Write report.json and report.csv for rows: run_rendered's renderer,
    then write_rendered.  Byte-deterministic for given rows."""
    return write_rendered(list(_render(reports)), out_dir)
