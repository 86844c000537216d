"""Sweep harness: expand a config into check tasks, run them (optionally
across processes), and write reports whose bytes do not depend on the
degree of parallelism.

Each task is a plain dict (check name + JSON parameters) and pure: the
same task always produces the same rows.  A chunk is a slice of one
check's tasks, at most CHUNK_TASKS long: run_rendered cuts each configured
check's tasks, its grid params then its random sweeps, into slices and
sends out each as (check, grid params, sweep range) with the config and
tolerances.  Whoever runs a chunk (a pool worker at jobs > 1, this process
otherwise) expands it with _tasks, the routine build_tasks is built from,
and gives the tasks to the check's spec.run in one call.  The harness
groups tasks by check only: the JSON parsers stack them by JSON shape, and
the kernels by canonical shape.  The rows are at once rendered with
_render, the renderer write_reports uses, into report.json and report.csv
lines.  So rows cross the process boundary as text.  run_rendered yields
the chunks in task order, build_tasks's, at any jobs: at jobs > 1 a
multiprocessing.Pool's imap hands back chunk k while the workers compute
later chunks.  A chunk that raises leaves run_rendered through the pool's
with block, whose exit terminates the workers at once: no chunk runs on
after the parent has seen the error.

`wickbench run` streams: write_rendered writes each chunk's lines into
temporary files in the output directory as the chunk comes back, and only
after the last chunk moves them over report.json and report.csv with
os.replace.  So a run holds a chunk's rows, not the report, and the cap on
a chunk's tasks keeps that bounded however many sweeps a config asks for.
A run that raises removes its temporary files, and the output directory
if it made it: an earlier report stays as it was.  run_suite decodes the
text back into rows for library callers.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field, fields

from .chaos import INPUT_ERRORS, check_alpha, check_integer
from .checks import _CHECK_INDEX, CHECK_REGISTRY, functions_from_json, resolve_tols
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
# `wickbench check` prints are all this text.  Each value is a tree a
# runner builds, never circular, so the encoder skips its cycle check.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

# the most tasks in one chunk, so that a chunk's working set does not grow
# with random_sweeps
CHUNK_TASKS = 500

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
    mc_count: int = 100_000  # validated, read by no check: existing configs still load
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
    return list(_render([r.negated() if cfg.negate else r for rows in results for r in rows]))


def _terminable():
    """Pool worker initializer: the SIGTERM by which the pool's exit stops
    its workers ends this one, whatever handler, SIG_IGN or mask it had
    from its parent (a worker that outlives it holds the parent's join)."""
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGTERM])


def run_rendered(cfg: SuiteConfig, jobs: int = 1):
    """Run all tasks, a chunk at a time; yields each chunk's rows, each
    row's (report.json line, report.csv line, pass), in task order.

    The workers are jobs, but never more than the tasks or the CPUs this
    process may run on (its affinity set, or os.cpu_count() where the
    platform has none).  A chunk is a slice of one check's tasks, at most
    ceil(tasks / (4 * workers)) and CHUNK_TASKS long, so there are at most
    4 * workers + tasks / CHUNK_TASKS chunks plus one per check.  With one
    worker the chunks run in this process as they are read; with more, a
    multiprocessing.Pool's imap runs them and hands them back in order.
    A task that raises one of INPUT_ERRORS raises ConfigError naming its
    check, a worker killed from outside ChildProcessError; any other
    exception propagates as it is, and no later chunk is yielded.  The
    pool's exit terminates its workers, whatever this process does with
    SIGTERM: none runs on after an error or after the caller closes this
    generator.
    """
    tols = resolve_tols(cfg.tolerances)
    runs = _runs(cfg)
    total = sum(len(grid) + len(sweeps) for _, grid, sweeps in runs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(jobs, cpus, total))
    size = max(1, min(CHUNK_TASKS, -(-total // (4 * workers))))
    chunks = [(cfg, tols, name, grid[i:i + size], sweeps[max(i - len(grid), 0):max(i + size - len(grid), 0)])
              for name, grid, sweeps in runs for i in range(0, len(grid) + len(sweeps), size)]
    if workers == 1:
        yield from map(_run_chunk, chunks)
        return
    # imported here: the pool module costs every run some 15 ms to import
    import multiprocessing

    others = set(multiprocessing.active_children())
    with multiprocessing.Pool(workers, initializer=_terminable) as pool:
        started = set(multiprocessing.active_children()) - others
        rendered = pool.imap(_run_chunk, chunks)
        for k in range(len(chunks)):
            # imap waits for ever on a killed worker's chunk (the pool
            # replaces the worker only), so the wait checks them each second
            while True:
                with contextlib.suppress(multiprocessing.TimeoutError):
                    yield rendered.next(timeout=1.0)
                    break
                if not all(p.is_alive() for p in started):
                    raise ChildProcessError(f"a pool worker died before chunk {k} came back")


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> tuple[list[InequalityReport], int]:
    """Run all tasks; returns (rows in task order, exit code 0 or 1).

    The rows are decoded from run_rendered's report.json lines, so they
    equal run_check's rows field for field; rows that shared one params
    object get equal copies.  Raises as run_rendered does.
    """
    reports = [InequalityReport.from_json_line(line) for chunk in run_rendered(cfg, jobs) for line, _, _ in chunk]
    return reports, 0 if all(r.passed for r in reports) else 1


def _csv_cell(text: str) -> str:
    """text as csv.writer writes a cell (excel dialect, "\\n" line ends):
    quoted, with quotes doubled, when it holds a comma, a quote or a line
    end."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# a float's JSON text is its repr, but for the spelling of the non-finite
# ones, which is the C encoder's
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _heads(r) -> tuple[str, str, str, str]:
    """The texts a row's check and methods give its lines: the JSON line up
    to the gap's value and from the method key to the params value, then
    the check and method cells.  One _ENCODE of {"check", "method"} gives
    '{"check":C,"method":M}'; C is an encoded string, whose quotes are all
    escaped, so the first ',"method":{' is the key's own."""
    text = _ENCODE({"check": r.check, "method": {"lhs": r.method_lhs, "rhs": r.method_rhs}})
    cut = text.index(',"method":{')
    return text[:cut] + ',"gap":', text[cut:-1] + ',"params":', _csv_cell(r.check), _csv_cell(r.method)


def _render(reports):
    """Yield each row's report.json line, report.csv line and pass flag.

    The JSON line is ``_ENCODE(row.as_dict())`` byte for byte, its keys in
    sorted order; the CSV line holds the row's report.csv fields in
    _CSV_HEADER order, as csv.writer writes them.  Both lines share their
    texts: each number's repr, the params text (each params object is
    encoded once, and consecutive rows sharing one, the three rows of an
    ab_psd task, share it) and the check and method texts, made once per
    (check, method_lhs, method_rhs) in a call.
    """
    heads, params, params_text, params_cell = {}, None, "null", "null"
    for r in reports:
        if r.params is not params:
            params = r.params
            params_text = _ENCODE(params)
            params_cell = _csv_cell(params_text)
        key = r.check, r.method_lhs, r.method_rhs
        head = heads.get(key)
        if head is None:
            head = heads[key] = _heads(r)
        lhs, rhs, gap, tol = repr(r.lhs), repr(r.rhs), repr(r.gap), repr(r.tolerance)
        flag = "true" if r.passed else "false"
        line = (f'{head[0]}{_JSON_FLOATS.get(gap, gap)},"lhs":{_JSON_FLOATS.get(lhs, lhs)}{head[1]}{params_text},'
                f'"pass":{flag},"rhs":{_JSON_FLOATS.get(rhs, rhs)},"tolerance":{_JSON_FLOATS.get(tol, tol)}}}')
        yield line, f"{head[2]},{params_cell},{lhs},{rhs},{gap},{tol},{flag},{head[3]}\n", r.passed


_CSV_HEADER = "check,params,lhs,rhs,gap,tol,pass,method\n"


def _missing_dirs(path) -> list[str]:
    """path and its ancestors that do not exist yet, deepest first."""
    missing, path = [], os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def write_rendered(chunks, out_dir) -> tuple[str, str]:
    """Write report.json and report.csv from chunks of rendered rows,
    (report.json line, report.csv line, pass) triples, each chunk written
    as it is read.

    report.json is a JSON array with one row per line: ``[``, then each
    row's line, the lines separated by commas, then ``]``; no rows give
    ``[]``.  Both files are written under temporary names in out_dir and
    replace report.json and report.csv only once the last chunk is in.
    If anything raises, the temporary files go, and so do out_dir and
    the parents this call made: the files there stay as they were.
    """
    made = _missing_dirs(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    temps = [os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in ("report.json", "report.csv")]
    try:
        with open(temps[0], "w") as json_fh, open(temps[1], "w", newline="") as csv_fh:
            csv_fh.write(_CSV_HEADER)
            sep = "[\n"
            for chunk in chunks:
                for line, csv_line, _ in chunk:
                    json_fh.write(sep + line)
                    csv_fh.write(csv_line)
                    sep = ",\n"
            json_fh.write("[]\n" if sep == "[\n" else "\n]\n")
        os.replace(temps[0], json_path)
        os.replace(temps[1], csv_path)
    except BaseException:
        for path in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):  # not empty: someone else writes there too
                os.rmdir(path)
        raise
    return json_path, csv_path


def write_reports(reports, out_dir) -> tuple[str, str]:
    """Write report.json and report.csv for rows: run_rendered's renderer,
    then write_rendered.  Byte-deterministic for given rows."""
    return write_rendered([_render(reports)], out_dir)
