"""Harness behavior: config validation, task expansion, determinism, CLI codes."""

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wickbench import (
    CHECK_REGISTRY,
    ConfigError,
    SuiteConfig,
    build_tasks,
    load_config,
    run_suite,
    write_reports,
)
from wickbench import checks, cli, expspan, measures, suite
from wickbench.checks import DEFAULT_TOLS, run_check
from wickbench.cli import main
from wickbench.report import InequalityReport
from wickbench.suite import _ENCODE, run_rendered

E_ONE = {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [1.0]}]}
NU_ZERO = {"dim": 1, "atoms": [[0.0]], "weights": [1.0]}
NU_SYM = {"dim": 1, "atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}
F_DIM4 = {"kind": "exp", "dim": 4, "terms": [{"coef": 1.0, "h": [0.1, 0.2, 0.3, 0.4]},
                                            {"coef": 0.5, "h": [-0.2, 0.1, 0.0, 0.3]}]}
# its L^p norm e^{(p-1)|h|^2/2} is far past float range
E_HUGE = {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [1000.0]}]}
# tier-1 turns RuntimeWarnings into errors (pyproject.toml); these cases
# overflow by design, and their numpy overflow warnings are expected
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
E_ZERO = {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [0.0]}]}
NU_30 = {"dim": 1, "atoms": [[30.0]], "weights": [1.0]}
CHAOS_ONE = {"kind": "chaos", "dim": 1, "terms": [{"m": [1], "c": 1.0}]}


def _small_config(**overrides):
    base = {
        "seed": 11,
        "alphas": [0.5, 1.0],
        "functions": [E_ONE],
        "measures": [NU_ZERO, NU_SYM],
        "checks": ["beckner_deficit"],
    }
    base.update(overrides)
    return SuiteConfig.from_json_dict(base)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        SuiteConfig.from_json_dict({"sweeps": 10})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        _small_config(checks=["not_a_check"])
    with pytest.raises(ConfigError):
        _small_config(alphas=[0.5, 1.5])
    with pytest.raises(ConfigError):
        _small_config(tolerances={"exactish": 1e-9})
    with pytest.raises(ConfigError):
        _small_config(random_sweeps=-1)
    with pytest.raises(ConfigError):
        _small_config(measures=[{"dim": 1, "atoms": [[0.0]], "weights": [0.5]}])
    with pytest.raises(ConfigError):
        _small_config(functions=[{"kind": "exp", "dim": 1, "terms": [{"h": [1.0]}]}])


def test_config_must_be_object():
    with pytest.raises(ConfigError):
        SuiteConfig.from_json_dict([1, 2, 3])


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_grid_task_expansion():
    cfg = _small_config()
    tasks = build_tasks(cfg)
    # 1 function x 2 measures x 2 alphas
    assert len(tasks) == 4
    assert all(t["check"] == "beckner_deficit" for t in tasks)
    alphas = sorted(t["params"]["alpha"] for t in tasks)
    assert alphas == [0.5, 0.5, 1.0, 1.0]


def test_grid_skips_dim_mismatch():
    nu2 = {"dim": 2, "atoms": [[0.0, 0.0]], "weights": [1.0]}
    cfg = _small_config(measures=[NU_ZERO, nu2])
    assert len(build_tasks(cfg)) == 2


def test_random_tasks_are_seed_stable():
    cfg = _small_config(checks=["covariance"], random_sweeps=5, measures=[], functions=[])
    t1 = build_tasks(cfg)
    t2 = build_tasks(cfg)
    assert t1 == t2
    assert len(t1) == 5
    cfg.seed = 12
    assert build_tasks(cfg) != t1


# Grid inputs for the expansion pin: exp and chaos functions (with and
# without an explicit "kind"), a positive-weight exp for the positivity
# tests, and measures in dims 1-3 so the dim filters and the oracle's
# n <= 2 cap all take effect.
PIN_FUNCTIONS = [
    {"kind": "exp", "dim": 1, "terms": [{"coef": 0.5, "h": [0.3]}, {"coef": 1.0, "h": [-0.7]}]},
    {"dim": 2, "terms": [{"coef": 1.0, "h": [0.2, -0.4]}, {"coef": -0.5, "h": [1.0, 0.5]}]},
    {"kind": "exp", "dim": 2, "terms": [{"coef": 2.0, "h": [0.0, 0.6]}]},
    {"kind": "exp", "dim": 3, "terms": [{"coef": 1.0, "h": [0.1, 0.2, 0.3]}]},
    {"kind": "chaos", "dim": 1, "terms": [{"m": [0], "c": 1.0}, {"m": [2], "c": 0.5}]},
    {"dim": 2, "terms": [{"m": [1, 1], "c": 0.3}, {"m": [0, 3], "c": -0.2}]},
]
PIN_MEASURES = [
    {"dim": 1, "atoms": [[0.0]], "weights": [1.0]},
    {"dim": 1, "atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]},
    {"dim": 2, "atoms": [[0.5, -0.5], [0.0, 1.0]], "weights": [0.25, 0.75]},
    {"dim": 2, "atoms": [[0.0, 0.0]], "weights": [1.0]},
    {"dim": 3, "atoms": [[0.1, 0.2, 0.3]], "weights": [1.0]},
]


@pytest.mark.parametrize("overrides, digest", [
    ({}, "637aead896d9443a8e2ac0f9a227d7373b666aa4ab308bc1ed9ac9cde8600c8d"),
    ({"dim": 2, "seed": 3}, "5ad71bab42cdd71dbfb54e383a500880dad1ccf4ccf390cbf0e0da1043266117"),
], ids=["drawn-dims", "dim2-seed3"])
def test_task_expansion_is_pinned(overrides, digest):
    # every grid rule and every random draw, in order: a changed digest
    # means reports change bytes for existing configs
    cfg = SuiteConfig.from_json_dict({
        "seed": 7, "alphas": [0.0, 0.25, 0.5, 1.0], "functions": PIN_FUNCTIONS,
        "measures": PIN_MEASURES, "checks": list(CHECK_REGISTRY), "random_sweeps": 25,
        "mc_count": 500, **overrides,
    })
    tasks = build_tasks(cfg)
    assert len(tasks) == 517
    blob = json.dumps([[t["check"], t["params"]] for t in tasks], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# sha256 of _ENCODE of the params of a one-check config's sweeps (seed 1,
# three sweeps, no grid): a changed digest means that check's random stream
# changed, and every report that runs it changes bytes.  Update a pin only
# for an intended change of its generator, and record it in CHANGES.md.
STREAM_PINS = [
    ("beckner_deficit", "e63dfe9ba1e8114d80dc91e7b42b69fe58c0896ca5a58dc9aef901bd1744c82e"),
    ("left_positivity", "977b156a8d80675573f7b26cb95f63aadd77a3e1f350a2eaac70c80a1719919d"),
    ("ab_psd", "eabb0fb214e7004701631967abe44494f8f5534cd8cd04cfdff9b8b7295cbb2a"),
    ("char_gram_psd", "4fa59f8b1b1affc7eaf6ec99bc1a74acfff844b74843bedb76e49010d5ec2e51"),
    ("holder", "7cca0d71f7b85dba23a249ebd9509128d05583281d397dc9c6b39fffa45d9588"),
    ("classic_beckner", "7c38411d6f247439a9e6bbb983c3c3b489ec60af8335c36f2e151fbb60aefa0e"),
    ("strong_positivity", "e97cf263967993d67efee7d247c67c76cc608c4feb11d1b0bb8e3dee336501e1"),
    ("covariance", "6870cce7c208b3a5df4011153ab59a68f51e0a9b41f7fe4cdacb071b30966dcb"),
    ("wick_density_identity", "cddd2bc4ef754d5bf156ff200c6cf322c750d3e2ac3e36680dbeb2dd01322c26"),
    ("g_lambda_bound", "ee39908e153a567a45d2fa4713a3712fc1556db73287c13a3282598000817d84"),
    ("oracle_triangle", "c04e0d1a8b4db799c0ab9cb4c217c68701c6faf8f0e8c8a4478169cd266518f3"),
]


def test_stream_pins_cover_every_check():
    assert [name for name, _ in STREAM_PINS] == list(CHECK_REGISTRY)


@pytest.mark.parametrize("check, digest", STREAM_PINS, ids=[name for name, _ in STREAM_PINS])
def test_random_streams_are_pinned(check, digest):
    cfg = SuiteConfig.from_json_dict({"seed": 1, "checks": [check], "random_sweeps": 3})
    params = [t["params"] for t in build_tasks(cfg)]
    assert [p["sweep"] for p in params] == [0, 1, 2]
    assert hashlib.sha256(_ENCODE(params).encode()).hexdigest() == digest


@pytest.mark.parametrize("config", [
    {"seed": 4, "alphas": [0.5], "functions": PIN_FUNCTIONS, "measures": PIN_MEASURES,
     "checks": list(CHECK_REGISTRY), "random_sweeps": 4, "mc_count": 200},
    # no grid: the two copies' sweeps 0..4 sit next to each other
    {"seed": 4, "checks": ["g_lambda_bound", "g_lambda_bound"], "random_sweeps": 5},
], ids=["every-check", "check-twice"])
def test_any_slice_of_a_checks_tasks_expands_to_the_same_tasks(config):
    # a chunk is a slice of one check's tasks, cut as run_rendered cuts it:
    # at every slice size, the slices of every run expand to build_tasks
    cfg = SuiteConfig.from_json_dict(config)
    runs = suite._runs(cfg)
    tasks = build_tasks(cfg)
    assert [name for name, _, _ in runs] == cfg.checks
    assert len(tasks) == sum(len(grid) + len(sweeps) for _, grid, sweeps in runs)
    assert len(tasks) >= len(cfg.checks) * cfg.random_sweeps
    for size in range(1, len(tasks) + 1):
        sliced = []
        for name, grid, sweeps in runs:
            g = len(grid)
            for i in range(0, g + len(sweeps), size):
                part = suite._tasks(cfg, name, grid[i:i + size], sweeps[max(i - g, 0):max(i + size - g, 0)])
                assert 1 <= len(part) <= size
                sliced.extend({"check": name, "params": params} for params in part)
        assert sliced == tasks
    for check in set(cfg.checks):
        sweeps = [t for t in tasks if t["check"] == check and "sweep" in t["params"]]
        copies = cfg.checks.count(check)
        assert sweeps == sweeps[:cfg.random_sweeps] * copies
        assert [t["params"]["sweep"] for t in sweeps] == list(range(cfg.random_sweeps)) * copies


def _row_fields(row):
    # repr tells -0.0 from 0.0 and makes NaN equal to itself
    return (row.check, row.params, repr(row.lhs), repr(row.rhs), repr(row.gap),
            repr(row.tolerance), row.passed, row.method_lhs, row.method_rhs)


def _report_bytes(out_dir):
    return tuple((out_dir / name).read_bytes() for name in ("report.json", "report.csv"))


def test_cli_bytes_match_the_replay_route_and_run_suite(tmp_path, capsys):
    # all 11 checks on exp and chaos grid functions, measures in dims 1-3
    # and random sweeps; running the tasks one at a time in build_tasks
    # order with run_check, then write_reports, must write what the CLI
    # writes
    data = {"seed": 5, "alphas": [0.0, 0.5, 1.0], "functions": PIN_FUNCTIONS,
            "measures": PIN_MEASURES, "checks": list(CHECK_REGISTRY), "random_sweeps": 3,
            "mc_count": 200}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(data))
    cfg = SuiteConfig.from_json_dict(data)
    tasks = build_tasks(cfg)
    assert {t["check"] for t in tasks} == set(CHECK_REGISTRY)
    assert any("sweep" in t["params"] for t in tasks) and any("sweep" not in t["params"] for t in tasks)
    rows = [r for t in tasks for r in run_check(t["check"], t["params"])]
    write_reports(rows, tmp_path / "replay")
    expected = _report_bytes(tmp_path / "replay")
    expected_code = 0 if all(r.passed for r in rows) else 1
    # wick_density_identity rows with no mismatch have gap -0.0
    assert any(math.copysign(1.0, r.gap) < 0 and r.gap == 0 for r in rows)
    for jobs in (1, 2):
        cli_out = tmp_path / f"cli{jobs}"
        code = main(["run", "--config", str(cfg_path), "--out", str(cli_out), "--jobs", str(jobs)])
        assert code == expected_code
        assert _report_bytes(cli_out) == expected
        suite_rows, code = run_suite(cfg, jobs=jobs)
        assert code == expected_code
        assert [_row_fields(r) for r in suite_rows] == [_row_fields(r) for r in rows]
        write_reports(suite_rows, tmp_path / f"suite{jobs}")
        assert _report_bytes(tmp_path / f"suite{jobs}") == expected
    capsys.readouterr()


# Grid inputs whose tasks share stacks: each (function, measure) pair
# gives one task per alpha, all of one shape.  They also hit the merge and
# drop rules inside a stack: a term below COEFF_EPS, repeated chaos
# indices, holder grid tasks with g = f (the product directions h_j + h_k
# and h_k + h_j are exact duplicates), and a measure whose atom sums with
# itself coincide (0 + 1 = 1 + 0) in wick_density_identity.
BUCKET_FUNCTIONS = [
    {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [0.5]}, {"coef": -0.7, "h": [-0.25]},
                                        {"coef": 1e-16, "h": [1.0]}]},
    {"kind": "exp", "dim": 1, "terms": [{"coef": 0.25, "h": [0.75]}, {"coef": 0.5, "h": [-0.5]}]},
    {"kind": "exp", "dim": 2, "terms": [{"coef": 0.5, "h": [0.3, -0.2]}, {"coef": 1.0, "h": [-0.4, 0.1]}]},
    {"kind": "chaos", "dim": 1, "terms": [{"m": [1], "c": 1.0}, {"m": [3], "c": -0.2}, {"m": [1], "c": 0.5}]},
]
BUCKET_MEASURES = [
    {"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]},
    {"dim": 1, "atoms": [[-0.5], [0.5]], "weights": [0.25, 0.75]},
    {"dim": 2, "atoms": [[0.0, 0.5], [0.5, 0.0]], "weights": [0.5, 0.5]},
]


def _bucket_config(**overrides):
    return {"seed": 9, "functions": BUCKET_FUNCTIONS, "measures": BUCKET_MEASURES,
            "checks": list(CHECK_REGISTRY), "random_sweeps": 40, "mc_count": 200,
            **overrides}


def test_buckets_write_the_bytes_of_one_task_at_a_time(tmp_path, capsys, monkeypatch):
    # the CLI at --jobs 1 and 2 and run_suite give each check's tasks to its
    # parsers and kernels, which stack them by shape; run_check runs one
    # task at a time; all write one report
    data = _bucket_config()
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(data))
    cfg = SuiteConfig.from_json_dict(data)
    tasks = build_tasks(cfg)
    alone = [run_check(t["check"], t["params"]) for t in tasks]
    rows = [r for rs in alone for r in rs]
    write_reports(rows, tmp_path / "replay")
    expected = _report_bytes(tmp_path / "replay")
    expected_code = 0 if all(r.passed for r in rows) else 1
    text = expected[0].decode()
    assert '"coef":1e-16' not in text and '{"c":1.5,"m":[1]}' in text
    # the size of each stack the function and measure parsers build
    stacks = []
    for module, name in ((expspan, "_build_exps"), (measures, "_build_measures")):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, build=build: stacks.append(len(args[-1])) or build(*args))
    for jobs in (1, 2):
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / f"cli{jobs}"),
                     "--jobs", str(jobs)])
        assert code == expected_code
        assert _report_bytes(tmp_path / f"cli{jobs}") == expected
    # many tasks share one parser stack
    assert max(stacks) >= 20 and len(stacks) < len(tasks) / 2, (max(stacks), len(stacks), len(tasks))
    suite_rows, code = run_suite(cfg)
    assert code == expected_code
    assert [_row_fields(r) for r in suite_rows] == [_row_fields(r) for r in rows]
    # each check's whole task list in one call: a stack of mixed shapes
    tols = dict(DEFAULT_TOLS)
    for name in CHECK_REGISTRY:
        mine = [i for i, t in enumerate(tasks) if t["check"] == name]
        together = CHECK_REGISTRY[name].run([tasks[i]["params"] for i in mine], tols)
        assert [[_row_fields(r) for r in rs] for rs in together] == \
            [[_row_fields(r) for r in alone[i]] for i in mine]
    capsys.readouterr()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("check, functions, message", [
    pytest.param("holder", [E_ONE, E_HUGE], "holder task cannot run: math range error", marks=OVERFLOWS),
    pytest.param("beckner_deficit", [E_ONE, {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [40.0]}]}],
                 "beckner_deficit task cannot run: beckner_deficit has a non-finite side", marks=OVERFLOWS),
], ids=["holder-overflow", "beckner-overflow"])
def test_a_bucket_task_that_cannot_run_exits_two(tmp_path, capsys, jobs, check, functions, message):
    # the bad task shares its JSON shape, so its parser stack, with good ones
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(_bucket_config(checks=[check], functions=functions,
                                                  measures=[NU_ZERO], random_sweeps=40)))
    cfg = SuiteConfig.from_json_dict(json.loads(cfg_path.read_text()))
    shapes = [(t["params"]["f"]["dim"], len(t["params"]["f"]["terms"]))
              for t in build_tasks(cfg) if t["params"]["f"] in functions]
    assert len(set(shapes)) == 1 and len(shapes) > 2
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--jobs", str(jobs)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_csv_lines_are_what_csv_writer_writes(tmp_path):
    rows = [
        InequalityReport("a,\"b\"", {"s": 'q"uo,te', "t": "x\ny"}, 1.0, -0.0, -1.0, 1e-9, False,
                         "exact", 'm,"x'),
        InequalityReport("c", {}, math.nan, -math.inf, math.nan, 0.0, False, "mc", "exact"),
        InequalityReport("line\nend", {"k": "v"}, 0.0, 0.0, 0.0, 0.0, True, "exact", "two\nlines"),
        InequalityReport("d", {"k": [1, 2]}, math.inf, 2.5, -math.inf, 1e-10, True),
    ]
    lines = [line for _, line, _ in suite._render(rows)]
    for row, line in zip(rows, lines):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            (row.check, _ENCODE(row.params), repr(row.lhs), repr(row.rhs), repr(row.gap),
             repr(row.tolerance), "true" if row.passed else "false", row.method))
        assert line == buf.getvalue()
    _, csv_path = write_reports(rows, tmp_path / "some")
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh))[2][2:6] == ["nan", "-inf", "nan", "0.0"]
    _, csv_path = write_reports([], tmp_path / "none")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(("check", "params", "lhs", "rhs", "gap", "tol", "pass", "method"))
    assert open(csv_path, newline="").read() == buf.getvalue()


def test_cli_fail_summary_is_the_same_at_any_jobs(tmp_path, capsys):
    # the FAIL lines come from rendered CSV records; they must say what the
    # rows say, with the same counts, at --jobs 1 and 2
    data = {"seed": 2, "alphas": [0.5], "functions": [E_ONE], "measures": [NU_ZERO, NU_SYM],
            "checks": ["beckner_deficit", "covariance", "g_lambda_bound"], "random_sweeps": 10,
            "negate": True}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(data))
    rows, code = run_suite(SuiteConfig.from_json_dict(data))
    failures = [r for r in rows if not r.passed]
    assert code == 1 and len(failures) > 20
    want_err = [f"FAIL {r.check} gap={r.gap!r} tol={r.tolerance!r}" for r in failures[:20]]
    want_err.append(f"... and {len(failures) - 20} more failures")
    out_dir = tmp_path / "out"
    for jobs in (1, 2):
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", str(jobs)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == want_err
        assert captured.out.startswith(f"{len(rows)} rows, {len(failures)} failed; wrote ")


def test_rows_follow_task_order_at_any_jobs(tmp_path, capsys):
    # rows come in build_tasks order: the config's checks in its order, not
    # by name, and in each check its grid tasks, then sweeps 0..N-1
    data = {"seed": 4, "alphas": [0.5, 1.0], "functions": [E_ONE], "measures": [NU_ZERO, NU_SYM],
            "checks": ["g_lambda_bound", "beckner_deficit"], "random_sweeps": 3}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(data))
    cfg = SuiteConfig.from_json_dict(data)
    tasks = build_tasks(cfg)
    assert [(t["check"], t["params"].get("sweep")) for t in tasks] == \
        [(name, sweep) for name in data["checks"] for sweep in (None,) * 4 + (0, 1, 2)]
    want = [_ENCODE(r.as_dict()) for t in tasks for r in run_check(t["check"], t["params"])]
    assert len(set(want)) == len(want) == 14
    for jobs in (1, 2):
        out = tmp_path / f"cli{jobs}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)]) == 0
        rows = json.loads((out / "report.json").read_text())
        assert [row["check"] for row in rows] == ["g_lambda_bound"] * 7 + ["beckner_deficit"] * 7
        assert [_ENCODE(row) for row in rows] == want
        assert [_ENCODE(r.as_dict()) for r in run_suite(cfg, jobs=jobs)[0]] == want
    capsys.readouterr()


def test_run_suite_passes_and_orders():
    cfg = _small_config(random_sweeps=3)
    rows, code = run_suite(cfg)
    assert code == 0
    assert all(r.passed for r in rows)
    assert len(rows) == 7
    # alpha = 1 grid rows are exactly zero
    exact = [r for r in rows if r.params["alpha"] == 1.0 and "sweep" not in r.params]
    assert exact and all(r.gap == 0.0 for r in exact)


def test_run_suite_negate_flips_exit_code():
    cfg = _small_config(negate=True)
    rows, code = run_suite(cfg)
    assert code == 1
    # strict-inequality rows must now fail; only the alpha = 1 ties survive
    assert any(not r.passed for r in rows)
    assert all(r.passed == (r.gap >= -r.tolerance) for r in rows)


def test_reports_byte_identical_across_jobs(tmp_path):
    # the second config lists a check twice with no grid, so its two runs
    # of sweeps sit next to each other and some chunks hold both
    cfgs = [_small_config(checks=["beckner_deficit", "covariance", "g_lambda_bound"], random_sweeps=4),
            SuiteConfig.from_json_dict({"seed": 11, "checks": ["g_lambda_bound"] * 2, "random_sweeps": 3})]
    for k, cfg in enumerate(cfgs):
        blobs = {}
        for jobs in (1, 2, 3):
            out = tmp_path / f"cfg{k}-jobs{jobs}"
            rows, _ = run_suite(cfg, jobs=jobs)
            jp, cp = write_reports(rows, out)
            blobs[jobs] = (open(jp, "rb").read(), open(cp, "rb").read())
        assert blobs[1] == blobs[2] == blobs[3]


def test_jobs_never_asks_for_more_workers_than_cpus(monkeypatch):
    # under the fork start method a pool forks every worker it is given on
    # its first submit, so a large --jobs must not set the worker count,
    # nor the number of chunks (each pays for the config's pickle and a
    # block of uniforms per check); the fake pool runs the chunks here and
    # starts no process
    asked, chunks = [], []

    class FakePool:
        def __init__(self, max_workers, **options):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            chunks.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    # the CPUs this process may run on, as run_rendered counts them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cfg = _small_config(checks=["beckner_deficit", "g_lambda_bound"], random_sweeps=2 * cpus + 1)
    assert len(build_tasks(cfg)) > 4 * cpus
    assert run_rendered(cfg, 100_000) == run_rendered(cfg, 1)
    assert all(n <= cpus for n in asked)
    assert len(asked) == (1 if cpus > 1 else 0)
    assert all(n <= 4 * cpus for n in chunks)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_jobs_counts_only_the_cpus_this_process_may_use(monkeypatch):
    # pinned to one CPU, --jobs 2 runs in this process however many CPUs
    # the host has; the pool must not be started at all
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one allowed CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = _small_config(checks=["beckner_deficit", "g_lambda_bound"], random_sweeps=5)
    assert run_rendered(cfg, 2) == run_rendered(cfg, 1)


def test_each_spec_run_call_gets_the_tasks_of_one_check(tmp_path, monkeypatch):
    # a chunk is a slice of one check's tasks and makes one spec.run call;
    # at --jobs 1 there are at most 4 chunks plus one per check; here the
    # 24 tasks come in slices of 6, which cut each g_lambda_bound run in two
    calls = []

    def spy(name, run):
        def recorded(tasks, tols):
            calls.append((name, list(tasks)))
            return run(tasks, tols)
        return recorded

    for name, spec in list(CHECK_REGISTRY.items()):
        monkeypatch.setitem(CHECK_REGISTRY, name, spec._replace(run=spy(name, spec.run)))
    config = {"seed": 3, "alphas": [0.5, 1.0], "functions": [E_ONE], "measures": [NU_ZERO, NU_SYM],
              "checks": ["holder", "g_lambda_bound", "holder", "g_lambda_bound"], "random_sweeps": 3}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    cfg = SuiteConfig.from_json_dict(config)
    assert [{"check": name, "params": params} for name, tasks in calls for params in tasks] == build_tasks(cfg)
    assert all(tasks for _, tasks in calls)
    assert len(cfg.checks) < len(calls) <= 4 + len(cfg.checks)


def test_report_files_are_well_formed(tmp_path, monkeypatch):
    # ab_psd rows share one params object per task; beckner_deficit rows
    # do not; the two fabricated rows carry non-finite sides, which no
    # check returns (from_sides raises on them)
    tasks = build_tasks(_small_config(checks=["beckner_deficit", "ab_psd"]))
    rows = [r for t in tasks for r in run_check(t["check"], t["params"])]
    rows += [InequalityReport("beckner_deficit", {"case": "nan"}, math.nan, math.inf, math.nan, 1e-9, False),
             InequalityReport("beckner_deficit", {"case": "inf"}, math.inf, 1.0, -math.inf, 1e-9, False)]
    assert any(a.params is b.params for a, b in zip(rows, rows[1:]))
    encoded = []
    monkeypatch.setattr(suite, "_ENCODE", lambda value: encoded.append(value) or _ENCODE(value))
    jp, cp = write_reports(rows, tmp_path)
    # one encode per distinct params object, however many rows share it,
    # and one more per distinct (check, method_lhs, method_rhs) for the
    # texts of the check and the methods
    params_encoded = [id(v) for v in encoded if any(v is r.params for r in rows)]
    assert sorted(params_encoded) == sorted({id(r.params) for r in rows})
    assert len(encoded) == len(params_encoded) + len({(r.check, r.method_lhs, r.method_rhs) for r in rows})

    lines = (tmp_path / "report.json").read_text().split("\n")
    assert lines[0] == "[" and lines[-2:] == ["]", ""]
    assert lines[1:-2] == [_ENCODE(r.as_dict()) + ("," if i < len(rows) - 1 else "")
                           for i, r in enumerate(rows)]
    assert '"lhs":NaN' in lines[-4] and '"rhs":Infinity' in lines[-4]
    assert '"gap":-Infinity' in lines[-3]
    data = json.load(open(jp))
    assert len(data) == len(rows)
    for entry in data:
        assert set(entry) == {"check", "params", "lhs", "rhs", "gap",
                              "tolerance", "pass", "method"}
    # the rows load back to what the indent=2 writer wrote, NaN and infinities included
    as_dicts = [r.as_dict() for r in rows]
    assert json.dumps(data, indent=2, sort_keys=True) == json.dumps(as_dicts, indent=2, sort_keys=True)

    with open(cp, newline="") as fh:
        records = list(csv.reader(fh))
    assert records[0] == ["check", "params", "lhs", "rhs", "gap", "tol", "pass", "method"]
    assert len(records) == len(rows) + 1
    # repr floats round-trip exactly, and params cells are the JSON lines' params text
    assert float(records[1][2]) == rows[0].lhs
    assert [rec[1] for rec in records[1:]] == [_ENCODE(r.params) for r in rows]
    assert records[-2][2:6] == ["nan", "inf", "nan", "1e-09"]

    empty = tmp_path / "empty"
    write_reports([], empty)
    assert (empty / "report.json").read_text() == "[]\n"
    assert json.loads((empty / "report.json").read_text()) == []
    assert (empty / "report.csv").read_text() == "check,params,lhs,rhs,gap,tol,pass,method\n"


def test_cli_run(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({
        "seed": 3,
        "alphas": [0.5],
        "functions": [E_ONE],
        "measures": [NU_ZERO],
        "checks": ["beckner_deficit", "left_positivity"],
    }))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "2 rows, 0 failed" in captured.out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "report.csv").exists()


def test_cli_run_config_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, argv", [
    ({"random_sweeps": 1.5}, []),
    ({"random_sweeps": True}, []),
    ({"dim": 0}, []),
    ({"quad_order": 0}, []),
    ({"seed": -1}, []),
    ({"negate": 1}, []),
    ({}, ["--seed", "-1"]),
    ({"alphas": 0.5}, []),
    ({"checks": 5}, []),
    ({"functions": ["x"]}, []),
    ({"out": 5}, []),
    ({"alphas": ["0.5"]}, []),
    ({"alphas": [True]}, []),
    ({"tolerances": {"exact": "x"}}, []),
    ({"tolerances": {"exact": float("nan")}}, []),
    ({"tolerances": {"psd": -1e-9}}, []),
    ({}, ["--tol", "inf"]),
    ({"functions": [{"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [float("inf")]}]}]}, []),
    ({"functions": [{"kind": "chaos", "dim": 1, "terms": [{"m": [1], "c": float("nan")}]}]}, []),
    ({"measures": [{"dim": 1, "atoms": [[float("nan")]], "weights": [1.0]}]}, []),
    # an L^2.6 norm of a 2-term function in dim 4: no closed form, no default grid
    ({"checks": ["holder"], "alphas": [0.3], "functions": [F_DIM4]}, []),
    # an overflow is a task that cannot run, not a failed inequality
    pytest.param({"checks": ["holder"], "alphas": [0.3], "functions": [E_HUGE]}, [], marks=OVERFLOWS),
    pytest.param({"checks": ["holder"], "alphas": [0.3], "functions": [E_HUGE]}, ["--jobs", "2"],
                 marks=OVERFLOWS),
    ({}, ["--jobs", "0"]),
    ({}, ["--jobs", "-2"]),
    # "dim": 1.9 and true were read as 1: no beckner_deficit task for the
    # function (1.9 != 1), but a holder task that ran it in dim 1
    ({"alphas": [0.5], "functions": [{**E_ONE, "dim": 1.9}], "measures": [NU_ZERO],
      "checks": ["beckner_deficit", "holder"]}, []),
    ({"measures": [{**NU_ZERO, "dim": True}]}, []),
])
def test_cli_run_rejects_bad_scalar_fields(tmp_path, capsys, monkeypatch, overrides, argv):
    # each of these ran the suite before validation caught it: a traceback
    # and exit 1 (the failing-row code), or a silent run; --jobs below 1
    # ran it in this process
    suites = []

    def spy(*args, **kwargs):
        suites.append(args)
        return run_rendered(*args, **kwargs)

    monkeypatch.setattr(cli, "run_rendered", spy)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({
        "checks": ["oracle_triangle"], "random_sweeps": 1, "mc_count": 100, **overrides,
    }))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    if overrides.get("checks") == ["holder"]:
        # the config loads; its holder grid task is what cannot run
        assert suites and "holder task cannot run" in err
    else:
        # the loader caught the field before any task ran
        assert not suites and "task cannot run" not in err


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("f, message", [(F_DIM4, "tensor quadrature is limited to n <= 3, got n=4"),
                                        pytest.param(E_HUGE, "math range error", marks=OVERFLOWS)],
                         ids=["dim4", "overflow"])
def test_run_suite_names_the_check_of_a_task_that_cannot_run(jobs, f, message):
    # the config loads; its grid task raises when it runs
    cfg = _small_config(checks=["holder"], alphas=[0.3], functions=[f], measures=[])
    with pytest.raises(ConfigError, match=f"holder task cannot run: {message}"):
        run_suite(cfg, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_run_task_crash_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch, jobs):
    # any other exception keeps its traceback; forked workers inherit the patch
    def crash(params, tols):
        raise RuntimeError("task crashed")

    monkeypatch.setitem(CHECK_REGISTRY, "covariance", CHECK_REGISTRY["covariance"]._replace(run=crash))
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"checks": ["beckner_deficit", "covariance"], "random_sweeps": 4}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--jobs", str(jobs)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: task crashed" in err
    assert "config error" not in err
    assert not (tmp_path / "out").exists()


def test_a_raising_chunk_stops_the_chunks_queued_behind_it(tmp_path, capsys, monkeypatch):
    # 16 tasks at --jobs 2 come in 8 chunks of 2; the first raises at once
    # and the others take a second each.  The pool's map cancels the chunks
    # no worker holds, but the workers had queued three more, and 6 of the
    # 8 ran before exit 2.  Now a worker starts no chunk once the parent
    # has seen the error: only chunk 0 and the one chunk each worker began
    # before that run.  Forked workers inherit the patch.
    markers = tmp_path / "markers"
    markers.mkdir()

    def run(tasks, tols):
        first = tasks[0]["sweep"]
        (markers / str(first)).touch()
        if first == 0:
            raise RuntimeError("first chunk crashed")
        time.sleep(1.0)
        return [[] for _ in tasks]

    monkeypatch.setitem(CHECK_REGISTRY, "g_lambda_bound", CHECK_REGISTRY["g_lambda_bound"]._replace(run=run))
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"checks": ["g_lambda_bound"], "random_sweeps": 16}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert code == 2
    assert "RuntimeError: first chunk crashed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    ran = sorted(int(name) for name in os.listdir(markers))
    assert ran[0] == 0 and len(ran) <= 3, ran


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_that_fails_in_a_later_chunk_leaves_the_old_report(tmp_path, capsys, monkeypatch, jobs):
    # the beckner_deficit chunks come first and are written; a covariance
    # chunk then raises.  The report of an earlier run keeps its bytes, and
    # the run leaves no file behind, nor a directory it made
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("[]\n")
    (out / "report.csv").write_text("earlier\n")
    seen = tmp_path / "seen.json"

    def crash(tasks, tols):
        if not seen.exists():
            seen.write_text(json.dumps(sorted(os.listdir(out))))
        raise RuntimeError("later chunk crashed")

    monkeypatch.setitem(CHECK_REGISTRY, "covariance", CHECK_REGISTRY["covariance"]._replace(run=crash))
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"checks": ["beckner_deficit", "covariance"], "random_sweeps": 4}))
    for target in (out, tmp_path / "new" / "deeper"):
        code = main(["run", "--config", str(cfg_path), "--out", str(target), "--jobs", str(jobs)])
        assert code == 2
        assert "RuntimeError: later chunk crashed" in capsys.readouterr().err
    # the run had its two temporary files open beside the old report
    assert len(json.loads(seen.read_text())) == 4
    assert _report_bytes(out) == (b"[]\n", b"earlier\n")
    assert sorted(os.listdir(out)) == ["report.csv", "report.json"]
    assert not (tmp_path / "new").exists()


def test_a_chunk_holds_at_most_chunk_tasks_tasks(monkeypatch):
    # the cap, not the cut into 4 chunks per worker, sets a large sweep's
    # chunks; the rows do not change
    cfg = SuiteConfig.from_json_dict({"seed": 11, "checks": ["g_lambda_bound"], "random_sweeps": 10})
    whole = run_rendered(cfg)
    sizes, run = [], CHECK_REGISTRY["g_lambda_bound"].run
    monkeypatch.setitem(CHECK_REGISTRY, "g_lambda_bound", CHECK_REGISTRY["g_lambda_bound"]._replace(
        run=lambda tasks, tols: sizes.append(len(tasks)) or run(tasks, tols)))
    assert run_rendered(cfg) == whole
    assert sizes == [3, 3, 3, 1]
    monkeypatch.setattr(suite, "CHUNK_TASKS", 2)
    chunks = list(run_rendered(cfg, chunks=True))
    assert [row for chunk in chunks for row in chunk] == whole
    assert sizes[4:] == [len(chunk) for chunk in chunks] == [2] * 5


def test_holder_grid_in_dim4_runs_where_every_norm_is_exact():
    # alpha 0 and 1 give p = q = 2 and 4, even powers with closed forms
    rows, code = run_suite(_small_config(checks=["holder"], alphas=[0.0, 1.0],
                                         functions=[F_DIM4], measures=[]))
    assert code == 0 and len(rows) == 2
    assert all(r.method == "exact" for r in rows)


def test_cli_run_negate_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({
        "alphas": [0.5],
        "functions": [E_ONE],
        "measures": [NU_ZERO],
        "checks": ["beckner_deficit"],
        "negate": True,
        "out": str(tmp_path / "out"),
    }))
    code = main(["run", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL beckner_deficit" in captured.err


def test_cli_check(capsys):
    params = json.dumps({"alpha": 0.5, "f": E_ONE, "nu": NU_ZERO})
    code = main(["check", "beckner_deficit", "--params", params])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    row = json.loads(out[0])
    assert row["check"] == "beckner_deficit" and row["pass"] is True
    # the same line report.json holds for this row
    assert out[0] == _ENCODE(run_check("beckner_deficit", json.loads(params))[0].as_dict())


def test_cli_check_wick_density_term_count_mismatch_is_a_failing_row(capsys, monkeypatch):
    # a wrong convolution gives the left side one term and the right two:
    # a counterexample, so a FAIL row and exit 1, not a crash and exit 2
    monkeypatch.setattr(checks, "convolutions", lambda nu1s, nu2s: nu1s)
    params = json.dumps({"nu1": {"dim": 1, "atoms": [[0.5]], "weights": [1.0]},
                         "nu2": {"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}})
    assert main(["check", "wick_density_identity", "--params", params]) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.strip().splitlines()
    row = json.loads(line)
    assert row["pass"] is False and row["lhs"] == 0.5 and row["gap"] == -0.5
    assert captured.err == ""


def test_cli_check_bad_inputs(capsys):
    assert main(["check", "beckner_deficit", "--params", "{oops"]) == 2
    assert main(["check", "made_up_check", "--params", "{}"]) == 2
    # structurally valid JSON but missing required parameters
    for name in CHECK_REGISTRY:
        assert main(["check", name, "--params", "{}"]) == 2, name
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 + len(CHECK_REGISTRY)
    assert all(line.startswith("config error: ") for line in err)


def test_cli_check_holder_rejects_inadmissible_exponents(capsys):
    params = json.dumps({"alpha": 1.0, "f": E_ONE, "p": 3.0, "q": 3.0, "r": 2.0})
    assert main(["check", "holder", "--params", params]) == 2
    assert "admissibility" in capsys.readouterr().err


@pytest.mark.parametrize("name, params, message", [
    pytest.param("holder", {"alpha": 0.3, "f": E_HUGE}, "math range error", marks=OVERFLOWS),
    ("g_lambda_bound", {"nu": NU_SYM, "lambda": math.nan}, "lambda must be finite"),
    ("g_lambda_bound", {"nu": NU_SYM, "lambda": math.inf}, "lambda must be finite"),
    ("char_gram_psd", {"nu": NU_SYM, "hs": [[0.0], [math.nan]]}, "hs must be finite"),
    ("char_gram_psd", {"nu": NU_SYM, "hs": [[math.inf]]}, "hs must be finite"),
    ("ab_psd", {"alpha": 0.5, "nu": NU_SYM, "hs": [[0.0], [math.nan]]}, "hs must be finite"),
    ("ab_psd", {"alpha": 0.5, "nu": NU_SYM, "hs": [[-math.inf], [1.0]]}, "hs must be finite"),
    # admissible, and it passed only because its rhs was infinite
    ("holder", {"alpha": 0.5, "f": E_ONE, "p": math.inf, "q": 1.75, "r": 2.0},
     "p, q and r must be finite"),
    # a side past float range is no verdict: these printed FAIL, FAIL and PASS
    pytest.param("g_lambda_bound", {"nu": {"dim": 1, "atoms": [[1.5]], "weights": [1.0]}, "lambda": 40},
                 "g_lambda_bound has a non-finite side: lhs=inf, rhs=inf", marks=OVERFLOWS),
    pytest.param("beckner_deficit",
                 {"alpha": 0.5, "f": {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [40.0]}]},
                  "nu": NU_ZERO},
                 "beckner_deficit has a non-finite side: lhs=nan, rhs=inf", marks=OVERFLOWS),
    pytest.param("covariance", {"nu1": NU_30, "nu2": NU_30, "phi": E_ZERO},
                 "covariance has a non-finite side: lhs=0.0, rhs=inf", marks=OVERFLOWS),
    # a function of the wrong kind crashed with an AttributeError traceback
    ("holder", {"alpha": 0.5, "f": CHAOS_ONE}, "expected exp functions, got kind 'chaos'"),
    ("strong_positivity", {"alpha": 0.5, "nu": NU_ZERO, "phi": CHAOS_ONE},
     "expected exp functions, got kind 'chaos'"),
    ("covariance", {"nu1": NU_ZERO, "nu2": NU_SYM, "phi": CHAOS_ONE}, "expected exp functions, got kind 'chaos'"),
    ("oracle_triangle", {"alpha": 0.5, "f": CHAOS_ONE, "nu": NU_ZERO},
     "expected exp functions, got kind 'chaos'"),
    ("classic_beckner", {"alpha": 0.5, "f": E_ONE}, "expected chaos functions, got kind 'exp'"),
    # "dim": 1.9, true and "1" were read as 1, and these printed PASS rows
    ("beckner_deficit", {"alpha": 0.5, "f": {**E_ONE, "dim": 1.9}, "nu": {**NU_ZERO, "dim": True}},
     "dim must be an integer >= 0, got 1.9"),
    ("beckner_deficit", {"alpha": 0.5, "f": E_ONE, "nu": {**NU_ZERO, "dim": True}},
     "dim must be an integer >= 0, got True"),
    ("g_lambda_bound", {"nu": {**NU_ZERO, "dim": "1"}, "lambda": 1.5}, "dim must be an integer >= 0, got '1'"),
    # a function that is not an object ended in an AttributeError traceback
    ("beckner_deficit", {"alpha": 0.5, "f": "x", "nu": NU_ZERO}, "a function must be a JSON object, got 'x'"),
    ("oracle_triangle", {"alpha": 0.5, "f": "x", "nu": NU_ZERO},
     "a function must be a JSON object, got 'x'"),
    # values a config rejects: these printed PASS rows, and the last one FAIL
    # rows from a one-node grid
    ("beckner_deficit", {"alpha": True, "f": E_ONE, "nu": NU_ZERO}, "alpha must be a number in [0, 1], got True"),
    ("holder", {"alpha": True, "f": E_ONE}, "alpha must be a number in [0, 1], got True"),
    ("strong_positivity", {"alpha": 5, "nu": NU_ZERO, "phi": E_ONE}, "alpha must be a number in [0, 1], got 5"),
    ("g_lambda_bound", {"nu": NU_SYM, "lambda": True}, "lambda must be finite (a number, not a bool), got True"),
    # this printed a PASS row with r = 1.0
    ("holder", {"alpha": 1.0, "f": E_ONE, "p": 2, "q": 2, "r": True},
     "p, q and r must be finite numbers, got 2, 2, True"),
    # a 0 x 0 matrix has no minimum eigenvalue; these said "a list of vectors"
    ("ab_psd", {"alpha": 0.5, "nu": NU_SYM, "hs": []}, "hs must hold at least one vector"),
    ("char_gram_psd", {"nu": NU_SYM, "hs": []}, "hs must hold at least one vector"),
    # the sum read "np.float64(0.5)" under numpy 2
    ("beckner_deficit", {"alpha": 0.5, "f": E_ONE, "nu": {"dim": 1, "atoms": [[0.0]], "weights": [0.5]}},
     "weights must sum to 1, got 0.5\n"),
    # eigvalsh turned these overflowed matrices into FAIL rows (rhs -9.4e12)
    # and a NaN phase into a finite eigenvalue, after numpy warnings
    ("ab_psd", {"alpha": 0.5, "nu": NU_ZERO, "hs": [[27.0], [1.0]]}, "ab_psd's matrices overflow"),
    ("char_gram_psd", {"nu": {"dim": 1, "atoms": [[1e200]], "weights": [1.0]}, "hs": [[1e200]]},
     "char_gram_psd's matrix overflows"),
    # lambda enters as lambda^2 only: these printed PASS rows
    ("g_lambda_bound", {"nu": NU_SYM, "lambda": -1}, "lambda must be > 0, got -1\n"),
    ("g_lambda_bound", {"nu": NU_SYM, "lambda": 0}, "lambda must be > 0, got 0\n"),
    # orders 20 and 30 agreed on about 1e-15 where f_sq is 2.0e-6: four FAIL rows
    ("oracle_triangle", {"alpha": 0.5, "f": {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [8.0]}]},
                         "nu": {"dim": 1, "atoms": [[-4.82]], "weights": [1.0]}},
     "quadrature nodes miss the mass at order 30: tail term t = 1 > 1/2"),
    # the chaos kernel reached "non-finite side" through numpy overflow
    # warnings, which tier-1 raises as errors
    ("beckner_deficit", {"alpha": 0.5, "f": {"kind": "chaos", "dim": 1, "terms": [{"m": [170], "c": 1.0}]},
                         "nu": {"dim": 1, "atoms": [[3.0]], "weights": [1.0]}},
     "chaos forms (int f^2, int f o_a f, int |Df|^2) overflow: (inf, inf, inf)"),
], ids=["holder-overflow", "g_lambda-nan", "g_lambda-inf", "char_gram-nan", "char_gram-inf",
        "ab-nan", "ab-inf", "holder-inf-p", "g_lambda-overflow", "beckner-overflow",
        "covariance-overflow", "holder-chaos", "strong_positivity-chaos", "covariance-chaos",
        "oracle_triangle-chaos", "classic_beckner-exp", "beckner-dim-float", "beckner-dim-bool",
        "g_lambda-dim-str", "beckner-f-not-object", "oracle-f-not-object", "beckner-alpha-bool",
        "holder-alpha-bool", "strong_positivity-alpha-above-one", "g_lambda-lambda-bool",
        "holder-r-bool", "ab_psd-hs-empty", "char_gram_psd-hs-empty", "beckner-nu-weights-half",
        "ab_psd-overflow", "char_gram_psd-overflow", "g_lambda-lambda-negative", "g_lambda-lambda-zero",
        "oracle-nodes-miss-the-mass", "beckner-chaos-overflow"])
def test_cli_check_rejects_params_it_cannot_compute(capsys, name, params, message):
    assert main(["check", name, "--params", json.dumps(params)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_check_refuses_the_oracle_in_dim_4(capsys):
    # a fixed order 6 in n = 4 gave a warning and three FAIL quadrature rows
    nu = {"dim": 4, "atoms": [[0.1, 0.0, -0.2, 0.3]], "weights": [1.0]}
    params = json.dumps({"alpha": 0.5, "f": F_DIM4, "nu": nu})
    assert main(["check", "oracle_triangle", "--params", params]) == 2
    assert "config error: tensor quadrature is limited to n <= 3, got n=4" in capsys.readouterr().err


def test_cli_check_refuses_an_oracle_task_whose_quadrature_overflows(capsys):
    # f^2 overflows on the order-225 grid (nodes near +-29, h near 12); the
    # refusal names it, where it read "moves nan relative" after numpy's
    # overflow warning (which tier-1 turns into an error)
    f = {"kind": "exp", "dim": 1, "terms": [{"coef": 0.34910218608456844, "h": [-11.919283204352334]},
                                            {"coef": -0.7904745071494064, "h": [2.7547662514349085]},
                                            {"coef": -0.2769823516794241, "h": [9.517326500834429]}]}
    nu = {"dim": 1, "atoms": [[-8.700013600917039], [2.7078343179437994]], "weights": [0.6, 0.4]}
    params = json.dumps({"alpha": 0.5, "f": f, "nu": nu})
    assert main(["check", "oracle_triangle", "--params", params]) == 2
    err = capsys.readouterr().err
    assert "config error: quadrature integrand overflows at order 225 (overflow encountered in multiply)" in err


def test_a_config_that_sets_quad_order_exits_two(tmp_path, capsys):
    # oracle_triangle works out its own quadrature order; the option it
    # replaced is refused like any unknown key, not ignored
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"checks": ["oracle_triangle"], "random_sweeps": 1, "quad_order": 30}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: unknown config keys: quad_order" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_config_that_sets_mc_sigmas_exits_two(tmp_path, capsys):
    # the Monte Carlo gate's tolerance went with the oracle's Monte Carlo rows
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"checks": ["oracle_triangle"], "random_sweeps": 1,
                                    "tolerances": {"mc_sigmas": 4.0}}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: unknown tolerance keys: mc_sigmas" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mc_count_is_validated_and_read_by_no_check():
    # existing configs that set it still load, and it changes no row
    base = {"seed": 2, "checks": list(CHECK_REGISTRY), "random_sweeps": 2}
    with pytest.raises(ConfigError, match="mc_count must be an integer >= 2"):
        SuiteConfig.from_json_dict({**base, "mc_count": 1})
    reports = [run_rendered(SuiteConfig.from_json_dict({**base, "mc_count": count})) for count in (2, 10**9)]
    assert reports[0] == reports[1] == run_rendered(SuiteConfig.from_json_dict(base))


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_cli_check_rejects_the_tolerances_run_rejects(capsys, tol):
    # nan and -1 turned this positive-gap row into FAIL, and inf passed any row
    params = json.dumps({"alpha": 0.5, "f": E_ONE, "nu": NU_SYM})
    assert main(["check", "beckner_deficit", "--params", params, "--tol", tol]) == 2
    assert "config error: tolerance exact must be a finite number >= 0" in capsys.readouterr().err


def test_cli_check_exit_one_on_failing_row(monkeypatch, capsys):
    # real rows pass (that is the point of the package), so fabricate a
    # failing one to pin the exit-code branch
    from wickbench.report import InequalityReport
    failing = InequalityReport.from_sides("beckner_deficit", {}, 2.0, 1.0, 1e-9)
    assert not failing.passed
    monkeypatch.setattr("wickbench.cli.run_check", lambda *a, **k: [failing])
    code = main(["check", "beckner_deficit", "--params", "{}"])
    assert code == 1
    capsys.readouterr()


def test_cli_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name in ("beckner_deficit", "oracle_triangle", "wick_density_identity"):
        assert name in out
    assert "default tolerances" in out


def _child_env():
    # a child interpreter finds the package of this checkout, installed or not
    src, path = Path(__file__).resolve().parent.parent / "src", os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def test_process_pool_is_imported_only_where_it_starts():
    # importing concurrent.futures' pool costs every run some 15 ms
    code = ("import sys, wickbench, wickbench.cli\n"
            "assert 'concurrent.futures.process' not in sys.modules, sorted(sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "wickbench", "list-checks"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "beckner_deficit" in proc.stdout
