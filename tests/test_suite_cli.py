"""Harness behavior: config validation, task expansion, determinism, CLI codes."""

import csv
import hashlib
import json
import subprocess
import sys

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
from wickbench.cli import main

E_ONE = {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [1.0]}]}
NU_ZERO = {"dim": 1, "atoms": [[0.0]], "weights": [1.0]}
NU_SYM = {"dim": 1, "atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}


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
    ({}, "9b8122b182b4157677bfc8d22bf6ead44b141b276de1e63f3634d8ade7203421"),
    ({"dim": 2, "seed": 3}, "255edb1af267ea51c9ccc1c9173774ad3a20c506f74058833eead7d867daaa8d"),
])
def test_task_expansion_is_pinned(overrides, digest):
    # every grid rule and every random draw, in order: a changed digest
    # means reports change bytes for existing configs
    cfg = SuiteConfig.from_json_dict({
        "seed": 7, "alphas": [0.0, 0.25, 0.5, 1.0], "functions": PIN_FUNCTIONS,
        "measures": PIN_MEASURES, "checks": list(CHECK_REGISTRY), "random_sweeps": 25,
        "quad_order": 12, "mc_count": 500, **overrides,
    })
    tasks = build_tasks(cfg)
    assert len(tasks) == 517
    blob = json.dumps([[t["check"], t["params"]] for t in tasks], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


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
    cfg = _small_config(checks=["beckner_deficit", "covariance", "g_lambda_bound"],
                        random_sweeps=4)
    blobs = {}
    for jobs in (1, 3):
        out = tmp_path / f"jobs{jobs}"
        rows, _ = run_suite(cfg, jobs=jobs)
        jp, cp = write_reports(rows, out)
        blobs[jobs] = (open(jp, "rb").read(), open(cp, "rb").read())
    assert blobs[1] == blobs[3]


def test_report_files_are_well_formed(tmp_path):
    rows, _ = run_suite(_small_config())
    jp, cp = write_reports(rows, tmp_path)
    data = json.load(open(jp))
    assert len(data) == len(rows)
    for entry in data:
        assert set(entry) == {"check", "params", "lhs", "rhs", "gap",
                              "tolerance", "pass", "method"}
    with open(cp, newline="") as fh:
        records = list(csv.reader(fh))
    assert records[0] == ["check", "params", "lhs", "rhs", "gap", "tol", "pass", "method"]
    assert len(records) == len(rows) + 1
    # repr floats round-trip exactly, and params cells are themselves JSON
    assert float(records[1][2]) == rows[0].lhs
    json.loads(records[1][1])


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
])
def test_cli_run_rejects_bad_scalar_fields(tmp_path, capsys, overrides, argv):
    # each of these ran the suite before validation caught it: a traceback
    # and exit 1 (the failing-row code), or a silent run
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({
        "checks": ["oracle_triangle"], "random_sweeps": 1, "mc_count": 100, **overrides,
    }))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *argv])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_cli_check_bad_inputs(capsys):
    assert main(["check", "beckner_deficit", "--params", "{oops"]) == 2
    assert main(["check", "made_up_check", "--params", "{}"]) == 2
    # structurally valid JSON but missing required parameters
    assert main(["check", "beckner_deficit", "--params", "{}"]) == 2
    capsys.readouterr()


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


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "wickbench", "list-checks"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "beckner_deficit" in proc.stdout
