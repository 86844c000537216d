"""Tests of the benchmark itself: generator, tracing arithmetic, gate.

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

import wickbench  # noqa: E402
from perfbench import gate, run, tracing, workloads  # noqa: E402


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


# -- workload generator ---------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.config_bytes(workload, 7) == workloads.config_bytes(workload, 7)
    assert workloads.config_bytes(workload, 7) != workloads.config_bytes(workload, 8)


def test_sweep_workloads_share_one_config():
    assert workloads.config_bytes("sweep_j1", 3) == workloads.config_bytes("sweep_j2", 3)
    assert (workloads.jobs_for("sweep_j1"), workloads.jobs_for("sweep_j2")) == (1, 2)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generated_configs_pass_load_config(workload, seed, tmp_path):
    path = str(tmp_path / "config.json")
    digest = workloads.write_config(workload, seed, path)
    assert len(digest) == 64
    cfg = wickbench.load_config(path)
    assert cfg.seed == seed
    assert wickbench.build_tasks(cfg)


# -- tracing --------------------------------------------------------------


def test_self_times_on_synthetic_tree():
    #   0: root      [0, 100]
    #   1:  child    [10, 30]   with grandchild 3 [12, 18]
    #   2:  child    [20, 50]   overlaps child 1; covered once
    #   4:  child    [60, 70]
    #   5:  child    [95, 120]  runs past its parent; clipped to [95, 100]
    starts = [0, 10, 20, 12, 60, 95]
    ends = [100, 30, 50, 18, 70, 120]
    parents = [-1, 0, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [100 - 40 - 10 - 5, 20 - 6, 30, 6, 10, 25]


def test_layer_metrics_sum_self_time_counts_and_calls():
    names = ["cli.run", "checks.holder", "expspan.product", "expspan.ctor",
             "checks.holder", "quadrature.grid"]
    starts = [0, 1_000, 2_000, 3_000, 10_000, 11_000]
    ends = [20_000, 9_000, 5_000, 4_000, 15_000, 13_000]
    parents = [-1, 0, 1, 2, 0, 4]
    counts = [0, 0, 12, 0, 0, 0]
    m = tracing.layer_metrics(names, starts, ends, parents, counts)
    assert m["expspan.product_s"] == pytest.approx(2_000 / 1e9)
    assert m["expspan.product_pairs"] == 12
    assert m["expspan.ctor_calls"] == 1
    assert m["quadrature.grid_calls"] == 1
    assert m["checks.holder_tasks"] == 2
    assert m["checks.holder_s"] == pytest.approx((8_000 + 5_000) / 1e9)
    assert m["checks.task_p50_ms"] == pytest.approx(0.005)
    assert m["checks.task_samples"] == 2
    assert m["cli.run_s"] == pytest.approx(20_000 / 1e9)
    assert m["products.chaos_pairs"] == 0


def test_nested_product_counts_pairs_once():
    f = wickbench.ChaosExpansion(1, {(1,): 1.0, (2,): 0.5})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wickbench.products.alpha_chaos(f, f, 0.5)
    finally:
        tracer.uninstall()
    spans = [i for i, n in enumerate(tracer.names) if n == "products.chaos_product"]
    assert len(spans) == 2  # alpha_chaos and the pointwise_chaos it calls
    assert sum(tracer.counts[i] for i in spans) == 4


def test_install_rebinds_every_alias_and_uninstall_restores():
    original = wickbench.quadrature.gauss_hermite_grid
    init = wickbench.ExpCombo.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wickbench.checks.gauss_hermite_grid is wickbench.quadrature.gauss_hermite_grid
        assert wickbench.checks.gauss_hermite_grid is not original
        wickbench.ExpCombo.exponential([1.0])
        wickbench.quadrature.default_grid(1)
    finally:
        tracer.uninstall()
    assert wickbench.checks.gauss_hermite_grid is original
    assert wickbench.ExpCombo.__init__ is init
    assert tracer.names == ["expspan.ctor", "quadrature.grid"]
    assert tracer.absent == []


def test_absent_names_are_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.install([
        ("expspan", "no_such_kernel", "expspan.product", None),
        ("expspan", "ExpCombo.no_such_method", "expspan.ctor", None),
        ("no_such_module", "f", "x", None),
    ])
    tracer.uninstall()
    assert tracer.absent == [
        "wickbench.expspan.no_such_kernel",
        "wickbench.expspan.ExpCombo.no_such_method",
        "wickbench.no_such_module.f",
    ]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer_names = set(tracing.layer_metrics([], [], [], [], [])) | {
        "suite.jobs2_speedup", "trace.overhead_share", "trace.absent_wrappers"}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layers) == layer_names
    assert all(layers[name] == run.layer_unit(name) for name in layers)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- correctness gate -----------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One small real CLI run: (config path, out dir, exit code, expected rows)."""
    base = tmp_path_factory.mktemp("tiny")
    config = base / "config.json"
    config.write_text(json.dumps({
        "seed": 5, "checks": ["beckner_deficit", "ab_psd", "covariance"], "random_sweeps": 3}))
    out = base / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "wickbench", "run", "--config", str(config), "--out", str(out)],
        env=_env(), capture_output=True, text=True, check=False)
    tasks = wickbench.build_tasks(wickbench.load_config(str(config)))
    counts = {}
    for t in tasks:
        counts[t["check"]] = counts.get(t["check"], 0) + 1
    return out, proc.returncode, gate.expected_rows(counts)


def test_gate_passes_a_clean_run(tiny_run):
    out, code, expected = tiny_run
    assert expected == 3 + 3 * 3 + 3
    check = gate.check_run(code, str(out), expected)
    assert check.ok, check.breaches
    assert code == 0 and check.rows == expected and check.counted_failed == 0
    again = gate.check_run(code, str(out), expected, reference_sha=check.sha256)
    assert again.ok


def test_gate_counts_every_row_failed_on_exit_code_2(tiny_run):
    out, _, expected = tiny_run
    check = gate.check_run(2, str(out), expected)
    assert not check.ok
    assert check.counted_failed == expected


@pytest.mark.parametrize("tamper", ["flip_pass", "drop_row", "other_bytes"])
def test_gate_counts_every_row_failed_on_tampered_report(tiny_run, tmp_path, tamper):
    out, code, expected = tiny_run
    reference = gate.check_run(code, str(out), expected).sha256
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    rows = json.loads((copy / "report.json").read_text())
    if tamper == "flip_pass":
        rows[0]["pass"] = False
    elif tamper == "drop_row":
        rows.pop()
    else:
        rows[0]["gap"] += 1.0
    (copy / "report.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    check = gate.check_run(code, str(copy), expected, reference_sha=reference)
    assert not check.ok
    assert check.counted_failed == expected


def test_run_counts_each_row_once_however_many_runs(tiny_run, tmp_path):
    out, code, expected = tiny_run
    bench = run.Run("sweep_j1", 1, 1.0, str(tmp_path))
    bench.expected = expected
    for i in range(3):
        shutil.copytree(out, bench.report_dir)
        bench.check_report(code, f"run {i}")
    assert (bench.attempted, bench.failed) == (expected, 0)
    shutil.copytree(out, bench.report_dir)
    bench.check_report(2, "crashed run")
    assert (bench.attempted, bench.failed) == (expected, expected)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_j1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
