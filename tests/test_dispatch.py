"""Verdicts do not depend on numpy's SIMD dispatch.

numpy picks a kernel per CPU feature at run time, so report bytes differ
between machines: with its optional features off, some rows change in
the last bits.  Run one config twice in child processes, once as is and
once with NPY_DISABLE_CPU_FEATURES naming every optional feature numpy
found on the running CPU, and require the same rows, params and
verdicts, with each gap moved by less than its row's tolerance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wickbench import CHECK_REGISTRY

ROOT = Path(__file__).resolve().parent.parent
# params a row computes rather than reads from its task
COMPUTED = {"integrals", "value", "se", "exact"}


def _found_features() -> list[str]:
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


def _run(tmp_path, name, tolerances, extra_env):
    cfg = {"seed": 3, "checks": list(CHECK_REGISTRY), "random_sweeps": 40, "mc_count": 2000,
           "tolerances": tolerances}
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""), **extra_env)
    proc = subprocess.run([sys.executable, "-m", "wickbench", "run", "--config", str(cfg_path),
                           "--out", str(tmp_path / name)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 1), proc.stderr
    return json.loads((tmp_path / name / "report.json").read_text())


def _gap_bound(row) -> float:
    # an oracle quadrature row's bound is its rhs and its tolerance 0
    if row["check"] == "oracle_triangle" and row["params"]["route"] == "quadrature":
        return 1e-3 * row["rhs"]
    return row["tolerance"]


def _compare(tmp_path, tolerances):
    """(rows, gap violations) of the two runs, after asserting that they
    hold the same checks, input params and verdicts in the same order."""
    found = _found_features()
    if not found:
        pytest.skip("numpy found no optional CPU feature, so there is no second dispatch path to run")
    plain = _run(tmp_path, "plain", tolerances, {})
    baseline = _run(tmp_path, "baseline", tolerances, {"NPY_DISABLE_CPU_FEATURES": ",".join(found)})
    assert [r["check"] for r in plain] == [r["check"] for r in baseline]

    def inputs(row):
        return {k: v for k, v in row["params"].items() if k not in COMPUTED}

    assert [inputs(r) for r in plain] == [inputs(r) for r in baseline]
    assert [r["pass"] for r in plain] == [r["pass"] for r in baseline]
    violations = [(a["check"], a["params"], a["gap"], b["gap"]) for a, b in zip(plain, baseline)
                  if abs(a["gap"] - b["gap"]) > _gap_bound(a)]
    return plain, violations


def test_verdicts_do_not_depend_on_simd_dispatch(tmp_path):
    rows, violations = _compare(tmp_path, {})
    assert len(rows) == 720
    assert violations == []


def test_the_gap_check_sees_dispatch_differences(tmp_path):
    # a zero psd tolerance is below the cross-dispatch rounding of the
    # near-zero eigenvalues and covariance gaps, so the gap check must
    # flag some of those rows
    _, violations = _compare(tmp_path, {"psd": 0.0})
    assert violations
