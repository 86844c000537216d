"""Each wickbench process computes on one BLAS thread by default.

Importing wickbench sets OPENBLAS_NUM_THREADS to 1 when numpy has not
loaded yet, so numpy's OpenBLAS starts no helper thread; a value the
user set wins, and a process that loaded numpy first is left as it is.
The children here start from an environment without the variable (this
process may have set it itself), and report bytes must not depend on
the thread count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wickbench import CHECK_REGISTRY

ROOT = Path(__file__).resolve().parent.parent
VAR = "OPENBLAS_NUM_THREADS"
PROBE = ("import os, wickbench\n"
         "task = '/proc/self/task'\n"
         "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir(task)) if os.path.isdir(task) else None)\n")


def _env(**extra) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != VAR}
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return {**env, **extra}


def _probe(code: str, **extra) -> tuple[str | None, int | None]:
    proc = subprocess.run([sys.executable, "-c", code], env=_env(**extra), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return (None if value == "None" else value), (None if threads == "None" else int(threads))


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return False
    return "openblas" in blas.lower()


def test_one_blas_thread_by_default_and_the_users_value_wins():
    value, threads = _probe(PROBE)
    assert value == "1"
    if threads is not None:
        assert threads == 1
    value, threads = _probe(PROBE, **{VAR: "2"})
    assert value == "2"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if threads is not None and _openblas() and cpus >= 2:
        assert threads == 2
    # a host program that loaded numpy first is not touched
    value, _ = _probe("import numpy\n" + PROBE)
    assert value is None


def _dense_chaos(dim: int, degree: int) -> dict:
    terms = [{"m": [i, j], "c": ((7 * i + 3 * j) % 11 - 5) / 5.0 + 0.1}
             for i in range(degree + 1) for j in range(degree + 1 - i)]
    return {"kind": "chaos", "dim": dim, "terms": terms}


def _run(tmp_path, name, extra_env) -> tuple[bytes, bytes]:
    # every check, a dense chaos function for the deficit checks and an
    # exponential combination with a measure in n = 2 for oracle_triangle
    cfg = {
        "seed": 5,
        "checks": list(CHECK_REGISTRY),
        "random_sweeps": 12,
        "alphas": [0.25, 0.75],
        "functions": [_dense_chaos(2, 6),
                      {"kind": "exp", "dim": 2, "terms": [{"coef": 1.0, "h": [0.5, -0.3]},
                                                          {"coef": -0.4, "h": [-0.2, 0.7]}]}],
        "measures": [{"dim": 2, "atoms": [[0.3, -0.1], [-0.6, 0.4], [0.1, 0.8]], "weights": [0.5, 0.3, 0.2]}],
    }
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    proc = subprocess.run([sys.executable, "-m", "wickbench", "run", "--config", str(cfg_path), "--out", str(out)],
                          env=_env(**extra_env), capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 1), proc.stderr
    return (out / "report.json").read_bytes(), (out / "report.csv").read_bytes()


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = _run(tmp_path, "default", {})
    two = _run(tmp_path, "two", {VAR: "2"})
    rows = json.loads(one[0])
    # every check has rows; ab_psd's rows are named after its three matrices
    ab_rows = {"ab_matrix_a", "ab_matrix_b", "ab_matrix_hadamard"}
    assert {row["check"] for row in rows} == set(CHECK_REGISTRY) - {"ab_psd"} | ab_rows
    dense = len(_dense_chaos(2, 6)["terms"])
    assert any(len(row["params"].get("f", {}).get("terms", [])) == dense for row in rows)
    assert one == two
