"""Correctness gate applied to every timed `wickbench run`.

A run passes the gate when its exit code says what its rows say (1 exactly
when some row has "pass": false, else 0), its report holds the number of
rows `build_tasks` implies, and its report.json bytes match the reference
digest for the config.  A run that breaks the gate counts every expected
row as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

# rows each task of a check emits; every other check emits one row
ROWS_PER_TASK = {"ab_psd": 3, "oracle_triangle": 6}


def expected_rows(task_counts: dict) -> int:
    """Rows a suite must report, given its task count per check."""
    return sum(n * ROWS_PER_TASK.get(check, 1) for check, n in task_counts.items())


@dataclass
class RunCheck:
    """Gate verdict for one run of the CLI."""

    expected: int
    rows: int = 0
    failed_rows: int = 0
    report_bytes: int = 0
    sha256: str = ""
    breaches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.breaches

    @property
    def counted_failed(self) -> int:
        """FAIL rows of a clean run; every expected row of a broken one."""
        return self.failed_rows if self.ok else self.expected


def check_run(exit_code: int, out_dir: str, expected: int, reference_sha: str | None = None) -> RunCheck:
    """Apply the gate to one finished run whose reports are in out_dir."""
    result = RunCheck(expected=expected)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    if exit_code not in (0, 1):
        result.breaches.append(f"exit code {exit_code}")
        return result
    try:
        with open(json_path, "rb") as fh:
            data = fh.read()
        rows = json.loads(data)
        result.report_bytes = len(data) + os.path.getsize(csv_path)
    except (OSError, ValueError) as exc:
        result.breaches.append(f"unreadable report: {exc}")
        return result
    result.sha256 = hashlib.sha256(data).hexdigest()
    result.rows = len(rows)
    result.failed_rows = sum(1 for r in rows if r.get("pass") is not True)
    want_code = 1 if result.failed_rows else 0
    if exit_code != want_code:
        result.breaches.append(
            f"exit code {exit_code} with {result.failed_rows} failing rows (want {want_code})")
    if result.rows != expected:
        result.breaches.append(f"{result.rows} rows, build_tasks implies {expected}")
    if reference_sha is not None and result.sha256 != reference_sha:
        result.breaches.append(f"report.json sha256 {result.sha256[:12]} != reference {reference_sha[:12]}")
    return result
