"""Every benchmark workload runs clean, with the rows the benchmark's gate expects.

perfbench/workloads.py writes the benchmark's suite configs and
perfbench/gate.py counts the rows each task of a check must emit; a run
that breaks either counts all of its rows failed.  So a change to a
check's rows per task, or to the config keys the suite accepts, fails
here instead of in every benchmark run.
"""

import json
from collections import Counter
from pathlib import Path

from wickbench.suite import SuiteConfig, build_tasks, run_rendered

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_clean_with_the_gates_row_count(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import gate, workloads

    # the two sweep workloads share one config; each config runs once, at seed 1
    for data in sorted({workloads.config_bytes(name, 1) for name in workloads.WORKLOADS}):
        cfg = SuiteConfig.from_json_dict(json.loads(data))
        counts = Counter(task["check"] for task in build_tasks(cfg))
        rendered = run_rendered(cfg, 1)
        assert len(rendered) == gate.expected_rows(counts)
        assert [line for line, _, passed in rendered if not passed] == []
