"""The benchmark's tracer wraps wickbench functions by name; each name must resolve."""

import importlib
from pathlib import Path


def test_bench_wrapped_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import WRAPPED

    missing = []
    for module_name, attr, *_ in WRAPPED:
        owner = importlib.import_module(f"wickbench.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"wickbench.{module_name}.{attr}")
    assert not missing, f"renamed or removed: {missing}"
