"""Every function the benchmark's tracer wraps (``perfbench/tracing.py``)
still exists under the name it looks up, so a rename in the package cannot
silently drop a layer from the benchmark's spans."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracing")


def test_trace_targets_resolve(tracing):
    missing = []
    for module, path, span in tracing.TARGETS:
        owner, attr = tracing._resolve(module, path)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{path} ({span})")
    assert not missing
