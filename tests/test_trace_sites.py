"""The benchmark's traced run wraps ``module.attr`` for every site in
``perfbench/workloads.py``'s ``TRACE_SITES``, with no default; a site that no
longer resolves makes every traced run raise.  Checked here, in tier 1."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported read-only through sys.path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = {"workloads", "tracing"} - set(sys.modules)
    yield importlib.import_module("workloads")
    for name in fresh:
        sys.modules.pop(name, None)


def test_every_trace_site_resolves(workloads):
    assert workloads.TRACE_SITES
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in workloads.TRACE_SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"trace sites that no longer resolve: {missing}"
