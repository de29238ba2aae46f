"""The benchmark's traced run wraps ``module.attr`` for every site in
``perfbench/workloads.py``'s ``TRACE_SITES``, with no default; a site that no
longer resolves makes every traced run raise.  Checked here, in tier 1, with
spies that the simulator's work still passes through its sites, and with the
benchmark's own warm-up and read-back gate run on small inputs, so a change
to how the program is called breaks tier 1 before it breaks the benchmark."""

import importlib
import sys
from pathlib import Path

import pytest

from form_lab import datasets, dynamics, evaluate, formats, sampling
from form_lab.relativity import DEFAULT_PHYSICS
from form_lab.sampling import SamplerConfig

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


def test_simulation_passes_through_its_module_globals(monkeypatch):
    """``generate`` calls ``datasets.simulate_batch`` and ``simulate_batch``
    calls ``dynamics.integrate_fixed_grid`` as module globals, once per chunk,
    so a wrapper installed there sees all of the simulation's work."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(datasets, "simulate_batch")
    spy(dynamics, "integrate_fixed_grid")
    n_points = 2 * datasets.POINTS_PER_WORKER  # two chunks at max_workers=2
    records = datasets.generate(datasets.DatasetSpec(kind="halfmoons", n_points=n_points, n_steps=4), max_workers=2)
    assert len(records) == n_points
    assert sorted(calls) == ["form_lab.datasets.simulate_batch"] * 2 + ["form_lab.dynamics.integrate_fixed_grid"] * 2


@pytest.mark.parametrize("method, head_calls_per_step", [("o1", 1), ("o1o2", 2), ("form", 1)])
def test_sampling_passes_through_its_module_globals(monkeypatch, tiny_models, tiny_onedot, method, head_calls_per_step):
    """``evaluate_model`` looks up ``sample_o1``/``sample_o1o2``/``sample_form``
    as ``evaluate`` globals at each call, and the samplers' heads run through
    ``sampling.mlp_forward``, so wrappers installed there see every sampler
    run and every head evaluation."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("sample_o1", "sample_o1o2", "sample_form"):
        spy(evaluate, name)
    spy(sampling, "mlp_forward")
    heldout = datasets.holdout_split(tiny_onedot[1])[1]
    evaluate.evaluate_model(tiny_models[method], heldout, sampler=SamplerConfig(n_steps=6))
    head_calls = ["form_lab.sampling.mlp_forward"] * (6 * head_calls_per_step)
    assert sorted(calls) == [f"form_lab.evaluate.sample_{method}", *head_calls]


def test_benchmark_warm_up_runs(workloads, tmp_path):
    """Every public function the workloads call, called the way they call it, on tiny inputs."""
    workloads.warm_up(tmp_path, seed=0, workers=1)
    assert not any(tmp_path.iterdir())


def test_benchmark_read_back_gate_holds(workloads, tmp_path):
    spec = datasets.DatasetSpec(kind="halfmoons", n_points=12, n_steps=10, seed=3)
    path = tmp_path / "d.ndjson"
    formats.write_dataset(path, datasets.generate(spec), spec, DEFAULT_PHYSICS)
    loaded = formats.read_dataset(path)[1]
    assert workloads.records_equal(datasets.generate(spec), loaded)
    assert not workloads.records_equal(datasets.generate(spec)[1:], loaded[1:][::-1])
