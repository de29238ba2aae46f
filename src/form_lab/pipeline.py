"""The whole experiment: three datasets, three methods each, one loss table.

:func:`run_table` regenerates every dataset, trains o1, o1o2 and form on its
training split, scores each model on the held-out split and writes it all
into one directory:

    <outdir>/datasets/<kind>.ndjson              simulated trajectories
    <outdir>/checkpoints/<kind>-<method>.ndjson  trained models
    <outdir>/figures/<kind>-data.svg             source/target clouds + paths
    <outdir>/figures/<kind>-<method>.svg         model samples vs targets
    <outdir>/report.json                         machine-readable loss report

The CLI subcommands call the same stages, :func:`make_dataset`, :func:`fit` and :func:`heldout_for`,
the one rule pairing a model with its held-out rows; the split rule is :func:`datasets.holdout_split`.
:func:`stress` runs the speed-limit stress families that ``form-lab stress`` reports.

Every stage is called through its module (``training.train``, not a local
alias), so a wrapper installed at that attribute sees every call.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datasets, evaluate, figures, formats, neural, sampling, training
from .dynamics import TrajectoryBatch
from .errors import DegenerateVelocityError, SpeedLimitError
from .relativity import DEFAULT_PHYSICS, PhysicsConfig, speed
from .sampling import SamplerConfig

# ``quick``: tiny datasets, and the short training (``form-lab table --quick``) that goes with them.
QUICK_POINTS = {"onedot": 40, "halfmoons": 60, "spiral": 60}
QUICK_DATASET_STEPS = 50
QUICK_TRAIN = {"steps": 300, "batch_size": 32}

# The grids of the stress runs' samplers: coarse grids are the hard case.
STRESS_STEPS = (10, 100, 1000)


def make_dataset(path, spec, physics: PhysicsConfig = DEFAULT_PHYSICS, max_workers=None) -> TrajectoryBatch:
    """Generate ``spec`` and write it to ``path`` with the same physics, both in ``DEFAULT_UNITS``."""
    batch = datasets.generate(spec, physics=physics, max_workers=max_workers)
    formats.write_dataset(path, batch, spec, physics)
    return batch


def fit(path, rows, config, spec_dict: dict) -> training.TrainedModel:
    """Train ``config`` on ``rows``, recording ``spec_dict`` as the model's dataset, and write it to ``path``."""
    model = training.train(rows, config, dataset_info=spec_dict)
    formats.write_checkpoint(path, model)
    return model


def heldout_for(model: training.TrainedModel, heldouts_by_kind: dict, name) -> tuple[str, TrajectoryBatch]:
    """The kind and held-out rows ``model`` is scored on: its dataset's, or the only ones given if it records none."""
    only = next(iter(heldouts_by_kind)) if len(heldouts_by_kind) == 1 else None
    kind = (model.dataset_info or {}).get("kind", only)
    if kind not in heldouts_by_kind:
        raise ValueError(f"model {name} was trained on {kind!r}, but the datasets given are {sorted(heldouts_by_kind)}")
    return kind, heldouts_by_kind[kind]


def run_table(
    outdir: Path,
    train: training.TrainConfig = training.TrainConfig(training.METHODS[0]),
    sampler: SamplerConfig = SamplerConfig(),
    quick: bool = False,
) -> dict:
    """Generate, train, evaluate and plot the 3 x 3 table into ``outdir``.

    Each dataset is seeded with ``train.seed`` and each method trains ``replace(train, method=method)``;
    every model is sampled with ``sampler``.  ``quick`` only picks the ``QUICK_POINTS`` x
    ``QUICK_DATASET_STEPS`` datasets (``QUICK_TRAIN`` is the training budget that goes with them).
    Every spec and config is built before anything is written, so a bad argument raises ``ValueError`` first.
    The writers create ``outdir`` and its subdirectories as they need them.

    Returns ``{"data": {kind: {"spec", "records", "heldout"}},
    "models": {(kind, method): TrainedModel}, "cells": [EvalCell], "report"}``;
    ``records`` is the whole dataset's ``TrajectoryBatch`` and ``heldout`` its
    held-out rows.
    """
    outdir = Path(outdir)
    specs = [
        datasets.DatasetSpec(kind=kind, n_points=QUICK_POINTS[kind], n_steps=QUICK_DATASET_STEPS, seed=train.seed)
        if quick
        else datasets.DatasetSpec(kind=kind, seed=train.seed)
        for kind in datasets.KINDS
    ]
    configs = [replace(train, method=method) for method in training.METHODS]
    metadata = {
        "seed": train.seed,
        "train_steps": train.steps,
        "batch_size": train.batch_size,
        "sampler_steps": sampler.n_steps,
        "dataset_steps": specs[0].n_steps,
        "quick": bool(quick),
    }
    metadata["digest"] = evaluate.config_digest(metadata)

    data, models, cells = {}, {}, []
    for spec in specs:
        kind = spec.kind
        batch = make_dataset(outdir / "datasets" / f"{kind}.ndjson", spec)
        train_batch, heldout = datasets.holdout_split(batch)
        data[kind] = {"spec": spec, "records": batch, "heldout": heldout}

        shown = batch.x[:: max(1, len(batch) // 12)][:12]
        figures.write_svg(
            outdir / "figures" / f"{kind}-data.svg",
            figures.scatter_svg(batch.x0, batch.endpoint, list(shown), title=f"{kind} trajectories"),
        )

        for config in configs:
            method = config.method
            model = fit(outdir / "checkpoints" / f"{kind}-{method}.ndjson", train_batch, config, spec.to_dict())
            models[(kind, method)] = model

            cell = evaluate.evaluate_model(model, heldout, sampler=sampler, dataset_name=kind)
            cells.append(cell)
            path = cell.path  # the run evaluation scored, reused rather than sampled again
            shown_paths = [path.x[:, i, :] for i in range(0, len(heldout), max(1, len(heldout) // 8))][:8]
            figures.write_svg(
                outdir / "figures" / f"{kind}-{method}.svg",
                figures.scatter_svg(path.endpoint, heldout.endpoint, shown_paths, title=f"{kind}: {method} samples"),
            )

    report = evaluate.make_report(cells, metadata=metadata)
    formats.write_report(outdir / "report.json", report)
    return {"data": data, "models": models, "cells": cells, "report": report}


def _stress_run(run, *args, **kwargs) -> float | str | None:
    """What a stress run shows: the largest |v|/c of ``run(*args, **kwargs).v``, the message of a
    ``SpeedLimitError`` (a speed that float64 rounds to c), or None for a brake through zero celerity."""
    try:
        return float(np.max(speed(run(*args, **kwargs).v))) / DEFAULT_PHYSICS.c
    except SpeedLimitError as e:
        return str(e)
    except DegenerateVelocityError:
        return None


def stress(spec: datasets.DatasetSpec, seeds: int) -> tuple[dict, float]:
    """The stress runs ``{"simulator": {kind: run}, "sampler": {kind: [run per STRESS_STEPS grid]}, "random": [run]}``
    as :func:`_stress_run` shows them, and their worst |v|/c, where a refusal counts as 1.  They are ``generate`` of
    ``spec`` as every kind, ``force_path`` on those schedules from 16 source points, and ``seeds`` untrained force
    heads through ``sample_form`` on every grid; ``spec.force_scale`` scales the forces and the heads' outputs."""
    stressed = {kind: replace(spec, kind=kind) for kind in datasets.KINDS}
    runs = {"simulator": {kind: _stress_run(datasets.generate, s) for kind, s in stressed.items()}, "sampler": {}}
    for kind, s in stressed.items():
        schedule = datasets.force_schedule_for(s)
        x0 = datasets.source_points(s, list(range(min(16, s.n_points))))
        v0 = datasets.initial_velocity(s, x0)
        components = lambda x, t: (schedule.f_par(t), schedule.f_perp(t))  # run within this iteration
        runs["sampler"][kind] = [_stress_run(sampling.force_path, components, x0, v0, s.duration, n_steps,
                                             handedness=s.handedness) for n_steps in STRESS_STEPS]
    onedot = datasets.DatasetSpec(kind="onedot", n_points=min(16, spec.n_points))
    x0, runs["random"] = datasets.source_points(onedot, list(range(onedot.n_points))), []
    for seed in range(seeds):
        head = neural.mlp_init((1, 64, 64, 2), seed=seed)
        head = neural.MlpParams(head.layer_dims, (*head.weights[:-1], head.weights[-1] * spec.force_scale), head.biases)
        model = training.TrainedModel(method="form", heads={"F": head}, duration=1.0, physics=DEFAULT_PHYSICS,
                                      train_config=training.TrainConfig(method="form"), dataset_info=onedot.to_dict())
        runs["random"] += [_stress_run(sampling.sample_form, model, x0, SamplerConfig(n_steps=n)) for n in STRESS_STEPS]
    every = [*runs["simulator"].values(), *(r for row in runs["sampler"].values() for r in row), *runs["random"]]
    return runs, max((1.0 if isinstance(r, str) else r for r in every if r is not None), default=0.0)
