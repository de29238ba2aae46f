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

Every stage is called through its module (``training.train``, not a local
alias), so a wrapper installed at that attribute sees every call.
"""

from __future__ import annotations

from pathlib import Path

from . import datasets, evaluate, figures, formats, training
from .dynamics import TrajectoryBatch
from .relativity import DEFAULT_PHYSICS, PhysicsConfig
from .sampling import SamplerConfig

# ``quick``: tiny datasets and short training, for smoke testing the pipeline.
QUICK_POINTS = {"onedot": 40, "halfmoons": 60, "spiral": 60}
QUICK_DATASET_STEPS = 50
QUICK_TRAIN = {"steps": 300, "batch_size": 32}


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
    seed: int = 0,
    train_steps: int | None = None,
    sampler_steps: int = SamplerConfig.n_steps,
    quick: bool = False,
) -> dict:
    """Generate, train, evaluate and plot the 3 x 3 table into ``outdir``.

    ``train_steps=None`` trains ``QUICK_TRAIN["steps"]`` steps with ``quick`` and
    ``TrainConfig.steps`` without.  Every spec and config is built before
    anything is written, so a bad argument raises ``ValueError`` first.
    The writers create ``outdir`` and its subdirectories as they need them.

    Returns ``{"data": {kind: {"spec", "records", "heldout"}},
    "models": {(kind, method): TrainedModel}, "cells": [EvalCell], "report"}``;
    ``records`` is the whole dataset's ``TrajectoryBatch`` and ``heldout`` its
    held-out rows.
    """
    outdir = Path(outdir)
    specs = [
        datasets.DatasetSpec(kind=kind, n_points=QUICK_POINTS[kind], n_steps=QUICK_DATASET_STEPS, seed=seed)
        if quick
        else datasets.DatasetSpec(kind=kind, seed=seed)
        for kind in datasets.KINDS
    ]
    options = dict(QUICK_TRAIN) if quick else {}
    if train_steps is not None:
        options["steps"] = train_steps
    configs = [training.TrainConfig(method=method, seed=seed, **options) for method in training.METHODS]
    sampler = SamplerConfig(n_steps=sampler_steps)
    metadata = {
        "seed": seed,
        "train_steps": configs[0].steps,
        "batch_size": configs[0].batch_size,
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
