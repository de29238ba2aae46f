"""The whole experiment: three datasets, three methods each, one loss table.

:func:`run_table` regenerates every dataset, trains o1, o1o2 and form on its
training split, scores each model on the held-out split and writes it all
into one directory:

    <outdir>/datasets/<kind>.ndjson              simulated trajectories
    <outdir>/checkpoints/<kind>-<method>.ndjson  trained models
    <outdir>/figures/<kind>-data.svg             source/target clouds + paths
    <outdir>/figures/<kind>-<method>.svg         model samples vs targets
    <outdir>/report.json                         machine-readable loss report

Every stage is called through its module (``training.train``, not a local
alias), so a wrapper installed at that attribute sees every call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import datasets, evaluate, figures, formats, training
from .dynamics import DEFAULT_UNITS
from .relativity import DEFAULT_PHYSICS
from .sampling import SamplerConfig

# ``quick``: tiny datasets and short training, for smoke testing the pipeline.
QUICK_POINTS = {"onedot": 40, "halfmoons": 60, "spiral": 60}
QUICK_DATASET_STEPS = 50
QUICK_TRAIN = {"steps": 300, "batch_size": 32}


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
    "models": {(kind, method): TrainedModel}, "cells": [EvalCell], "report"}``.
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
        records = datasets.generate(spec)
        formats.write_dataset(outdir / "datasets" / f"{kind}.ndjson", records, spec, DEFAULT_PHYSICS, DEFAULT_UNITS)
        train_records, heldout = datasets.holdout_split(records)
        data[kind] = {"spec": spec, "records": records, "heldout": heldout}

        source = np.stack([r.x0 for r in records])
        target = np.stack([r.endpoint for r in records])
        shown = records[:: max(1, len(records) // 12)][:12]
        figures.write_svg(
            outdir / "figures" / f"{kind}-data.svg",
            figures.scatter_svg(source, target, [r.x for r in shown], title=f"{kind} trajectories"),
        )

        heldout_targets = np.stack([r.endpoint for r in heldout])
        for config in configs:
            method = config.method
            model = training.train(train_records, config, dataset_info=spec.to_dict())
            formats.write_checkpoint(outdir / "checkpoints" / f"{kind}-{method}.ndjson", model)
            models[(kind, method)] = model

            cell = evaluate.evaluate_model(model, heldout, sampler=sampler, dataset_name=kind)
            cells.append(cell)
            path = cell.path  # the run evaluation scored, reused rather than sampled again
            shown_paths = [path.x[:, i, :] for i in range(0, len(heldout), max(1, len(heldout) // 8))][:8]
            figures.write_svg(
                outdir / "figures" / f"{kind}-{method}.svg",
                figures.scatter_svg(path.endpoint, heldout_targets, shown_paths, title=f"{kind}: {method} samples"),
            )

    report = evaluate.make_report(cells, metadata=metadata)
    formats.write_report(outdir / "report.json", report)
    return {"data": data, "models": models, "cells": cells, "report": report}
