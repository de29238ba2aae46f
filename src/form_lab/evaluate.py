"""Endpoint evaluation: Euclidean distance losses, report assembly, tables.

The headline number for a (method, dataset) pair is the paired Euclidean
loss: sample one endpoint per held-out source point and average the
distances to the true simulated endpoints, matched by trajectory index.
Pairing is meaningful here because every sampler is deterministic given the
source point.  A one-sided chamfer distance (generated -> target) is
available for set-level comparisons that ignore pairing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .datasets import KINDS
from .dynamics import TrajectoryBatch
from .formats import REPORT_KIND, SCHEMA_VERSION
from .sampling import SamplePath, SamplerConfig, sample_form, sample_o1, sample_o1o2
from .training import METHODS, TrainedModel

EVAL_MODES = ("paired", "chamfer")

METHOD_LABELS = {"o1": "O1", "o1o2": "O1+O2", "form": "ForM"}

# Previously reported losses for the same experiment layout, kept around as
# an optional overlay row in rendered tables.
REFERENCE_LOSSES = {
    "onedot": {"o1": 2.146, "o1o2": 2.048, "form": 0.509},
    "halfmoons": {"o1": 5.853, "o1o2": 5.793, "form": 0.714},
    "spiral": {"o1": 1.666, "o1o2": 1.578, "form": 0.124},
}


def euclidean_distance_loss(generated, target, mode: str = "paired") -> float:
    """Mean Euclidean distance between generated and target point sets.

    ``paired``: mean over i of |generated_i - target_i| (equal lengths).
    ``chamfer``: mean over generated points of the distance to the nearest
    target point (one-sided; permutation invariant).
    """
    generated = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if generated.size == 0 or target.size == 0:
        raise ValueError("cannot evaluate empty point sets")
    if generated.shape[-1] != target.shape[-1]:
        raise ValueError(f"dimension mismatch: {generated.shape} vs {target.shape}")
    if mode == "paired":
        if generated.shape != target.shape:
            raise ValueError(
                f"paired mode needs matching shapes, got {generated.shape} vs {target.shape}"
            )
        return float(np.mean(np.sqrt(np.sum((generated - target) ** 2, axis=-1))))
    if mode == "chamfer":
        diff = generated[:, None, :] - target[None, :, :]
        dists = np.sqrt(np.sum(diff * diff, axis=-1))
        return float(np.mean(np.min(dists, axis=1)))
    raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")


def sample_model(model: TrainedModel, x0, sampler: SamplerConfig | None = None, v0=None) -> SamplePath:
    """Run the sampler that matches ``model.method``.

    ``v0`` is the force sampler's initial velocity (see ``sample_form``);
    flow models have no velocity state, so they reject it.
    """
    if model.method == "form":
        return sample_form(model, x0, sampler, v0=v0)
    if v0 is not None:
        raise ValueError(f"{model.method} models take no initial velocity")
    if model.method == "o1":
        return sample_o1(model, x0, sampler)
    if model.method == "o1o2":
        return sample_o1o2(model, x0, sampler)
    raise ValueError(f"unknown model method {model.method!r}")


@dataclass(frozen=True)
class EvalCell:
    """One scored (dataset, method) pair; ``path`` is the sampler run it was scored on."""

    dataset: str
    method: str
    loss: float
    n_points: int
    sampler_steps: int
    mode: str
    path: SamplePath | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "path"}


def evaluate_model(
    model: TrainedModel,
    heldout: TrajectoryBatch,
    sampler: SamplerConfig | None = None,
    mode: str = "paired",
    dataset_name: str | None = None,
) -> EvalCell:
    """Sample from each held-out source point and score against endpoints."""
    if not heldout:
        raise ValueError("cannot evaluate on an empty held-out split")
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    sampler = sampler if sampler is not None else SamplerConfig()
    path = sample_model(model, heldout.x0, sampler)
    name = dataset_name or (model.dataset_info or {}).get("kind", "unknown")
    return EvalCell(
        dataset=name,
        method=model.method,
        loss=euclidean_distance_loss(path.endpoint, heldout.endpoint, mode=mode),
        n_points=len(heldout),
        sampler_steps=sampler.n_steps,
        mode=mode,
        path=path,
    )


def config_digest(payload: dict) -> str:
    """Stable sha256 over a JSON-able configuration dict."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def make_report(cells: list[EvalCell], metadata: dict | None = None) -> dict:
    """Assemble cells into a JSON-able report with per-dataset rankings."""
    if not cells:
        raise ValueError("report needs at least one cell")
    by_dataset: dict[str, dict[str, float]] = {}
    for cell in cells:
        by_dataset.setdefault(cell.dataset, {})[cell.method] = cell.loss
    ranking = {
        ds: sorted(methods, key=lambda m: methods[m]) for ds, methods in by_dataset.items()
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "metadata": dict(metadata or {}),
        "cells": [c.to_dict() for c in cells],
        "ranking": ranking,
    }


def _fmt_loss(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}" if abs(value) >= 5e-4 else f"{value:.1e}"


def render_table(report: dict, include_reference: bool = False) -> str:
    """Plain-text loss table: methods as rows, datasets as columns.

    The best loss per dataset is marked ``**`` and the runner-up ``*``.
    ``include_reference`` appends the previously reported losses.
    """
    cells = {(c["dataset"], c["method"]): c["loss"] for c in report["cells"]}
    datasets = [d for d in KINDS if any(k[0] == d for k in cells)]
    datasets += sorted({k[0] for k in cells} - set(datasets))
    methods = [m for m in METHODS if any(k[1] == m for k in cells)]
    methods += sorted({k[1] for k in cells} - set(methods))

    marks: dict[tuple[str, str], str] = {}
    for ds in datasets:
        ordered = sorted((m for m in methods if (ds, m) in cells), key=lambda m: cells[(ds, m)])
        if ordered:
            marks[(ds, ordered[0])] = " **"
        if len(ordered) > 1:
            marks[(ds, ordered[1])] = " *"

    header = ["method"] + list(datasets)
    rows = [header]
    for m in methods:
        row = [METHOD_LABELS.get(m, m)]
        for ds in datasets:
            loss = cells.get((ds, m))
            row.append(_fmt_loss(loss) + marks.get((ds, m), "") if loss is not None else "-")
        rows.append(row)
    if include_reference:
        for m in METHODS:
            row = [f"ref {METHOD_LABELS[m]}"]
            for ds in datasets:
                row.append(_fmt_loss(REFERENCE_LOSSES.get(ds, {}).get(m)))
            rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
