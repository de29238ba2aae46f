#!/usr/bin/env python3
"""End-to-end experiment driver: datasets -> models -> loss table + figures.

Regenerates the three trajectory datasets, trains all three methods on each,
scores paired endpoint losses on the held-out split, and writes everything
into one output directory:

    <outdir>/datasets/<kind>.ndjson            simulated trajectories
    <outdir>/checkpoints/<kind>-<method>.ndjson  trained models
    <outdir>/figures/<kind>-data.svg           source/target clouds + paths
    <outdir>/figures/<kind>-<method>.svg       model samples vs targets
    <outdir>/report.json                       machine-readable loss report
    <outdir>/table.txt                         rendered comparison table

The full run (defaults) takes a couple of minutes on one CPU; pass --quick
for a small smoke-test configuration that finishes in seconds.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from form_lab.datasets import KINDS, DatasetSpec, generate, holdout_split
from form_lab.dynamics import DEFAULT_UNITS
from form_lab.evaluate import config_digest, evaluate_model, make_report, render_table, sample_model
from form_lab.formats import write_checkpoint, write_dataset, write_report
from form_lab.figures import scatter_svg, write_svg
from form_lab.relativity import DEFAULT_PHYSICS
from form_lab.sampling import SamplerConfig
from form_lab.training import METHODS, TrainConfig, train


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=0, help="dataset and training seed")
    parser.add_argument("--steps", type=int, default=TrainConfig.steps, help="training steps per model")
    parser.add_argument("--M", type=int, default=SamplerConfig.n_steps, help="sampler steps at evaluation time")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny datasets and short training, for smoke testing the pipeline",
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="omit the previously reported reference losses from the rendered table",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.monotonic()

    outdir: Path = args.outdir
    for sub in ("datasets", "checkpoints", "figures"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)

    if args.quick:
        n_points = {"onedot": 40, "halfmoons": 60, "spiral": 60}
        n_steps, train_steps, batch = 50, 300, 32
    else:
        n_points = {kind: None for kind in KINDS}  # per-kind defaults
        n_steps, train_steps, batch = DatasetSpec.n_steps, args.steps, TrainConfig.batch_size

    cells = []
    for kind in KINDS:
        spec = DatasetSpec(kind=kind, n_points=n_points[kind], n_steps=n_steps, seed=args.seed)
        records = generate(spec)
        write_dataset(outdir / "datasets" / f"{kind}.ndjson", records, spec, DEFAULT_PHYSICS, DEFAULT_UNITS)
        train_records, heldout = holdout_split(records)

        source = np.stack([r.x0 for r in records])
        target = np.stack([r.endpoint for r in records])
        shown = records[:: max(1, len(records) // 12)][:12]
        write_svg(
            outdir / "figures" / f"{kind}-data.svg",
            scatter_svg(source, target, [r.x for r in shown], title=f"{kind} trajectories"),
        )
        print(f"[{kind}] {len(records)} trajectories ({len(train_records)} train / {len(heldout)} held out)")

        for method in METHODS:
            config = TrainConfig(
                method=method, steps=train_steps, batch_size=batch, seed=args.seed
            )
            model = train(train_records, config, dataset_info=spec.to_dict())
            write_checkpoint(outdir / "checkpoints" / f"{kind}-{method}.ndjson", model)

            sampler = SamplerConfig(n_steps=args.M)
            cell = evaluate_model(model, heldout, sampler=sampler, dataset_name=kind)
            cells.append(cell)
            print(f"  {method:>5}: loss {cell.loss:.4f}  (final train loss {model.final_loss:.4g})")

            x0 = np.stack([r.x0 for r in heldout])
            heldout_targets = np.stack([r.endpoint for r in heldout])
            path = sample_model(model, x0, sampler)
            shown_paths = [path.x[:, i, :] for i in range(0, x0.shape[0], max(1, x0.shape[0] // 8))][:8]
            write_svg(
                outdir / "figures" / f"{kind}-{method}.svg",
                scatter_svg(path.endpoint, heldout_targets, shown_paths, title=f"{kind}: {method} samples"),
            )

    metadata = {
        "seed": args.seed,
        "train_steps": train_steps,
        "batch_size": batch,
        "sampler_steps": args.M,
        "dataset_steps": n_steps,
        "quick": bool(args.quick),
    }
    metadata["digest"] = config_digest(metadata)
    report = make_report(cells, metadata=metadata)
    write_report(outdir / "report.json", report)

    table = render_table(report, include_reference=not args.no_reference)
    (outdir / "table.txt").write_text(table + "\n", encoding="utf-8")
    print()
    print(table)
    print(f"\nwrote {outdir}/report.json and {outdir}/table.txt in {time.monotonic() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
