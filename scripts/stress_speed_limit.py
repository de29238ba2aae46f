#!/usr/bin/env python3
"""Speed-limit stress report: how close to c do extreme configurations get?

Three families of stress runs, each printing its worst observed |v| / c:

  1. simulator: every dataset kind re-simulated with its forces scaled up
     (default 100x) on the default grid;
  2. force sampler: the same scaled schedules driven through the sampling
     integrator at several resolutions (coarse grids are the hard case);
  3. random heads: untrained force networks with outputs scaled 100x.
     Braking a trajectory through zero celerity is a hard error by design,
     so those runs are reported as "braked" rather than as speeds.

Every printed ratio must be < 1; the integrators enforce the bound
structurally (celerity coordinates) rather than by clipping.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from form_lab.datasets import (
    KINDS,
    DatasetSpec,
    force_schedule_for,
    generate,
    initial_velocity,
    source_points,
    stress_spec,
)
from form_lab.errors import DegenerateVelocityError
from form_lab.neural import MlpParams, mlp_init
from form_lab.relativity import DEFAULT_PHYSICS, speed
from form_lab.sampling import SamplerConfig, force_path, sample_form
from form_lab.training import TrainConfig, TrainedModel


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factor", type=float, default=100.0, help="force scale factor")
    parser.add_argument("--points", type=int, default=48, help="trajectories per stress run")
    parser.add_argument("--seeds", type=int, default=6, help="random force heads to try")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    c = DEFAULT_PHYSICS.c
    resolutions = (10, 100, 1000)
    worst = 0.0

    print(f"== simulator, forces x{args.factor:g} ==")
    stressed = {}
    for kind in KINDS:
        sspec = stress_spec(DatasetSpec(kind=kind, n_points=args.points), factor=args.factor)
        stressed[kind] = sspec
        m = max(float(np.max(speed(r.v))) for r in generate(sspec))
        worst = max(worst, m / c)
        print(f"  {kind:<10} max |v|/c = {m / c:.8f}")

    print(f"\n== force sampler, forces x{args.factor:g} ==")
    for kind in KINDS:
        sspec = stressed[kind]
        schedule = force_schedule_for(sspec)
        x0 = source_points(sspec, list(range(min(16, args.points))))
        v0 = initial_velocity(sspec, x0)

        def components(x, t, schedule=schedule):
            return schedule.f_par(t), schedule.f_perp(t)

        ratios = []
        for n_steps in resolutions:
            path = force_path(components, x0, v0, sspec.duration, n_steps, handedness=sspec.handedness)
            ratios.append(float(np.max(speed(path.v))) / c)
        worst = max(worst, *ratios)
        cols = "  ".join(f"M={m}: {r:.8f}" for m, r in zip(resolutions, ratios))
        print(f"  {kind:<10} max |v|/c  {cols}")

    print(f"\n== random force heads, outputs x{args.factor:g} ==")
    onedot = DatasetSpec(kind="onedot", n_points=min(16, args.points))
    x0 = source_points(onedot, list(range(onedot.n_points)))
    completed = braked = 0
    random_max = 0.0
    for seed in range(args.seeds):
        head = mlp_init((1, 64, 64, 2), seed=seed)
        weights = list(head.weights)
        weights[-1] = weights[-1] * args.factor
        model = TrainedModel(
            method="form",
            heads={"F": MlpParams(head.layer_dims, tuple(weights), head.biases)},
            duration=1.0,
            physics=DEFAULT_PHYSICS,
            train_config=TrainConfig(method="form"),
            dataset_info=onedot.to_dict(),
        )
        for n_steps in resolutions:
            try:
                path = sample_form(model, x0, SamplerConfig(n_steps=n_steps))
            except DegenerateVelocityError:
                braked += 1
                continue
            completed += 1
            random_max = max(random_max, float(np.max(speed(path.v))) / c)
    worst = max(worst, random_max)
    print(f"  {completed} runs completed (max |v|/c = {random_max:.8f}), {braked} braked to rest")

    print(f"\nworst observed |v|/c = {worst:.8f}")
    if worst >= 1.0:
        print("SPEED LIMIT VIOLATED")
        return 1
    print("speed limit held in every run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
