"""The three toy datasets: onedot, halfmoons, and spiral.

Each dataset is a family of relativistic trajectories.  A source point is
drawn from a simple distribution, given a deterministic initial velocity,
and pushed through :func:`form_lab.dynamics.simulate_batch` under a
dataset-specific co-moving force schedule.  The *target* distribution is the
set of trajectory endpoints at ``t = duration``.  :func:`generate` returns
the dataset as one :class:`~form_lab.dynamics.TrajectoryBatch` in index
order, and :func:`holdout_split` cuts it into two row slices.

Randomness is keyed per trajectory index with ``SeedSequence(seed,
spawn_key=(index,))``, so record ``i`` is bit-identical regardless of how
many points are generated, in which order, or across how many worker
threads.  ``generate`` works in the fixed unit system ``DEFAULT_UNITS``;
only the physics (``c`` and the mass) is a parameter.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dynamics import DEFAULT_UNITS, ForceSchedule, TrajectoryBatch, simulate_batch
from .errors import DegenerateVelocityError
from .relativity import DEFAULT_PHYSICS, EPS_V, PhysicsConfig

KINDS = ("onedot", "halfmoons", "spiral")

DEFAULT_N_POINTS = {"onedot": 200, "halfmoons": 1000, "spiral": 1000}

# Per-unit-mass force amplitudes, stated in SI (m/s^2) and converted to
# du/s^2 through DEFAULT_UNITS (divide by 3e7).
ONEDOT_FORCE_SI = 1.5e8
PAR_FORCE_SI = 1.0e7
PERP_FORCE_SI = 7.0e8

HOLDOUT_FRACTION = 0.2

SOURCE_REDRAWS = 10

# Points a chunk needs before a worker thread of its own pays: on a 2-CPU host,
# spiral at 2 workers took 1.34x as long as at 1 for 1 000 points, 1.17x for
# 4 000, 0.96x for 8 000 and 0.76x for 20 000.
POINTS_PER_WORKER = 4096


def _is_finite(value) -> bool:
    """Whether ``value`` is a finite float, or an int that converts to one (10**400 does not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_int(name: str, value) -> None:
    """Refuse a ``value`` that is not an integer, a bool included: 10.0 is not a step count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate a dataset deterministically."""

    kind: str
    n_points: int | None = None  # None = DEFAULT_N_POINTS[kind], resolved on construction
    n_steps: int = 200
    duration: float = 1.0
    seed: int = 0
    source_variance: float = 0.3  # Gaussian source variance (onedot, halfmoons)
    velocity_scale: float = 4.0  # onedot: v0 = velocity_scale * x0  (1/s)
    initial_speed: float = 4.0  # halfmoons |v0|  (du/s)
    core_speed: float = 2.0  # spiral inner-half base speed (du/s)
    ring_speed: float = 6.0  # spiral outer-half base speed (du/s)
    disc_radius: float = 1.0  # spiral source disc radius (du)
    force_scale: float = 1.0  # multiplier on both force components
    handedness: int = 1  # +1: f_perp along 90deg CCW of v; -1: CW

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; expected one of {KINDS}")
        if self.n_points is None:
            object.__setattr__(self, "n_points", DEFAULT_N_POINTS[self.kind])
        for name in ("n_points", "n_steps", "seed", "handedness"):
            require_int(name, getattr(self, name))
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.seed < 0:  # SeedSequence takes non-negative seeds only
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("duration", "source_variance", "initial_speed", "core_speed", "ring_speed", "disc_radius",
                     "force_scale"):
            if not (_is_finite(getattr(self, name)) and getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not _is_finite(self.velocity_scale):
            raise ValueError(f"velocity_scale must be finite, got {self.velocity_scale}")
        if self.handedness not in (1, -1):
            raise ValueError(f"handedness must be +1 or -1, got {self.handedness}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "DatasetSpec":
        fields = {k: d[k] for k in DatasetSpec.__dataclass_fields__ if k in d}
        return DatasetSpec(**fields)


def force_schedule_for(spec: DatasetSpec) -> ForceSchedule:
    """The co-moving force schedule of a dataset, in du/s^2 per unit mass."""
    s = spec.force_scale
    if spec.kind == "onedot":
        amp = s * DEFAULT_UNITS.force_from_si(ONEDOT_FORCE_SI)
        return ForceSchedule.constant(amp, amp)
    par = s * DEFAULT_UNITS.force_from_si(PAR_FORCE_SI)
    perp = s * DEFAULT_UNITS.force_from_si(PERP_FORCE_SI)
    if spec.kind == "halfmoons":
        return ForceSchedule.sinusoidal(par, 1.0, perp, 8.0)
    return ForceSchedule.sinusoidal(par, 1.0, perp, 1.0)  # spiral


def source_points(spec: DatasetSpec, indices, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """Draw the source point for each trajectory index; shape (len(indices), 2).

    An onedot point whose ``v0 = velocity_scale * x0`` would reach ``c`` is
    redrawn from its own stream, at most ``SOURCE_REDRAWS`` times: points
    valid at the first draw are unchanged, and a scale that leaves almost no
    valid source region still fails the simulator's speed check.
    """
    out = np.empty((len(indices), 2), dtype=np.float64)
    std = float(np.sqrt(spec.source_variance))
    for row, index in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(int(index),)))
        if spec.kind == "spiral":
            u, ang = rng.random(2)
            r = spec.disc_radius * np.sqrt(u)  # uniform over the disc
            theta = 2.0 * np.pi * ang
            out[row] = r * np.array([np.cos(theta), np.sin(theta)])
        else:
            out[row] = rng.normal(0.0, std, size=2)
        if spec.kind == "onedot":  # redraw while v0 = velocity_scale * x0 fails lorentz_factor's |v0|^2 < c^2
            for _ in range(SOURCE_REDRAWS):
                if np.sum((spec.velocity_scale * out[row]) ** 2) < physics.c**2:
                    break
                out[row] = rng.normal(0.0, std, size=2)
    return out


def initial_velocity(spec: DatasetSpec, x0) -> np.ndarray:
    """Deterministic initial velocity for source points; broadcasts over (N, 2).

    onedot:     v0 = velocity_scale * x0 (radially outward).
    halfmoons:  horizontal, speed ``initial_speed``: -x above the axis and
                +x below.  The perpendicular wiggle then steers each stream
                across the axis into the other, so the two half-clouds pass
                through each other and the velocity field is genuinely
                multi-valued in (x, t) - the regime that separates force
                matching from first-order flows.
    spiral:     counter-clockwise tangent, base speed core/ring by radius,
                ramped by angle: |v0| = base * (1 + theta / 2pi) / 2.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    single = x0.ndim == 1
    pts = np.atleast_2d(x0)
    if spec.kind == "onedot":
        v = spec.velocity_scale * pts
    elif spec.kind == "halfmoons":
        direction = np.where(pts[:, 1] >= 0.0, -1.0, 1.0)
        v = np.stack([direction * spec.initial_speed, np.zeros(len(pts))], axis=-1)
    else:  # spiral
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        if np.any(r <= EPS_V):
            raise DegenerateVelocityError("spiral initial velocity undefined at the disc center")
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        base = np.where(r >= 0.5 * spec.disc_radius, spec.ring_speed, spec.core_speed)
        speed = base * (1.0 + theta / (2.0 * np.pi)) / 2.0
        tangent = np.stack([-pts[:, 1], pts[:, 0]], axis=-1) / r[:, None]
        v = speed[:, None] * tangent
    return v[0] if single else v


def worker_count(explicit: int | None = None) -> int:
    """Most worker threads ``generate`` may use: the explicit count, else the usable CPUs.

    A maximum: ``generate`` starts one worker per ``POINTS_PER_WORKER`` points, up to this count.
    The usable CPUs are the affinity mask's, so ``taskset`` caps the default.
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"worker count must be >= 1, got {explicit}")
        return explicit
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def generate(
    spec: DatasetSpec,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    max_workers: int | None = None,
) -> TrajectoryBatch:
    """Generate the full dataset as one batch, in index order.

    ``max_workers`` (see :func:`worker_count`) is an upper bound: the work is
    split into one contiguous index chunk per ``POINTS_PER_WORKER`` points, at
    most that many, and at least one.  A single chunk runs in the calling
    thread; several run on a thread pool.  Either way each chunk integrates
    into its rows of one ``(2, N, K+1, 2)`` block, the batch's ``x`` and
    ``v``.  Chunking never changes the numbers because every per-trajectory
    quantity depends only on its own index.
    """
    n = spec.n_points
    schedule = force_schedule_for(spec)
    workers = max(1, min(worker_count(max_workers), n // POINTS_PER_WORKER))

    xv = np.empty((2, n, spec.n_steps + 1, 2))  # each chunk integrates into its own rows of one x/v block

    def run_chunk(indices: np.ndarray) -> TrajectoryBatch:
        x0 = source_points(spec, indices, physics)
        v0 = initial_velocity(spec, x0)
        return simulate_batch(
            x0,
            v0,
            schedule,
            duration=spec.duration,
            n_steps=spec.n_steps,
            physics=physics,
            handedness=spec.handedness,
            indices=indices,
            out=xv[:, indices[0] : indices[-1] + 1],
        )

    if workers == 1:
        return run_chunk(np.arange(n))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        first = list(pool.map(run_chunk, np.array_split(np.arange(n), workers)))[0]
    return replace(first, index=np.arange(n), x=xv[0], v=xv[1])


def holdout_split(batch: TrajectoryBatch, fraction: float = HOLDOUT_FRACTION):
    """Split an index-ordered batch into (train, heldout) row slices; heldout = the last ``fraction``.

    A fraction of 0 holds out nothing (train on all); any other must leave both sides nonempty.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"holdout fraction must be in [0, 1), got {fraction}")
    n_eval = int(len(batch) * fraction)
    if fraction and (n_eval < 1 or n_eval >= len(batch)):
        raise ValueError(
            f"cannot hold out {n_eval} of {len(batch)} records; need both sides nonempty"
        )
    return batch[: len(batch) - n_eval], batch[len(batch) - n_eval :]


def stress_spec(spec: DatasetSpec, factor: float = 100.0) -> DatasetSpec:
    """Copy of a spec with forces scaled up, for speed-limit stress runs."""
    return replace(spec, force_scale=spec.force_scale * factor)
