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
threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dynamics import DEFAULT_UNITS, BLOCKS, ForceSchedule, TrajectoryBatch, UnitSystem, simulate_batch
from .errors import DegenerateVelocityError
from .relativity import DEFAULT_PHYSICS, EPS_V, PhysicsConfig

KINDS = ("onedot", "halfmoons", "spiral")

DEFAULT_N_POINTS = {"onedot": 200, "halfmoons": 1000, "spiral": 1000}

# Per-unit-mass force amplitudes, stated in SI (m/s^2) and converted to
# du/s^2 through the unit system (default: divide by 3e7).
ONEDOT_FORCE_SI = 1.5e8
PAR_FORCE_SI = 1.0e7
PERP_FORCE_SI = 7.0e8

HOLDOUT_FRACTION = 0.2

SOURCE_REDRAWS = 10

THREADS_ENV_VAR = "FORM_LAB_THREADS"


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate a dataset deterministically."""

    kind: str
    n_points: int | None = None  # None = dataset default (200 / 1000 / 1000)
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
        if self.n_points is not None and self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.seed < 0:  # SeedSequence takes non-negative seeds only
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("duration", "source_variance", "initial_speed", "core_speed", "ring_speed", "disc_radius",
                     "force_scale"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not -np.inf < self.velocity_scale < np.inf:
            raise ValueError(f"velocity_scale must be finite, got {self.velocity_scale}")
        if self.handedness not in (1, -1):
            raise ValueError(f"handedness must be +1 or -1, got {self.handedness}")

    @property
    def resolved_n_points(self) -> int:
        return self.n_points if self.n_points is not None else DEFAULT_N_POINTS[self.kind]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_points"] = self.resolved_n_points
        return d

    @staticmethod
    def from_dict(d: dict) -> "DatasetSpec":
        fields = {k: d[k] for k in DatasetSpec.__dataclass_fields__ if k in d}
        return DatasetSpec(**fields)


def force_schedule_for(spec: DatasetSpec, units: UnitSystem = DEFAULT_UNITS) -> ForceSchedule:
    """The co-moving force schedule of a dataset, in du/s^2 per unit mass."""
    s = spec.force_scale
    if spec.kind == "onedot":
        amp = s * units.force_from_si(ONEDOT_FORCE_SI)
        return ForceSchedule.constant(amp, amp)
    par = s * units.force_from_si(PAR_FORCE_SI)
    perp = s * units.force_from_si(PERP_FORCE_SI)
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
    """Thread-pool width: explicit arg, else FORM_LAB_THREADS, else cpu count."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"worker count must be >= 1, got {explicit}")
        return explicit
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {env!r}")
        return n
    return os.cpu_count() or 1


def generate(
    spec: DatasetSpec,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    units: UnitSystem = DEFAULT_UNITS,
    max_workers: int | None = None,
) -> TrajectoryBatch:
    """Generate the full dataset as one batch, in index order.

    Work is split across a thread pool in contiguous index chunks, whose
    blocks are concatenated once; chunking never changes the numbers because
    every per-trajectory quantity depends only on its own index.
    """
    n = spec.resolved_n_points
    schedule = force_schedule_for(spec, units)
    workers = min(worker_count(max_workers), n)
    chunks = np.array_split(np.arange(n), max(1, workers))
    chunks = [c for c in chunks if len(c)]

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
        )

    if len(chunks) == 1:
        return run_chunk(chunks[0])
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(run_chunk, chunks))
    return replace(parts[0], **{k: np.concatenate([getattr(p, k) for p in parts]) for k in ("index", *BLOCKS)})


def holdout_split(batch: TrajectoryBatch, fraction: float = HOLDOUT_FRACTION):
    """Split an index-ordered batch into (train, heldout) row slices; heldout = the last ``fraction``.

    Both sides must be nonempty.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")
    n_eval = int(len(batch) * fraction)
    if n_eval < 1 or n_eval >= len(batch):
        raise ValueError(
            f"cannot hold out {n_eval} of {len(batch)} records; need both sides nonempty"
        )
    return batch[:-n_eval], batch[-n_eval:]


def stress_spec(spec: DatasetSpec, factor: float = 100.0) -> DatasetSpec:
    """Copy of a spec with forces scaled up, for speed-limit stress runs."""
    return replace(spec, force_scale=spec.force_scale * factor)
