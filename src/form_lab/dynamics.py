"""Relativistic particle dynamics driven by co-moving force schedules.

A :class:`ForceSchedule` prescribes the force a particle feels in its own
co-moving frame: ``f_par(t)`` along the velocity and ``f_perp(t)`` along its
90-degree rotation, both per unit mass (du/s^2).  Trajectories integrate

    dx/dt = v,        dw/dt = f_lab(t, v) / m,

where ``w = gamma v`` is the celerity.  Working in ``(x, w)`` instead of
``(x, v)`` makes the light-speed bound structural: ``|v| < c`` holds at every
Runge-Kutta stage for any force magnitude, so stress-scaled schedules cannot
push a state across the limit mid-step.

Each stage derivative is computed on the state's columns and written into
one ``(N, 4)`` array: ``v = w / sqrt(1 + (w_x^2 + w_y^2) / c^2)`` and
``f_lab = f_par vhat + f_perp rotate90(vhat)`` with the schedule's two
components as scalars.  These are the operations of
:func:`~form_lab.relativity.velocity_from_celerity` and
:func:`~form_lab.relativity.compose_lab_force` in the same order, so the
results are bit-identical to theirs.  A stage in which some point's speed is
``<= EPS_V`` goes through ``compose_lab_force`` itself, which lets a zero
force act on a resting point and raises ``DegenerateVelocityError`` for a
nonzero one.

A simulation comes back as one :class:`TrajectoryBatch`, the in-memory form
of a dataset everywhere: ``(N, K+1, 2)`` blocks, with the time grid and the
schedule stored once.  :func:`stack_records` builds one from hand-made records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonFiniteError
from .ode import integrate_fixed_grid
from .relativity import (
    DEFAULT_PHYSICS,
    EPS_V,
    PhysicsConfig,
    acceleration_from_force,
    celerity_from_velocity,
    compose_lab_force,
    velocity_from_celerity,
)

# The conventional speed of light used to define the working units.
LIGHT_SPEED_M_PER_S = 3.0e8


@dataclass(frozen=True)
class UnitSystem:
    """Distance unit for the lab: 1 du = ``meters_per_du`` meters.

    The default (3e7 m = 0.1 light-seconds) puts the speed of light at a
    round 10 du/s, which keeps dataset coordinates and speeds at O(1..10).
    """

    meters_per_du: float = 3.0e7

    def __post_init__(self) -> None:
        if not (self.meters_per_du > 0.0 and np.isfinite(self.meters_per_du)):
            raise ValueError(f"meters_per_du must be positive and finite, got {self.meters_per_du}")

    @property
    def c(self) -> float:
        """Speed of light in du/s."""
        return LIGHT_SPEED_M_PER_S / self.meters_per_du

    def force_from_si(self, f_m_per_s2: float) -> float:
        """Convert a per-unit-mass force from m/s^2 to du/s^2."""
        return f_m_per_s2 / self.meters_per_du


DEFAULT_UNITS = UnitSystem()


@dataclass(frozen=True)
class ForceSchedule:
    """Time-dependent co-moving force, per unit mass (du/s^2)."""

    f_par: Callable[[float], float]
    f_perp: Callable[[float], float]

    @staticmethod
    def constant(f_par: float, f_perp: float) -> "ForceSchedule":
        return ForceSchedule(f_par=lambda t: f_par, f_perp=lambda t: f_perp)

    @staticmethod
    def sinusoidal(amp_par: float, freq_par: float, amp_perp: float, freq_perp: float) -> "ForceSchedule":
        """f_par = amp_par sin(freq_par t), f_perp = amp_perp sin(freq_perp t)."""
        return ForceSchedule(
            f_par=lambda t: amp_par * np.sin(freq_par * t),
            f_perp=lambda t: amp_perp * np.sin(freq_perp * t),
        )


class _Paths:
    """What a record (arrays ``(K+1, ...)``) and a batch (``(N, K+1, ...)``) derive alike from their fields."""

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def x0(self) -> np.ndarray:
        return self.x[..., 0, :]

    @property
    def v0(self) -> np.ndarray:
        return self.v[..., 0, :]

    @property
    def endpoint(self) -> np.ndarray:
        return self.x[..., -1, :]


@dataclass
class TrajectoryRecord(_Paths):
    """One simulated particle path on a uniform time grid; ``batch[i]`` is row ``i`` of a batch.

    ``f`` is the lab-frame force (true force, i.e. mass times the
    per-unit-mass schedule), ``f_par``/``f_perp`` its co-moving components,
    ``a`` the lab-frame acceleration consistent with ``f`` at each step.
    """

    index: int
    times: np.ndarray  # (K+1,)
    x: np.ndarray  # (K+1, 2)
    v: np.ndarray  # (K+1, 2)
    a: np.ndarray  # (K+1, 2)
    f: np.ndarray  # (K+1, 2)
    f_par: np.ndarray  # (K+1,)
    f_perp: np.ndarray  # (K+1,)


BLOCKS = ("x", "v", "a", "f")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch(_Paths):
    """N paths on one time grid under one co-moving force schedule: the in-memory dataset.

    The fields are :class:`TrajectoryRecord`'s, with ``x``, ``v``, ``a``, ``f``
    as ``(N, K+1, 2)`` blocks; ``times``, ``f_par`` and ``f_perp`` are read-only.
    As a read-only sequence, ``batch[i]`` is row ``i`` as a record of views and
    ``batch[a:b:k]`` a batch of row views.  ``generate``, ``read_dataset`` and
    :func:`stack_records` give batches in index order.
    """

    index: np.ndarray  # (N,)
    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    f: np.ndarray
    f_par: np.ndarray
    f_perp: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return replace(self, index=self.index[key], **{k: getattr(self, k)[key] for k in BLOCKS})
        return TrajectoryRecord(
            int(self.index[key]), self.times, self.x[key], self.v[key], self.a[key], self.f[key], self.f_par, self.f_perp
        )


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def stack_records(records) -> TrajectoryBatch:
    """The batch of a list of records, sorted by index; a batch comes back as it is, not copied.

    Refuses an empty list, and records on another grid or schedule than the first one's.
    """
    if isinstance(records, TrajectoryBatch):
        return records
    if not records:
        raise ValueError("cannot stack an empty record list")
    records = sorted(records, key=lambda r: r.index)
    first = records[0]
    for names, what in ((("times",), "are on another time grid"), (("f_par", "f_perp"), "have a force schedule other")):
        bad = [r.index for r in records if not all(np.array_equal(getattr(r, k), getattr(first, k)) for k in names)]
        if bad:
            raise ValueError(f"records {bad[:5]} {what} than record {first.index}'s")
    blocks = (np.stack([getattr(r, k) for r in records]) for k in BLOCKS)
    index = np.array([r.index for r in records])
    return TrajectoryBatch(index, _read_only(first.times), *blocks, _read_only(first.f_par), _read_only(first.f_perp))


def schedule_on_grid(schedule: ForceSchedule, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (f_par, f_perp) at each grid time; shapes (K+1,)."""
    f_par = np.array([float(schedule.f_par(float(t))) for t in times], dtype=np.float64)
    f_perp = np.array([float(schedule.f_perp(float(t))) for t in times], dtype=np.float64)
    return f_par, f_perp


def simulate_batch(
    x0: np.ndarray,
    v0: np.ndarray,
    schedule: ForceSchedule,
    duration: float = 1.0,
    n_steps: int = 200,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    handedness: int = 1,
    indices: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Simulate many particles under one schedule with classical RK4.

    All per-particle arithmetic is elementwise, so the result for particle i
    is bit-identical no matter how the batch is chunked.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    v0 = np.atleast_2d(np.asarray(v0, dtype=np.float64))
    if x0.shape != v0.shape or x0.shape[-1] != 2:
        raise ValueError(f"x0/v0 must both be (N, 2), got {x0.shape} and {v0.shape}")
    n = x0.shape[0]
    if indices is None:
        indices = np.arange(n)
    if len(indices) != n:
        raise ValueError(f"got {len(indices)} indices for {n} particles")
    if handedness not in (1, -1):
        raise ValueError(f"handedness must be +1 or -1, got {handedness!r}")

    w0 = celerity_from_velocity(v0, physics)  # also enforces |v0| < c
    c2 = physics.c**2

    def deriv(t: float, y: np.ndarray) -> np.ndarray:
        # velocity_from_celerity and compose_lab_force written out on the
        # columns, op for op, so every stage has their bits; a sum of squares
        # is never -0.0, so _dot's trailing + 0.0 changes nothing here
        w = y[:, 2:]
        if not np.isfinite(w).all():
            raise NonFiniteError("celerity must be finite")
        w_x, w_y = w[:, 0], w[:, 1]
        dy = np.empty(y.shape)
        v_x, v_y = dy[:, 0], dy[:, 1]
        gamma = np.sqrt(1.0 + (w_x * w_x + w_y * w_y) / c2)
        np.divide(w_x, gamma, out=v_x)
        np.divide(w_y, gamma, out=v_y)
        f_par, f_perp = float(schedule.f_par(t)), float(schedule.f_perp(t))
        s = np.sqrt(v_x * v_x + v_y * v_y)
        if (s <= EPS_V).any():  # a resting point: only a zero force may act on it
            dy[:, 2:] = compose_lab_force(f_par, f_perp, dy[:, :2], handedness)
            return dy
        vhat_x, vhat_y = v_x / s, v_y / s
        # f_perp along rotate90(vhat) = handedness * (-vhat_y, vhat_x)
        f_rot = handedness * f_perp
        np.subtract(f_par * vhat_x, f_rot * vhat_y, out=dy[:, 2])
        np.add(f_par * vhat_y, f_rot * vhat_x, out=dy[:, 3])
        return dy

    y0 = np.concatenate([x0, w0], axis=1)
    times, states = integrate_fixed_grid(deriv, y0, 0.0, duration, n_steps, method="rk4")
    if not np.all(np.isfinite(states)):
        raise NonFiniteError("trajectory integration produced non-finite states")

    vs = velocity_from_celerity(states[:, :, 2:], physics)
    fp_grid, fq_grid = schedule_on_grid(schedule, times)
    # true force = m * per-unit-mass schedule
    return trajectory_records(
        indices, times, states[:, :, :2], vs, physics.m * fp_grid, physics.m * fq_grid, physics, handedness
    )


def lab_force_and_acceleration(v, f_par, f_perp, physics: PhysicsConfig, handedness: int) -> tuple[np.ndarray, np.ndarray]:
    """The lab force ``f`` (the co-moving pair composed along ``v``) and the
    acceleration ``a`` (the force law) that a record carries.

    The simulator, the dataset reader and the dataset writer's check all
    derive them here, so records read back are bit-identical.
    """
    f_lab = compose_lab_force(f_par, f_perp, v, handedness)
    return f_lab, acceleration_from_force(v, f_lab, physics)


def trajectory_records(
    indices, times: np.ndarray, x: np.ndarray, v: np.ndarray, f_par, f_perp, physics: PhysicsConfig, handedness: int
) -> TrajectoryBatch:
    """The batch of N particles from the integrated state on a shared time grid.

    ``x``, ``v`` are (K+1, N, 2) and the schedule ``f_par``, ``f_perp`` (K+1,);
    ``f`` and ``a`` come from :func:`lab_force_and_acceleration`.  Each block
    is laid out once, contiguous; ``times`` and the schedule are read-only copies.
    """
    f_lab, accel = lab_force_and_acceleration(v, f_par[:, None], f_perp[:, None], physics, handedness)
    if not (np.all(np.isfinite(f_lab)) and np.all(np.isfinite(accel))):
        raise NonFiniteError("lab force or acceleration is non-finite")
    blocks = (np.ascontiguousarray(col.swapaxes(0, 1)) for col in (x, v, accel, f_lab))
    return TrajectoryBatch(np.array(indices), _read_only(times), *blocks, _read_only(f_par), _read_only(f_perp))


def simulate_trajectory(
    x0,
    v0,
    schedule: ForceSchedule,
    duration: float = 1.0,
    n_steps: int = 200,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    handedness: int = 1,
    index: int = 0,
) -> TrajectoryRecord:
    """Single-particle convenience wrapper around :func:`simulate_batch`."""
    x0, v0 = np.atleast_2d(x0), np.atleast_2d(v0)
    return simulate_batch(x0, v0, schedule, duration, n_steps, physics, handedness, [index])[0]
