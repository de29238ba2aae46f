"""Relativistic particle dynamics driven by co-moving force schedules.

A :class:`ForceSchedule` prescribes the force a particle feels in its own
co-moving frame: ``f_par(t)`` along the velocity and ``f_perp(t)`` along its
90-degree rotation, both per unit mass (du/s^2).  Trajectories integrate

    dx/dt = v,        dw/dt = f_lab(t, v) / m,

where ``w = gamma v`` is the celerity.  Working in ``(x, w)`` instead of
``(x, v)`` makes the light-speed bound structural: ``|v| < c`` holds at every
Runge-Kutta stage for any force magnitude, so stress-scaled schedules cannot
push a state across the limit mid-step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteError
from .ode import integrate_fixed_grid
from .relativity import (
    DEFAULT_PHYSICS,
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

    def scaled(self, factor: float) -> "ForceSchedule":
        """Same schedule with both components multiplied by ``factor``."""
        return ForceSchedule(
            f_par=lambda t: factor * self.f_par(t),
            f_perp=lambda t: factor * self.f_perp(t),
        )


@dataclass
class TrajectoryRecord:
    """One simulated particle path on a uniform time grid.

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

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def x0(self) -> np.ndarray:
        return self.x[0]

    @property
    def v0(self) -> np.ndarray:
        return self.v[0]

    @property
    def endpoint(self) -> np.ndarray:
        return self.x[-1]


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
) -> list[TrajectoryRecord]:
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

    w0 = celerity_from_velocity(v0, physics)  # also enforces |v0| < c

    def deriv(t: float, y: np.ndarray) -> np.ndarray:
        x, w = y[:, :2], y[:, 2:]
        v = velocity_from_celerity(w, physics)
        f_unit = compose_lab_force(schedule.f_par(t), schedule.f_perp(t), v, handedness)
        return np.concatenate([v, f_unit], axis=1)

    y0 = np.concatenate([x0, w0], axis=1)
    times, states = integrate_fixed_grid(deriv, y0, 0.0, duration, n_steps, method="rk4")
    if not np.all(np.isfinite(states)):
        raise NonFiniteError("trajectory integration produced non-finite states")

    vs = velocity_from_celerity(states[:, :, 2:], physics)
    fp_grid, fq_grid = schedule_on_grid(schedule, times)
    # true force = m * per-unit-mass schedule
    f_par, f_perp = physics.m * fp_grid[:, None], physics.m * fq_grid[:, None]
    return trajectory_records(indices, times, states[:, :, :2], vs, f_par, f_perp, physics, handedness)


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
) -> list[TrajectoryRecord]:
    """Records of N particles from the integrated state on a shared time grid.

    ``x``, ``v`` have shape (K+1, N, 2); ``f_par``, ``f_perp`` broadcast to
    (K+1, N); ``f`` and ``a`` come from :func:`lab_force_and_acceleration`.
    """
    f_par, f_perp = (np.broadcast_to(f, x.shape[:-1]) for f in (f_par, f_perp))
    f_lab, accel = lab_force_and_acceleration(v, f_par, f_perp, physics, handedness)
    if not (np.all(np.isfinite(f_lab)) and np.all(np.isfinite(accel))):
        raise NonFiniteError("lab force or acceleration is non-finite")
    columns = {"x": x, "v": v, "a": accel, "f": f_lab, "f_par": f_par, "f_perp": f_perp}
    return [
        TrajectoryRecord(index=int(index), times=times.copy(), **{k: col[:, j].copy() for k, col in columns.items()})
        for j, index in enumerate(indices)
    ]


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
    (record,) = simulate_batch(
        np.asarray(x0, dtype=np.float64)[None, :],
        np.asarray(v0, dtype=np.float64)[None, :],
        schedule,
        duration=duration,
        n_steps=n_steps,
        physics=physics,
        handedness=handedness,
        indices=np.array([index]),
    )
    return record
