"""Relativistic particle dynamics driven by co-moving force schedules.

A :class:`ForceSchedule` prescribes the force a particle feels in its own
co-moving frame: ``f_par(t)`` along the velocity and ``f_perp(t)`` along its
90-degree rotation, both per unit mass (du/s^2).  Trajectories integrate

    dx/dt = v,        dw/dt = f_lab(t, v) / m,

where ``w = gamma v`` is the celerity.  Working in ``(x, w)`` instead of
``(x, v)`` makes the light-speed bound structural: ``|v| < c`` holds at every
Runge-Kutta stage for any force magnitude, so stress-scaled schedules cannot
push a state across the limit mid-step.

The state is component-major, ``(2, 2, N)``: the position rows ``x, y``,
then the celerity rows ``w_x, w_y``.  Each stage derivative is computed on
contiguous rows by :func:`~form_lab.relativity.velocity_rows` and
:func:`~form_lab.relativity.lab_force_rows`, with the schedule's two
components as scalars, and written into one ``(2, 2, N)`` array.

A simulation comes back as one :class:`TrajectoryBatch`, the in-memory form
of a dataset everywhere.  It holds what the simulator integrates, the
``(N, K+1, 2)`` ``x`` and ``v`` blocks, with the time grid, the schedule,
the physics and the handedness stored once.  Batches come only from the
simulator, the dataset reader and slicing, so each one carries the physics
and handedness it was made at.  :func:`simulate_batch` integrates each step's state
straight into one ``(2, N, K+1, 2)`` array, its own or the caller's
(``out``), whose halves become the batch's ``x`` and, converted from
celerity in place, its ``v``.

The lab force ``f`` and acceleration ``a`` follow from ``v``, the schedule
and the physics, so a batch derives both blocks on the first read of either
and keeps them.  A record, ``batch[i]``, derives nothing when it is built
or iterated: its ``a`` and ``f`` are row ``i`` of the batch's
blocks, read when they are read.  :func:`lab_force_and_acceleration` does
the derivation, running :func:`force_and_acceleration_rows` (that is,
:func:`~form_lab.relativity.lab_force_rows` and
:func:`~form_lab.relativity.acceleration_rows`) on the component rows of
``REBUILD_BLOCK`` trajectories at a time; o1o2 training runs it on the rows
it gathers.  :func:`first_underivable` runs it
the same way, keeping nothing, so that the dataset reader refuses
trajectories that cannot give ``f`` and ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateVelocityError, NonFiniteError, ShapeError, SpeedLimitError
from .ode import integrate_fixed_grid
from .relativity import (
    DEFAULT_PHYSICS,
    PhysicsConfig,
    acceleration_rows,
    celerity_from_velocity,
    lab_force_rows,
    velocity_rows,
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
    """One simulated particle path on a uniform time grid: row ``row`` of ``batch``, as ``batch[row]`` gives it.

    ``f`` is the lab-frame force (true force, i.e. mass times the
    per-unit-mass schedule), ``f_par``/``f_perp`` its co-moving components,
    ``a`` the lab-frame acceleration consistent with ``f`` at each step.
    ``a`` and ``f`` are read from the batch's derived blocks when they are
    read, so a record that is only built or iterated derives nothing.
    """

    index: int
    times: np.ndarray  # (K+1,)
    x: np.ndarray  # (K+1, 2)
    v: np.ndarray  # (K+1, 2)
    f_par: np.ndarray  # (K+1,)
    f_perp: np.ndarray  # (K+1,)
    batch: TrajectoryBatch = field(repr=False)
    row: int = field(repr=False)

    a = property(lambda self: self.batch.a[self.row])  # (K+1, 2)
    f = property(lambda self: self.batch.f[self.row])  # (K+1, 2)


BLOCKS = ("x", "v")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch(_Paths):
    """N paths on one time grid under one co-moving force schedule: the in-memory dataset.

    The fields are :class:`TrajectoryRecord`'s but ``batch`` and ``row``, with ``x`` and
    ``v`` as ``(N, K+1, 2)`` blocks, plus the ``physics`` and ``handedness`` the
    paths were simulated at; ``times``, ``f_par`` and ``f_perp`` are read-only.
    ``f`` and ``a`` are derived (see the module docstring).  As a read-only
    sequence, ``batch[i]`` is row ``i`` as a record of views and ``batch[a:b:k]``
    a batch of row views.  ``generate`` and ``read_dataset`` give batches in index order.
    """

    index: np.ndarray  # (N,)
    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    f_par: np.ndarray
    f_perp: np.ndarray
    physics: PhysicsConfig
    handedness: int

    def __post_init__(self) -> None:
        for k in ("times", "f_par", "f_perp"):
            object.__setattr__(self, k, _read_only(getattr(self, k)))

    @cached_property
    def _f_and_a(self) -> tuple[np.ndarray, np.ndarray]:
        return lab_force_and_acceleration(self.v, self.f_par, self.f_perp, self.physics, self.handedness)

    f = property(lambda self: self._f_and_a[0])
    a = property(lambda self: self._f_and_a[1])

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return replace(self, index=self.index[key], **{k: getattr(self, k)[key] for k in BLOCKS})
        return TrajectoryRecord(
            int(self.index[key]), self.times, self.x[key], self.v[key], self.f_par, self.f_perp, self, key
        )


def _read_only(a) -> np.ndarray:
    """``a`` if it is a read-only float64 array already, such as a slice's grid, else a read-only copy."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        return a
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


# trajectories per block of the velocity and f/a derivations: their temporaries stay a few MB and in cache
REBUILD_BLOCK = 128


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
    out: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Simulate many particles under one schedule with classical RK4.

    All per-particle arithmetic is elementwise, so the result for particle i
    is bit-identical no matter how the batch is chunked.  ``out``, if given,
    is the ``(2, N, K+1, 2)`` float64 array or view, with any strides, whose
    halves become the batch's ``x`` and ``v``.
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

    def deriv(t: float, y: np.ndarray) -> np.ndarray:
        dy = np.empty(y.shape)
        velocity_rows(y[1], physics, dy[0])
        lab_force_rows(float(schedule.f_par(t)), float(schedule.f_perp(t)), dy[0], handedness, dy[1])
        return dy

    # the integrator writes each step's (2, 2, N) state straight into the x and w blocks, seen as (K+1, 2, 2, N);
    # the first is written here, so no initial state is held beside them
    xw = np.empty((2, n, n_steps + 1, 2)) if out is None else out
    states = xw.transpose(2, 0, 3, 1)
    states[0] = x0.T, celerity_from_velocity(v0, physics).T  # the celerity also enforces |v0| < c
    times, _ = integrate_fixed_grid(deriv, states[0], 0.0, duration, n_steps, method="rk4", out=states)
    if not np.isfinite(xw).all():
        raise NonFiniteError("trajectory integration produced non-finite states")
    x, v = xw
    for start in range(0, n, REBUILD_BLOCK):  # the celerity block becomes the velocity block
        w_rows = np.moveaxis(v[start : start + REBUILD_BLOCK], 2, 0)
        velocity_rows(w_rows, physics, w_rows)
    f_par, f_perp = (physics.m * f for f in schedule_on_grid(schedule, times))  # true force = m * unit-mass force
    return TrajectoryBatch(np.array(indices), times, x, v, f_par, f_perp, physics, handedness)


def lab_force_and_acceleration(v, f_par, f_perp, physics: PhysicsConfig, handedness: int) -> tuple[np.ndarray, np.ndarray]:
    """The lab force ``f`` (the co-moving pair composed along ``v``) and the
    acceleration ``a`` (the force law) that a batch derives, as new ``(N, K+1, 2)`` blocks.

    ``v`` is ``(N, K+1, 2)`` with any strides, and the schedule ``f_par``,
    ``f_perp`` is ``(K+1,)``.  Each row's bits depend on that row alone, so
    a slice derives what the whole batch holds there.  Raises
    ``DegenerateVelocityError`` for a nonzero force on a resting point,
    ``SpeedLimitError`` for a speed at or above ``c`` and ``NonFiniteError``
    if ``f`` or ``a`` overflows.
    """
    v = np.asarray(v, dtype=np.float64)
    f_par, f_perp = np.asarray(f_par, dtype=np.float64), np.asarray(f_perp, dtype=np.float64)
    if v.ndim != 3 or v.shape[2] != 2 or f_par.shape != v.shape[1:2] or f_perp.shape != v.shape[1:2]:
        raise ShapeError(f"expected v (N, K+1, 2) and a (K+1,) schedule, got {v.shape}, {f_par.shape}, {f_perp.shape}")
    f, a = np.empty(v.shape), np.empty(v.shape)
    for start in range(0, len(v), REBUILD_BLOCK):
        rows = slice(start, start + REBUILD_BLOCK)
        force_and_acceleration_rows(*(np.moveaxis(block[rows], 2, 0) for block in (v, f, a)), f_par, f_perp, physics,
                                    handedness)
    return f, a


def force_and_acceleration_rows(v, f, a, f_par, f_perp, physics: PhysicsConfig, handedness: int) -> None:
    """The lab force and acceleration of the component rows ``v`` (``(2, ...)``, any strides), written into
    ``f`` and ``a``; ``f_par`` and ``f_perp`` broadcast to ``v[0]``.  Raises as :func:`lab_force_and_acceleration`."""
    s2 = lab_force_rows(f_par, f_perp, v, handedness, f)
    acceleration_rows(v, f, s2, physics, a)
    if not (np.isfinite(f).all() and np.isfinite(a).all()):
        raise NonFiniteError("lab force or acceleration is non-finite")


# what lab_force_and_acceleration raises for a v that cannot give f and a
UNDERIVABLE = (OverflowError, SpeedLimitError, DegenerateVelocityError, NonFiniteError)


def first_underivable(batch: TrajectoryBatch) -> tuple[int, Exception] | None:
    """The first row whose ``v`` cannot give ``f`` and ``a``, with the derivation's error; None if every row can.

    Derives ``REBUILD_BLOCK`` rows at a time and keeps nothing; only a block that fails is derived again, row by row.
    """
    def derive(rows: slice) -> None:
        lab_force_and_acceleration(batch.v[rows], batch.f_par, batch.f_perp, batch.physics, batch.handedness)

    for start in range(0, len(batch), REBUILD_BLOCK):
        try:
            derive(slice(start, start + REBUILD_BLOCK))
        except UNDERIVABLE:
            for row in range(start, min(start + REBUILD_BLOCK, len(batch))):
                try:
                    derive(slice(row, row + 1))
                except UNDERIVABLE as e:
                    return row, e
    return None


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
