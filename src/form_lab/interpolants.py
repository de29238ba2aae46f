"""Stochastic-interpolant schedules and the forces they induce.

A schedule blends a source point ``x0`` into a data point ``x1`` along
``x_t = alpha(t) x1 + sigma(t) x0`` with boundary conditions
``alpha(0) = 0, sigma(0) = 1`` and ``alpha(T) = 1, sigma(T) = 0``.

The trigonometric schedule (alpha = sin, sigma = cos, T = pi/2) keeps
``|x_dot| = |x|``-scale speeds bounded and admits a closed-form lab-frame
force, implemented here independently of :mod:`form_lab.relativity` so the
two routes can be cross-checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpeedLimitError
from .relativity import DEFAULT_PHYSICS, PhysicsConfig


@dataclass(frozen=True)
class Schedule:
    """Interpolation weights alpha/sigma with two derivatives each."""

    alpha: Callable[[float], float]
    sigma: Callable[[float], float]
    alpha_dot: Callable[[float], float]
    sigma_dot: Callable[[float], float]
    alpha_ddot: Callable[[float], float]
    sigma_ddot: Callable[[float], float]
    duration: float


def trigflow_schedule() -> Schedule:
    """alpha = sin t, sigma = cos t on [0, pi/2]."""
    return Schedule(
        alpha=math.sin,
        sigma=math.cos,
        alpha_dot=math.cos,
        sigma_dot=lambda t: -math.sin(t),
        alpha_ddot=lambda t: -math.sin(t),
        sigma_ddot=lambda t: -math.cos(t),
        duration=math.pi / 2.0,
    )


def _check_time(t: float, schedule: Schedule) -> None:
    if not (0.0 <= t <= schedule.duration):
        raise ValueError(f"time {t!r} outside schedule range [0, {schedule.duration!r}]")


def interpolate(x0, x1, t: float, schedule: Schedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (x_t, x_dot_t, x_ddot_t) of the interpolant at time t."""
    _check_time(t, schedule)
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    x_t = schedule.alpha(t) * x1 + schedule.sigma(t) * x0
    x_dot = schedule.alpha_dot(t) * x1 + schedule.sigma_dot(t) * x0
    x_ddot = schedule.alpha_ddot(t) * x1 + schedule.sigma_ddot(t) * x0
    return x_t, x_dot, x_ddot


def trigflow_force(x0, x1, t: float, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """Closed-form lab-frame force along the trigonometric interpolant.

    For unit mass, f_t = gamma_t x_ddot_t + gamma_t^3 <x_dot_t, x_ddot_t> / c^2 x_dot_t
    with x_dot_t = cos(t) x1 - sin(t) x0 and x_ddot_t = -x_t.  Written out
    explicitly (rather than delegating to ``relativistic_force``) so tests can
    compare the two derivations.
    """
    if physics.m != 1.0:
        raise ValueError(f"trigflow force is derived for unit mass, got m = {physics.m!r}")
    _check_time(t, trigflow_schedule())
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    c2 = physics.c**2
    x_dot = math.cos(t) * x1 - math.sin(t) * x0
    x_ddot = -(math.sin(t) * x1 + math.cos(t) * x0)
    speed_sq = np.sum(x_dot * x_dot, axis=-1)
    if np.any(speed_sq >= c2):
        raise SpeedLimitError(
            f"interpolant speed {float(np.sqrt(np.max(speed_sq)))!r} >= c = {physics.c!r}"
        )
    gamma = 1.0 / np.sqrt(1.0 - speed_sq / c2)
    dot_product = np.sum(x_dot * x_ddot, axis=-1)
    return (
        gamma[..., None] * x_ddot
        + (gamma**3 * dot_product / c2)[..., None] * x_dot
    )
