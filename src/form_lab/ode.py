"""Fixed-step ODE integrators (classical RK4 and forward Euler).

State arrays may have any shape; the derivative callback receives and
returns arrays of the same shape, so batched integration is just a wider
state.  Grids are uniform: step h = duration / n_steps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DerivativeFn = Callable[[float, np.ndarray], np.ndarray]


def rk4_step(f: DerivativeFn, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta 4 step from (t, y) with step size h."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def euler_step(f: DerivativeFn, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One forward-Euler step from (t, y) with step size h."""
    return y + h * f(t, y)


def uniform_grid(duration: float, n_steps: int, t0: float = 0.0) -> tuple[np.ndarray, float]:
    """The ``n_steps + 1`` times ``t0 + k h`` with ``h = duration / n_steps``, and ``h``."""
    h = duration / n_steps
    return t0 + h * np.arange(n_steps + 1), h


def integrate_fixed_grid(
    f: DerivativeFn,
    y0: np.ndarray,
    t0: float,
    duration: float,
    n_steps: int,
    method: str = "rk4",
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = f(t, y) over [t0, t0 + duration] on a uniform grid.

    Returns (times, states) with times of shape (n_steps + 1,) and states of
    shape (n_steps + 1, *y0.shape) including both endpoints.  ``out``, if
    given, is where the states go: a float64 array or view of that shape,
    with any strides, returned as ``states``.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    steppers = {"rk4": rk4_step, "euler": euler_step}
    if method not in steppers:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(steppers)}")
    step = steppers[method]

    y = np.array(y0, dtype=np.float64, copy=True)
    times, h = uniform_grid(duration, n_steps, t0)
    states = np.empty((n_steps + 1, *y.shape), dtype=np.float64) if out is None else out
    if states.shape != (n_steps + 1, *y.shape) or states.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {(n_steps + 1, *y.shape)}, got {states.dtype} {states.shape}")
    states[0] = y
    for k in range(n_steps):
        # t recomputed as t0 + k*h (not accumulated) so grids match `times` exactly
        y = step(f, t0 + k * h, y, h)
        states[k + 1] = y
    return times, states
