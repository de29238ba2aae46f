"""Samplers: turn trained heads (or plain callables) into trajectories.

Two engines, both on a uniform grid of ``n_steps`` steps of size
``d = duration / n_steps`` and both batched over leading axes of ``x0``:

* :func:`flow_path` - forward Euler on a learned velocity field (O1), plus the
  second-order ``d^2/2`` correction when given a learned acceleration (O1+O2).
* :func:`force_path` - the relativistic force sampler.  Per step it holds
  the predicted co-moving force fixed and applies that step *exactly* in
  momentum space: the celerity magnitude grows linearly under ``f_par`` and
  the heading integrates in closed form under ``f_perp``.  Because the state
  advances through celerity, every recorded speed is strictly below c for
  any step size and any force magnitude; the textbook per-step Euler
  velocity update is available as ``velocity_update="euler"`` but can
  overshoot c on coarse grids, which is then a hard error.  The celerity is
  held as two contiguous component rows, ``w_x`` and ``w_y``, and each
  step's velocity is written straight into the path by
  :func:`~form_lab.relativity.velocity_rows`.  A force shared by every point
  (a time-only head, a dataset schedule) becomes two Python floats per step,
  so its at-rest, braking and ``f_par = 0`` decisions are made once rather
  than masked per point.  The rows take the operations of the per-point
  formula on ``(..., 2)`` vectors in the same order, so the results are
  bit-identical to it.

Model-facing wrappers (:func:`sample_o1`, :func:`sample_o1o2`,
:func:`sample_form`) feed networks normalized time ``t / duration``, exactly
as during training, through :func:`head_fn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datasets import DatasetSpec, initial_velocity, require_int
from .errors import DegenerateVelocityError, FieldError, NonFiniteError, SpeedLimitError
from .ode import integrate_fixed_grid, uniform_grid
from .relativity import (
    DEFAULT_PHYSICS,
    EPS_V,
    PhysicsConfig,
    acceleration_from_force,
    celerity_from_velocity,
    compose_lab_force,
    speed,
    velocity_from_celerity,
    velocity_rows,
)
from .neural import mlp_forward
from .training import TrainedModel, sampled_handedness

VELOCITY_UPDATES = ("momentum-exact", "euler")


@dataclass(frozen=True)
class SamplerConfig:
    """Grid and update rule; duration, physics and handedness are the model's."""

    n_steps: int = 100
    velocity_update: str = "momentum-exact"

    def __post_init__(self) -> None:
        require_int(SamplerConfig, "n_steps", self.n_steps)
        if self.n_steps < 1:
            raise FieldError(SamplerConfig, "n_steps", f"n_steps must be >= 1, got {self.n_steps}")
        if self.velocity_update not in VELOCITY_UPDATES:
            raise FieldError(SamplerConfig, "velocity_update", f"velocity_update must be one of {VELOCITY_UPDATES}")


@dataclass
class SamplePath:
    """States along one sampling run; ``x`` has shape (n_steps+1, ..., 2)."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray | None = None  # force sampler only

    @property
    def endpoint(self) -> np.ndarray:
        return self.x[-1]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def flow_path(velocity_fn: Callable, x0, duration: float, n_steps: int, accel_fn: Callable | None = None) -> SamplePath:
    """x <- x + d u1(x, t), the first-order flow sampler, then + (d^2/2) u2(u1, x, t) if given ``accel_fn``."""
    x = np.array(x0, dtype=np.float64, copy=True)
    times, d = uniform_grid(duration, n_steps)
    xs = np.empty((n_steps + 1, *x.shape), dtype=np.float64)
    xs[0] = x
    for k in range(n_steps):
        t = float(times[k])
        u1 = velocity_fn(x, t)
        xs[k + 1] = x + d * u1
        if accel_fn is not None:
            xs[k + 1] += (0.5 * d * d) * accel_fn(u1, x, t)
        x = xs[k + 1]
    _require_finite(xs)
    return SamplePath(times=times, x=xs)


def force_path(
    components_fn: Callable,
    x0,
    v0,
    duration: float,
    n_steps: int,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    handedness: int = 1,
    velocity_update: str = "momentum-exact",
) -> SamplePath:
    """Integrate a co-moving force field from (x0, v0).

    ``components_fn(x, t)`` returns the lab-measured co-moving force pair
    ``(f_par, f_perp)`` (true force, not per unit mass), each broadcastable
    to ``x[..., 0]``.  Positions advance with the trapezoid rule
    ``x <- x + d (v_new + v_old) / 2``.
    """
    if velocity_update not in VELOCITY_UPDATES:
        raise ValueError(f"velocity_update must be one of {VELOCITY_UPDATES}")
    x = np.asarray(x0, dtype=np.float64)
    v = np.broadcast_to(np.asarray(v0, dtype=np.float64), x.shape)
    times, d = uniform_grid(duration, n_steps)
    xs = np.empty((n_steps + 1, *x.shape), dtype=np.float64)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x, v
    w = np.moveaxis(celerity_from_velocity(v, physics), -1, 0).copy()  # (2, ...) rows; enforces |v0| < c
    sq = w[0] * w[0] + w[1] * w[1]  # |w|^2, as velocity_rows returns it for the next steps
    v_rows = np.moveaxis(vs, -1, 1)  # (n_steps+1, 2, ...) views of the path
    exact = velocity_update == "momentum-exact"
    half_d = 0.5 * d

    for k, t in enumerate(times[:-1].tolist()):
        f_par, f_perp = components_fn(xs[k], t)
        if exact:
            w, sq = _momentum_exact_update(w, sq, f_par, f_perp, d, physics, handedness, v_rows[k + 1])
        else:
            vs[k + 1] = _euler_update(vs[k], f_par, f_perp, d, physics, handedness)
        x_new = np.add(vs[k + 1], vs[k], out=xs[k + 1])
        x_new *= half_d
        x_new += xs[k]  # x + (d/2)(v_new + v), in place in the path
    _require_finite(xs)  # each v[k+1] was refused in its own step if not finite
    return SamplePath(times=times, x=xs, v=vs)


def _shared_or_per_point(f):
    """A force component as a Python float when one value acts on every point, else a float64 array."""
    if isinstance(f, float):  # a Python float or a numpy double
        return float(f)
    f = np.asarray(f, dtype=np.float64)
    return float(f) if f.ndim == 0 else f


def _momentum_exact_update(
    w: np.ndarray, sq: np.ndarray, f_par, f_perp, d: float, physics: PhysicsConfig, handedness: int, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Advance celerity one step under a frozen co-moving force, exactly.

    ``w`` holds the celerity as component rows, shape ``(2, ...)``, and
    ``sq`` its ``|w|^2``.  The new velocity is written into ``v``
    (same shape as ``w``, here a view of the path) and the new ``(w, sq)``
    are returned, so ``|w|^2`` is computed once per step, for the velocity,
    and reused for ``|w|`` on the next.

    With (f_par, f_perp) constant over the step, |w| grows linearly,
    d|w|/dt = f_par / m, and the heading obeys dphi/dt = h f_perp / (m |w|),
    giving delta_phi = h (f_perp/f_par) ln(|w_1|/|w_0|) (limit: h f_perp d /
    (m |w_0|) for f_par = 0).  Both pieces are closed-form, so the only
    approximation in the sampler is freezing the components per step.

    A force shared by every point (both components scalars) becomes two
    Python floats: the at-rest, braking and ``f_par = 0`` decisions are made
    on them once, not masked per point.  Since ``h`` is +-1 and IEEE
    rounding is symmetric in sign, folding it into the scalar factor gives
    the same bits as applying it to every point.  The rotation is written
    out on the rows op for op, so the results are bit-identical to the
    per-point formula on ``(..., 2)`` vectors.
    """
    f_par, f_perp = _shared_or_per_point(f_par), _shared_or_per_point(f_perp)
    shared = type(f_par) is float and type(f_perp) is float
    lead = w.shape[1:]
    if not shared and np.broadcast_shapes(lead, np.shape(f_par), np.shape(f_perp)) != lead:
        raise ValueError(
            f"force components of shapes {np.shape(f_par)} and {np.shape(f_perp)} do not broadcast to the points {lead}"
        )
    step = d / physics.m
    wmag = np.sqrt(sq)
    if wmag.min(initial=np.inf) > EPS_V:
        safe_w = wmag
    else:
        resting = wmag <= EPS_V
        pushed = (f_par != 0.0 or f_perp != 0.0) if shared else (resting & ((f_par != 0.0) | (f_perp != 0.0))).any()
        if pushed:
            raise DegenerateVelocityError(
                "force sampler reached (numerically) zero speed with a nonzero force"
            )
        safe_w = np.where(resting, 1.0, wmag)
    wmag_new = wmag + f_par * step
    braking = f_par < 0.0 if shared else np.any(f_par < 0.0)
    if braking:  # without braking, |w| cannot fall from above EPS_V to zero
        if not np.all(np.isfinite(f_par)):  # an infinite brake is no step-size problem
            raise NonFiniteError("force sampler's parallel force f_par is not finite")
        crossed = wmag_new <= 0.0
        if safe_w is not wmag:
            crossed &= ~resting
        if crossed.any():
            raise DegenerateVelocityError(
                "parallel impulse drives the celerity through zero within one step; increase n_steps"
            )
    if shared:
        if f_par == 0.0:
            dphi = (handedness * (f_perp * step)) / safe_w
        else:
            dphi = (handedness * (f_perp / f_par)) * np.log1p((f_par * step) / safe_w)
    else:
        par_zero = f_par == 0.0
        ratio = f_par * step / safe_w
        dphi = handedness * np.where(
            par_zero,
            f_perp * step / safe_w,
            (f_perp / np.where(par_zero, 1.0, f_par)) * np.log1p(np.where(par_zero, 0.0, ratio)),
        )
    u = w / safe_w
    cos_u, sin_u = np.cos(dphi) * u, np.sin(dphi) * u
    w_new = np.empty_like(w)
    np.subtract(cos_u[0], sin_u[1], out=w_new[0, ...])  # |w_new| (cos u_x - sin u_y, sin u_x + cos u_y)
    np.add(sin_u[0], cos_u[1], out=w_new[1, ...])
    w_new *= wmag_new
    return w_new, velocity_rows(w_new, physics, v)


def _euler_update(
    v: np.ndarray, f_par, f_perp, d: float, physics: PhysicsConfig, handedness: int
) -> np.ndarray:
    """Textbook update v <- v + d * a; raises if the step is not finite or crosses c."""
    f_lab = compose_lab_force(f_par, f_perp, v, handedness)
    v_new = v + d * acceleration_from_force(v, f_lab, physics)
    if not np.isfinite(v_new).all():  # NaN >= c is False, so the speed check alone would let it through
        raise NonFiniteError("euler velocity update is not finite")
    speeds = speed(v_new)
    if np.any(speeds >= physics.c):
        raise SpeedLimitError(
            f"euler velocity update crossed the speed limit (max speed {float(np.max(speeds))!r}, "
            f"c = {physics.c!r}); use more steps or velocity_update='momentum-exact'"
        )
    return v_new


def ode_reference_path(
    components_fn: Callable,
    x0,
    v0,
    duration: float,
    n_steps: int,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    handedness: int = 1,
) -> SamplePath:
    """High-order RK4 reference for the same co-moving force field.

    Used to cross-check :func:`force_path` against an independent
    integrator; not a sampler in its own right.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    v0 = np.broadcast_to(np.asarray(v0, dtype=np.float64), x0.shape)
    w0 = celerity_from_velocity(v0, physics)
    y0 = np.concatenate([x0, w0], axis=-1)

    def deriv(t: float, y: np.ndarray) -> np.ndarray:
        x, w = y[..., :2], y[..., 2:]
        v = velocity_from_celerity(w, physics)
        f_par, f_perp = components_fn(x, t)
        f_lab = compose_lab_force(f_par, f_perp, v, handedness)
        return np.concatenate([v, f_lab / physics.m], axis=-1)

    times, states = integrate_fixed_grid(deriv, y0, 0.0, duration, n_steps, method="rk4")
    _require_finite(states)
    return SamplePath(
        times=times,
        x=states[..., :2],
        v=velocity_from_celerity(states[..., 2:], physics),
    )


def _require_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("sampler produced non-finite states")


# --- trained-model adapters ------------------------------------------------


def head_fn(model: TrainedModel, name: str) -> Callable:
    """``fn(*blocks, t)``: head ``name`` on its input blocks and then ``t / duration``, as in training."""
    if name not in model.heads:
        raise ValueError(f"model method {model.method!r} has no {name!r} head")
    head, duration = model.heads[name], model.duration

    def fn(*blocks_and_t) -> np.ndarray:
        *blocks, t = blocks_and_t
        t_col = np.full((*blocks[0].shape[:-1], 1), t / duration)
        return mlp_forward(head, np.concatenate([*blocks, t_col], axis=-1))

    return fn


def force_head_fn(model: TrainedModel) -> Callable:
    """``fn(x, t) -> (f_par, f_perp)``; a time-only head sees one row, so its force is shared by every point."""
    position_fn = head_fn(model, "F")  # also refuses a model without a force head
    head, duration = model.heads["F"], model.duration

    def time_only(x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        out = mlp_forward(head, np.array([t / duration]))
        return out[0], out[1]

    def time_position(x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        out = position_fn(x, t)
        return out[..., 0], out[..., 1]

    return time_only if model.train_config.form_input_mode == "time" else time_position


def sample_o1(model: TrainedModel, x0, config: SamplerConfig = SamplerConfig()) -> SamplePath:
    return flow_path(head_fn(model, "u1"), x0, model.duration, config.n_steps)


def sample_o1o2(model: TrainedModel, x0, config: SamplerConfig = SamplerConfig()) -> SamplePath:
    return flow_path(head_fn(model, "u1"), x0, model.duration, config.n_steps, accel_fn=head_fn(model, "u2"))


def sample_form(model: TrainedModel, x0, config: SamplerConfig = SamplerConfig(), v0=None) -> SamplePath:
    """Force-sampler run from ``v0``: ``None`` takes the dataset-matched rule,
    an array is the initial velocity (broadcast to ``x0``)."""
    components_fn = force_head_fn(model)  # refuses a model without a force head before the v0 rule runs
    if v0 is None:
        if model.dataset_info is None:
            raise ValueError("model carries no dataset info; pass v0 explicitly")
        v0 = initial_velocity(DatasetSpec.from_dict(model.dataset_info), x0)
    return force_path(
        components_fn,
        x0,
        v0,
        model.duration,
        config.n_steps,
        physics=model.physics,
        handedness=sampled_handedness(model.dataset_info),
        velocity_update=config.velocity_update,
    )
