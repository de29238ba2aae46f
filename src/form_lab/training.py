"""Training loops for the three velocity/force regression methods.

All methods share one minibatch pipeline: draw (trajectory, grid index)
pairs uniformly, read the recorded state at that grid point straight from
the blocks of a :class:`~form_lab.dynamics.TrajectoryBatch`, and regress a
network onto the recorded quantity.  The force target is read by grid index
from the batch's one schedule, which every trajectory shares.

  o1    u1(x_t, t)            -> velocity v_t
  o1o2  adds u2(u1, x_t, t)   -> acceleration a_t
  form  F(t) or F(x_t, t)     -> co-moving force (f_par, f_perp)_t

Seeding uses a fixed stream layout spawned from the run seed: stream 0
drives minibatch sampling, streams 1/2/3 initialize u1/u2/F.  Because the
assignment is positional, an ``o1`` run and an ``o1o2`` run with the same
seed see identical batches and identical u1 initializations, which makes
their comparison a controlled experiment rather than a reseeding accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# stack_records is importable here too: perfbench/workloads.py calls it as training.stack_records
from .dynamics import REBUILD_BLOCK, TrajectoryBatch, lab_force_and_acceleration, stack_records  # noqa: F401
from .errors import NonFiniteError
from .neural import MlpParams, TrainingWorkspace, adam_init, mlp_init

# Uncalled here, but importable at this site: the benchmark's traced run
# (perfbench/workloads.py TRACE_SITES) wraps these attributes.
from .neural import adam_step, mlp_backward, mlp_forward  # noqa: F401
from .relativity import DEFAULT_PHYSICS, PhysicsConfig

METHODS = ("o1", "o1o2", "form")
FORM_INPUT_MODES = ("time", "time-position")
O1O2_COUPLINGS = ("detached", "joint")

# positional seed-stream layout (see module docstring)
STREAM_BATCH, STREAM_U1, STREAM_U2, STREAM_F = 0, 1, 2, 3


@dataclass(frozen=True)
class TrainConfig:
    method: str
    steps: int = 20000
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0
    hidden_dims: tuple[int, ...] = (64, 64)
    form_input_mode: str = "time"
    o1o2_coupling: str = "detached"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if len(self.hidden_dims) < 1 or any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"hidden_dims needs positive entries, got {self.hidden_dims!r}")
        if self.form_input_mode not in FORM_INPUT_MODES:
            raise ValueError(f"form_input_mode must be one of {FORM_INPUT_MODES}")
        if self.o1o2_coupling not in O1O2_COUPLINGS:
            raise ValueError(f"o1o2_coupling must be one of {O1O2_COUPLINGS}")


@dataclass
class TrainedModel:
    """A trained method: named network heads plus everything needed to sample."""

    method: str
    heads: dict[str, MlpParams]
    duration: float
    physics: PhysicsConfig
    train_config: TrainConfig
    dataset_info: dict | None = None  # DatasetSpec dict of the training data, if known
    loss_curve: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def final_loss(self) -> float:
        return float(self.loss_curve[-1]) if len(self.loss_curve) else float("nan")


def _streams(seed: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(4)


def _acceleration(data: TrajectoryBatch) -> np.ndarray:
    """``data.a`` as a new block, derived ``REBUILD_BLOCK`` rows at a time: no whole ``f`` beside it, nothing cached."""
    accel = np.empty(data.v.shape)
    for start in range(0, len(data), REBUILD_BLOCK):
        v_rows = data.v[start : start + REBUILD_BLOCK]
        _, accel[start : start + REBUILD_BLOCK] = lab_force_and_acceleration(
            v_rows, data.f_par, data.f_perp, data.physics, data.handedness
        )
    return accel


def _squared_error(pred: np.ndarray, target, grad: np.ndarray, sq: np.ndarray, row_sq: np.ndarray) -> float:
    """Mean over rows of the squared norm of ``pred - target``; writes dLoss/dPred into ``grad``."""
    rows = grad.shape[0]
    np.subtract(pred, target, out=grad)
    np.multiply(grad, grad, out=sq)
    loss = float(np.add.reduce(np.add.reduce(sq, axis=1, out=row_sq)) / rows)
    grad *= 2.0 / rows
    return loss


def _check_finite(loss: float, step: int, method: str) -> None:
    if not math.isfinite(loss):
        raise NonFiniteError(f"{method} training diverged: loss = {loss!r} at step {step}")


def train(
    data: TrajectoryBatch,
    config: TrainConfig,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    dataset_info: dict | None = None,
) -> TrainedModel:
    """Train ``config.method`` on the rows of ``data``, gathered straight from its blocks,
    stepping each head in its own :class:`~form_lab.neural.TrainingWorkspace`."""
    duration = data.duration
    if duration <= 0.0:
        raise ValueError(f"records must span a positive duration, got {duration}")
    n_traj, n_knots = data.x.shape[0], data.x.shape[1]
    t_norm_grid = (data.times - data.times[0]) / duration
    schedule = np.stack([data.f_par, data.f_perp], axis=-1)  # one (K+1, 2) force target for all rows

    streams = _streams(config.seed)
    batch_rng = np.random.default_rng(streams[STREAM_BATCH])
    rows = config.batch_size

    def workspace(in_dim: int, stream: int, grad_input: bool = False) -> TrainingWorkspace:
        params = mlp_init((in_dim, *config.hidden_dims, 2), np.random.default_rng(streams[stream]))
        return TrainingWorkspace(params, adam_init(params, lr=config.learning_rate), rows, grad_input)

    heads: dict[str, TrainingWorkspace] = {}
    if config.method in ("o1", "o1o2"):
        heads["u1"] = workspace(3, STREAM_U1)
    if config.method == "o1o2":
        heads["u2"] = workspace(5, STREAM_U2, grad_input=config.o1o2_coupling == "joint")
    if config.method == "form":
        heads["F"] = workspace(1 if config.form_input_mode == "time" else 3, STREAM_F)
    sq, row_sq = np.empty((rows, 2)), np.empty(rows)
    accel = _acceleration(data) if config.method == "o1o2" else None  # o1o2's target; o1 and form never derive it

    losses = np.empty(config.steps, dtype=np.float64)
    for step in range(config.steps):
        traj_idx = batch_rng.integers(0, n_traj, size=rows)
        knot_idx = batch_rng.integers(0, n_knots, size=rows)

        if config.method == "form":
            head = heads["F"]
            head.inp[:, -1] = t_norm_grid[knot_idx]
            if config.form_input_mode == "time-position":
                head.inp[:, :2] = data.x[traj_idx, knot_idx]
            loss = _squared_error(head.forward(), schedule[knot_idx], head.grad_out, sq, row_sq)
            head.backward_and_update()
        else:
            u1 = heads["u1"]
            u1.inp[:, :2] = data.x[traj_idx, knot_idx]
            u1.inp[:, 2] = t_norm_grid[knot_idx]
            pred1 = u1.forward()
            loss = _squared_error(pred1, data.v[traj_idx, knot_idx], u1.grad_out, sq, row_sq)
            if config.method == "o1o2":
                u2 = heads["u2"]
                u2.inp[:, :2] = pred1
                u2.inp[:, 2:] = u1.inp
                loss += _squared_error(u2.forward(), accel[traj_idx, knot_idx], u2.grad_out, sq, row_sq)
                u2.backward_and_update()
                if config.o1o2_coupling == "joint":
                    # acceleration loss also shapes u1 through u2's first input slot
                    u1.grad_out += u2.grad_input[:, :2]
            u1.backward_and_update()

        _check_finite(loss, step, config.method)
        losses[step] = loss

    return TrainedModel(
        method=config.method,
        heads={name: head.params() for name, head in heads.items()},
        duration=duration,
        physics=physics,
        train_config=config,
        dataset_info=dict(dataset_info) if dataset_info is not None else None,
        loss_curve=losses,
    )


def steps_for_epochs(epochs: float, n_train: int, batch_size: int) -> int:
    """Convert an epoch budget to optimizer steps: ceil(epochs * N / batch)."""
    if n_train < 1 or batch_size < 1:
        raise ValueError("n_train and batch_size must both be positive")
    if not 0.0 < epochs * n_train < np.inf:
        raise ValueError(f"epochs must be positive and finite, got {epochs!r}")
    return max(1, int(np.ceil(epochs * n_train / batch_size)))
