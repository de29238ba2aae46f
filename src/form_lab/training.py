"""Training loops for the three velocity/force regression methods.

All methods share one minibatch pipeline: draw (trajectory, grid index)
pairs uniformly, read the recorded state at that grid point straight from
the blocks of a :class:`~form_lab.dynamics.TrajectoryBatch`, and regress a
network onto the recorded quantity.  The force target is read by grid index
from the batch's one schedule, which every trajectory shares.

  o1    u1(x_t, t)            -> velocity v_t
  o1o2  adds u2(u1, x_t, t)   -> acceleration a_t
  form  F(t) or F(x_t, t)     -> co-moving force (f_par, f_perp)_t

The pipeline runs ``CHUNK_STEPS`` steps at a time.  One draw, with one
bound per index, gives a chunk's (trajectory, grid index) pairs in the
order of two draws per step; one gather by flat row index fills the
chunk's inputs and targets; o1o2 derives its acceleration target from the
chunk's gathered ``v`` rows with the row kernels of
:func:`~form_lab.dynamics.force_and_acceleration_rows`, so no ``a`` block
is ever built.  Each step keeps its prediction errors, and the chunk's
losses are reduced and checked for a non-finite value once, after its last
step; the error names the first such step.  Every value is the one a step at a
time would give, bit for bit.  All heads of a method step in one
:class:`~form_lab.neural.TrainingWorkspace`: each head's backward pass, then
one Adam pass over all of them.

Seeding uses a fixed stream layout spawned from the run seed: stream 0
drives minibatch sampling, streams 1/2/3 initialize u1/u2/F.  Because the
assignment is positional, an ``o1`` run and an ``o1o2`` run with the same
seed see identical batches and identical u1 initializations, which makes
their comparison a controlled experiment rather than a reseeding accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import require_int, require_positive
from .dynamics import TrajectoryBatch, force_and_acceleration_rows
from .errors import FieldError, NonFiniteError
from .neural import MlpParams, TrainingWorkspace, mlp_init
from .relativity import PhysicsConfig

# Uncalled here, but importable at this site: the benchmark's traced run
# (perfbench/workloads.py TRACE_SITES) wraps these attributes, and calls
# stack_records, which only passes a batch through, as its read-back stage.
from .neural import adam_step, mlp_backward, mlp_forward  # noqa: F401


def stack_records(batch: TrajectoryBatch) -> TrajectoryBatch:
    """``batch`` itself; anything else, such as a list of records, is refused."""
    if not isinstance(batch, TrajectoryBatch):
        raise TypeError(f"expected a TrajectoryBatch, got {type(batch).__name__}")
    return batch

METHODS = ("o1", "o1o2", "form")
FORM_INPUT_MODES = ("time", "time-position")
O1O2_COUPLINGS = ("detached", "joint")

# positional seed-stream layout (see module docstring)
STREAM_BATCH, STREAM_U1, STREAM_U2, STREAM_F = 0, 1, 2, 3

# steps whose minibatches are drawn, gathered and loss-checked at a time: at batch 128 a chunk's arrays
# stay a few hundred KB, in cache
CHUNK_STEPS = 16

# the most steps whose float64 loss curve numpy can size
MAX_STEPS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


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
            raise FieldError(TrainConfig, "method", f"unknown method {self.method!r}; expected one of {METHODS}")
        for name in ("steps", "batch_size", "seed"):
            require_int(TrainConfig, name, getattr(self, name))
        for i, width in enumerate(self.hidden_dims):
            require_int(TrainConfig, f"hidden_dims[{i}]", width)
        if self.steps < 1:
            raise FieldError(TrainConfig, "steps", f"steps must be >= 1, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise FieldError(TrainConfig, "steps",
                             f"steps must be at most {MAX_STEPS}, the longest loss curve, got {self.steps:.6g}")
        if self.batch_size < 1:
            raise FieldError(TrainConfig, "batch_size", f"batch_size must be >= 1, got {self.batch_size}")
        require_positive(TrainConfig, "learning_rate", self.learning_rate)
        if self.seed < 0:  # SeedSequence takes non-negative seeds only
            raise FieldError(TrainConfig, "seed", f"seed must be >= 0, got {self.seed}")
        if len(self.hidden_dims) < 1 or any(d < 1 for d in self.hidden_dims):
            raise FieldError(TrainConfig, "hidden_dims",
                             f"hidden_dims needs positive entries, got {self.hidden_dims!r}")
        if self.form_input_mode not in FORM_INPUT_MODES:
            raise FieldError(TrainConfig, "form_input_mode", f"form_input_mode must be one of {FORM_INPUT_MODES}")
        if self.o1o2_coupling not in O1O2_COUPLINGS:
            raise FieldError(TrainConfig, "o1o2_coupling", f"o1o2_coupling must be one of {O1O2_COUPLINGS}")


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


def sampled_handedness(dataset_info: dict | None) -> int:
    """The handedness a model with ``dataset_info`` samples at: its dataset spec's, +1 without one.
    A checkpoint records no other."""
    return int((dataset_info or {}).get("handedness", 1))


def _streams(seed: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(4)


def _losses(diff: np.ndarray) -> np.ndarray:
    """Each step's loss from its ``(rows, 2)`` block of ``diff = pred - target``: the rows' mean squared norm."""
    return np.add.reduce(np.add.reduce(diff * diff, axis=2), axis=1) / diff.shape[1]


def _check_finite(losses: np.ndarray, first_step: int, method: str) -> None:
    if not np.isfinite(losses).all():
        step = int(np.argmin(np.isfinite(losses)))
        raise NonFiniteError(f"{method} training diverged: loss = {float(losses[step])!r} at step {first_step + step}")


def train(data: TrajectoryBatch, config: TrainConfig, dataset_info: dict | None = None) -> TrainedModel:
    """Train ``config.method`` on the rows of ``data``, gathered straight from its blocks
    ``CHUNK_STEPS`` steps at a time, stepping its heads in one :class:`~form_lab.neural.TrainingWorkspace`.

    The model records the physics the rows were simulated at.  ``dataset_info`` must give the rows' handedness,
    the one the model samples at (see :func:`sampled_handedness`), so rows at handedness -1 need one.
    """
    duration = data.duration
    if duration <= 0.0:
        raise ValueError(f"records must span a positive duration, got {duration}")
    if sampled_handedness(dataset_info) != data.handedness:
        recorded = "none" if dataset_info is None else f"handedness {dataset_info.get('handedness', 1)!r}"
        raise ValueError(f"rows simulated at handedness {data.handedness} need a dataset_info that records it, "
                         f"got {recorded}")
    n_traj, n_knots = data.x.shape[0], data.x.shape[1]
    t_norm_grid = (data.times - data.times[0]) / duration
    schedule = np.stack([data.f_par, data.f_perp], axis=-1)  # one (K+1, 2) force target for all rows
    x_rows, v_rows = data.x.reshape(-1, 2), data.v.reshape(-1, 2)  # row traj * n_knots + knot of each block

    streams = _streams(config.seed)
    batch_rng = np.random.default_rng(streams[STREAM_BATCH])
    method, rows = config.method, config.batch_size

    def init(in_dim: int, stream: int) -> MlpParams:
        return mlp_init((in_dim, *config.hidden_dims, 2), np.random.default_rng(streams[stream]))

    time_only = method == "form" and config.form_input_mode == "time"
    if method == "form":
        params = {"F": init(1 if time_only else 3, STREAM_F)}
    else:
        params = {"u1": init(3, STREAM_U1)}
        if method == "o1o2":
            params["u2"] = init(5, STREAM_U2)
    joint = method == "o1o2" and config.o1o2_coupling == "joint"
    first_head = "F" if method == "form" else "u1"

    # one chunk's inputs, targets and prediction errors; o1o2 adds u2's inputs, its a target and the f beside it
    inp = np.empty((CHUNK_STEPS, rows, params[first_head].layer_dims[0]))
    target, diff = np.empty((CHUNK_STEPS, rows, 2)), np.empty((CHUNK_STEPS, rows, 2))
    if "u2" in params:
        inp2, accel, force, diff2 = (np.empty((CHUNK_STEPS, rows, d)) for d in (5, 2, 2, 2))
    # the per-step draws' bounds in their order, (trajectory, knot) x rows, for every step of a chunk
    highs = np.tile(np.repeat([n_traj, n_knots], rows), CHUNK_STEPS)

    workspace = TrainingWorkspace(params, config.learning_rate, rows, grad_input=("u2",) if joint else ())
    head, u2 = workspace.heads[first_head], workspace.heads.get("u2")
    scale = 2.0 / rows  # dLoss/dPred = scale * diff
    losses = np.empty(config.steps, dtype=np.float64)
    for first in range(0, config.steps, CHUNK_STEPS):
        n = min(CHUNK_STEPS, config.steps - first)
        traj, knot = batch_rng.integers(0, highs[: 2 * rows * n]).reshape(n, 2, rows).transpose(1, 0, 2)
        flat = traj * n_knots + knot
        np.take(t_norm_grid, knot, out=inp[:n, :, -1])
        if not time_only:
            inp[:n, :, :2] = np.take(x_rows, flat, axis=0)
        if method == "form":
            np.take(schedule, knot, axis=0, out=target[:n])
        else:
            np.take(v_rows, flat, axis=0, out=target[:n])
        if u2 is not None:
            inp2[:n, :, 2:] = inp[:n]
            force_and_acceleration_rows(
                *(np.moveaxis(block[:n], 2, 0) for block in (target, force, accel)),
                data.f_par[knot], data.f_perp[knot], data.physics, data.handedness,
            )

        for step in range(n):
            np.multiply(np.subtract(head.forward(inp[step]), target[step], out=diff[step]), scale, out=head.grad_out)
            if u2 is not None:
                inp2[step, :, :2] = head.out
                np.multiply(np.subtract(u2.forward(inp2[step]), accel[step], out=diff2[step]), scale, out=u2.grad_out)
                u2.backward()
                if joint:
                    # acceleration loss also shapes u1 through u2's first input slot
                    head.grad_out += u2.grad_input[:, :2]
            head.backward()
            workspace.update()

        chunk = losses[first : first + n]
        chunk[:] = _losses(diff[:n])
        if u2 is not None:
            chunk += _losses(diff2[:n])
        _check_finite(chunk, first, method)

    return TrainedModel(
        method=method,
        heads=workspace.params(),
        duration=duration,
        physics=data.physics,
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
