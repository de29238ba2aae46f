"""Training loops for the three velocity/force regression methods.

All methods share one minibatch pipeline: draw (trajectory, grid index)
pairs uniformly, read the recorded state at that grid point, and regress a
network onto the recorded quantity.

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

from dataclasses import dataclass, field

import numpy as np

from .dynamics import TrajectoryRecord
from .errors import NonFiniteError
from .neural import MlpGrads, MlpParams, adam_init, adam_step, mlp_backward, mlp_forward, mlp_init
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
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
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


@dataclass
class DatasetArrays:
    """Records stacked onto their common grid for fast minibatch gathers."""

    times: np.ndarray  # (K+1,)
    x: np.ndarray  # (N, K+1, 2)
    v: np.ndarray  # (N, K+1, 2)
    a: np.ndarray  # (N, K+1, 2)
    f_par: np.ndarray  # (N, K+1)
    f_perp: np.ndarray  # (N, K+1)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


def stack_records(records: list[TrajectoryRecord]) -> DatasetArrays:
    if not records:
        raise ValueError("cannot train on an empty record list")
    times = records[0].times
    for r in records:
        if r.times.shape != times.shape or not np.array_equal(r.times, times):
            raise ValueError("records must share one time grid")
    return DatasetArrays(
        times=times.copy(),
        x=np.stack([r.x for r in records]),
        v=np.stack([r.v for r in records]),
        a=np.stack([r.a for r in records]),
        f_par=np.stack([r.f_par for r in records]),
        f_perp=np.stack([r.f_perp for r in records]),
    )


def _streams(seed: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(4)


def _squared_error_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over batch of the squared norm; returns (loss, dLoss/dPred)."""
    diff = pred - target
    loss = float(np.mean(np.sum(diff * diff, axis=-1)))
    return loss, (2.0 / diff.shape[0]) * diff


def _check_finite(loss: float, step: int, method: str) -> None:
    if not np.isfinite(loss):
        raise NonFiniteError(f"{method} training diverged: loss = {loss!r} at step {step}")


def train(
    records: list[TrajectoryRecord],
    config: TrainConfig,
    physics: PhysicsConfig = DEFAULT_PHYSICS,
    dataset_info: dict | None = None,
) -> TrainedModel:
    """Train ``config.method`` on the given records."""
    data = stack_records(records)
    duration = data.duration
    if duration <= 0.0:
        raise ValueError(f"records must span a positive duration, got {duration}")
    n_traj, n_knots = data.x.shape[0], data.x.shape[1]
    t_norm_grid = (data.times - data.times[0]) / duration

    streams = _streams(config.seed)
    batch_rng = np.random.default_rng(streams[STREAM_BATCH])
    hidden = tuple(config.hidden_dims)

    heads: dict[str, MlpParams] = {}
    opt: dict[str, object] = {}
    if config.method in ("o1", "o1o2"):
        heads["u1"] = mlp_init((3, *hidden, 2), np.random.default_rng(streams[STREAM_U1]))
        opt["u1"] = adam_init(heads["u1"], lr=config.learning_rate)
    if config.method == "o1o2":
        heads["u2"] = mlp_init((5, *hidden, 2), np.random.default_rng(streams[STREAM_U2]))
        opt["u2"] = adam_init(heads["u2"], lr=config.learning_rate)
    if config.method == "form":
        in_dim = 1 if config.form_input_mode == "time" else 3
        heads["F"] = mlp_init((in_dim, *hidden, 2), np.random.default_rng(streams[STREAM_F]))
        opt["F"] = adam_init(heads["F"], lr=config.learning_rate)

    losses = np.empty(config.steps, dtype=np.float64)
    for step in range(config.steps):
        traj_idx = batch_rng.integers(0, n_traj, size=config.batch_size)
        knot_idx = batch_rng.integers(0, n_knots, size=config.batch_size)
        x_t = data.x[traj_idx, knot_idx]
        t_col = t_norm_grid[knot_idx][:, None]

        if config.method == "form":
            target = np.stack(
                [data.f_par[traj_idx, knot_idx], data.f_perp[traj_idx, knot_idx]], axis=-1
            )
            inp = t_col if config.form_input_mode == "time" else np.concatenate([x_t, t_col], axis=1)
            pred = mlp_forward(heads["F"], inp)
            loss, dpred = _squared_error_loss(pred, target)
            grads, _ = mlp_backward(heads["F"], inp, dpred)
            heads["F"], opt["F"] = adam_step(heads["F"], grads, opt["F"])
        else:
            v_t = data.v[traj_idx, knot_idx]
            inp1 = np.concatenate([x_t, t_col], axis=1)
            pred1 = mlp_forward(heads["u1"], inp1)
            loss, dpred1 = _squared_error_loss(pred1, v_t)
            if config.method == "o1o2":
                a_t = data.a[traj_idx, knot_idx]
                inp2 = np.concatenate([pred1, x_t, t_col], axis=1)
                pred2 = mlp_forward(heads["u2"], inp2)
                loss2, dpred2 = _squared_error_loss(pred2, a_t)
                loss += loss2
                grads2, dinp2 = mlp_backward(heads["u2"], inp2, dpred2)
                if config.o1o2_coupling == "joint":
                    # acceleration loss also shapes u1 through u2's first input slot
                    dpred1 = dpred1 + dinp2[:, :2]
                heads["u2"], opt["u2"] = adam_step(heads["u2"], grads2, opt["u2"])
            grads1, _ = mlp_backward(heads["u1"], inp1, dpred1)
            heads["u1"], opt["u1"] = adam_step(heads["u1"], grads1, opt["u1"])

        _check_finite(loss, step, config.method)
        losses[step] = loss

    return TrainedModel(
        method=config.method,
        heads=heads,
        duration=duration,
        physics=physics,
        train_config=config,
        dataset_info=dict(dataset_info) if dataset_info is not None else None,
        loss_curve=losses,
    )


def steps_for_epochs(epochs: float, n_train: int, batch_size: int) -> int:
    """Convert an epoch budget to optimizer steps: ceil(epochs * N / batch)."""
    if epochs <= 0.0 or n_train < 1 or batch_size < 1:
        raise ValueError("epochs, n_train, and batch_size must all be positive")
    return max(1, int(np.ceil(epochs * n_train / batch_size)))
