"""Training loop: determinism, shared streams, oracle losses, couplings."""

import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab import training
from form_lab.datasets import DatasetSpec, generate
from form_lab.errors import NonFiniteError
from form_lab.neural import MlpParams, mlp_backward, mlp_forward, mlp_init
from form_lab.training import (
    CHUNK_STEPS,
    STREAM_BATCH,
    STREAM_F,
    STREAM_U1,
    STREAM_U2,
    TrainConfig,
    steps_for_epochs,
    train,
)


@pytest.fixture(scope="module")
def records():
    return generate(DatasetSpec(kind="onedot", n_points=6, n_steps=20, seed=7))


def quick(method, **kw):
    base = dict(method=method, steps=40, batch_size=8, seed=13, hidden_dims=(8, 8))
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig(method="o1")
        assert cfg.steps == 20000
        assert cfg.batch_size == 128
        assert cfg.learning_rate == 1e-3
        assert cfg.hidden_dims == (64, 64)
        assert cfg.form_input_mode == "time"
        assert cfg.o1o2_coupling == "detached"

    @pytest.mark.parametrize(
        "kw",
        [
            dict(method="bogus"),
            dict(method="o1", steps=0),
            dict(method="o1", batch_size=0),
            dict(method="o1", learning_rate=0.0),
            dict(method="form", form_input_mode="oops"),
            dict(method="o1o2", o1o2_coupling="oops"),
            dict(method="o1", hidden_dims=()),
            dict(method="o1", learning_rate=float("inf")),
            dict(method="o1", learning_rate=float("nan")),
            dict(method="o1", learning_rate=True),
            dict(method="o1", learning_rate=10**400),
            dict(method="o1", learning_rate="0.1"),
            dict(method="o1", seed=-1),
            dict(method="o1", seed=1.5),
            dict(method="o1", seed=True),
            dict(method="o1", steps=training.MAX_STEPS + 1),
            dict(method="o1", steps=20.0),
            dict(method="o1", steps=True),
            dict(method="o1", batch_size=8.5),
            dict(method="o1", batch_size=True),
            dict(method="o1", hidden_dims=(8.0, 8)),
            dict(method="o1", hidden_dims=(8, True)),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_is_refused_in_the_dataset_spec_words(self, seed):
        """TrainConfig took these, and numpy's SeedSequence refused a negative one only once training started."""
        with pytest.raises(ValueError) as spec_error:
            DatasetSpec(kind="onedot", seed=seed)
        with pytest.raises(ValueError, match=f"^{re.escape(str(spec_error.value))}$"):
            TrainConfig(method="o1", seed=seed)

    def test_steps_for_epochs(self):
        assert steps_for_epochs(epochs=1, n_train=100, batch_size=32) == 4
        assert steps_for_epochs(epochs=10, n_train=128, batch_size=128) == 10
        with pytest.raises(ValueError):
            steps_for_epochs(epochs=0, n_train=10, batch_size=2)

    @pytest.mark.parametrize("epochs", [float("inf"), float("nan"), 1e308])
    def test_steps_for_epochs_needs_finite_epochs(self, epochs):
        with pytest.raises(ValueError, match="epochs must be positive and finite"):
            steps_for_epochs(epochs=epochs, n_train=100, batch_size=32)


def test_stack_records_passes_a_batch_and_refuses_a_list(records):
    """Kept for the benchmark's read-back stage only: a batch comes back as it is, and records are not stacked."""
    assert training.stack_records(records) is records
    with pytest.raises(TypeError, match="^expected a TrajectoryBatch, got list$"):
        training.stack_records(list(records))


class TestDeterminism:
    def test_same_seed_identical(self, records):
        a = train(records, quick("o1"))
        b = train(records, quick("o1"))
        assert np.array_equal(a.loss_curve, b.loss_curve)
        for k in a.heads:
            for wa, wb in zip(a.heads[k].weights, b.heads[k].weights):
                assert np.array_equal(wa, wb)

    def test_different_seed_differs(self, records):
        a = train(records, quick("o1", seed=13))
        b = train(records, quick("o1", seed=14))
        assert not np.array_equal(a.loss_curve, b.loss_curve)


class ReferenceHead:
    """A head trained the long way: mlp_forward, then mlp_backward (a second
    forward pass), then Adam on each weight and bias array separately."""

    def __init__(self, dims, stream, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = mlp_init(dims, np.random.default_rng(stream))
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step = 0
        self.m = [np.zeros_like(a) for a in (*self.params.weights, *self.params.biases)]
        self.v = [np.zeros_like(a) for a in self.m]

    def forward(self, inp):
        return mlp_forward(self.params, inp)

    def backward_and_update(self, inp, dpred):
        grads, dinp = mlp_backward(self.params, inp, dpred)
        self.step += 1
        bc1, bc2 = 1.0 - self.beta1**self.step, 1.0 - self.beta2**self.step
        new = []
        for i, (p, g) in enumerate(zip((*self.params.weights, *self.params.biases), (*grads.weights, *grads.biases))):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            new.append(p - self.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.eps))
        n = len(self.params.weights)
        self.params = MlpParams(self.params.layer_dims, tuple(new[:n]), tuple(new[n:]))
        return dinp


def squared_error(pred, target):
    diff = pred - target
    return float(np.mean(np.sum(diff * diff, axis=-1))), (2.0 / diff.shape[0]) * diff


def reference_train(records, config):
    """train() written out as separate forward, backward and per-array Adam calls,
    on arrays it stacks from the record rows itself (the force target per row)."""
    times = records[0].times
    x, v, a, f_par, f_perp = (np.stack([getattr(r, k) for r in records]) for k in ("x", "v", "a", "f_par", "f_perp"))
    t_grid = (times - times[0]) / float(times[-1] - times[0])
    streams = np.random.SeedSequence(config.seed).spawn(4)
    batch_rng = np.random.default_rng(streams[STREAM_BATCH])
    hidden, lr = config.hidden_dims, config.learning_rate
    if config.method == "form":
        in_dim = 1 if config.form_input_mode == "time" else 3
        heads = {"F": ReferenceHead((in_dim, *hidden, 2), streams[STREAM_F], lr)}
    else:
        heads = {"u1": ReferenceHead((3, *hidden, 2), streams[STREAM_U1], lr)}
        if config.method == "o1o2":
            heads["u2"] = ReferenceHead((5, *hidden, 2), streams[STREAM_U2], lr)
    losses = []
    for _ in range(config.steps):
        traj = batch_rng.integers(0, x.shape[0], size=config.batch_size)
        knot = batch_rng.integers(0, x.shape[1], size=config.batch_size)
        x_t, t_col = x[traj, knot], t_grid[knot][:, None]
        if config.method == "form":
            inp = t_col if config.form_input_mode == "time" else np.concatenate([x_t, t_col], axis=1)
            target = np.stack([f_par[traj, knot], f_perp[traj, knot]], axis=-1)
            loss, dpred = squared_error(heads["F"].forward(inp), target)
            heads["F"].backward_and_update(inp, dpred)
        else:
            inp1 = np.concatenate([x_t, t_col], axis=1)
            pred1 = heads["u1"].forward(inp1)
            loss, dpred1 = squared_error(pred1, v[traj, knot])
            if config.method == "o1o2":
                inp2 = np.concatenate([pred1, x_t, t_col], axis=1)
                loss2, dpred2 = squared_error(heads["u2"].forward(inp2), a[traj, knot])
                loss += loss2
                dinp2 = heads["u2"].backward_and_update(inp2, dpred2)
                if config.o1o2_coupling == "joint":
                    dpred1 = dpred1 + dinp2[:, :2]
            heads["u1"].backward_and_update(inp1, dpred1)
        losses.append(loss)
    return {name: head.params for name, head in heads.items()}, np.array(losses)


# 1 step, one less than a chunk, one chunk, one more, and two chunks and one more
CHUNK_EDGES = [1, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 1]


class TestAgainstReference:
    @pytest.mark.parametrize("steps", CHUNK_EDGES)
    @pytest.mark.parametrize(
        "kw",
        [
            dict(method="o1"),
            dict(method="o1o2", o1o2_coupling="detached"),
            dict(method="o1o2", o1o2_coupling="joint"),
            dict(method="form", form_input_mode="time"),
            dict(method="form", form_input_mode="time-position"),
        ],
        ids=["o1", "o1o2-detached", "o1o2-joint", "form-time", "form-time-position"],
    )
    def test_bit_identical_to_forward_backward_per_array_adam(self, records, kw, steps):
        """One fused forward/backward pass per head and one flat Adam update for all heads,
        on minibatches drawn and gathered a chunk of steps at a time, give exactly the heads
        and losses of the long way round, which draws two index arrays per step."""
        config = quick(steps=steps, **kw)
        model = train(records, config)
        heads, losses = reference_train(records, config)
        assert np.array_equal(model.loss_curve, losses)
        assert set(model.heads) == set(heads)
        for name, ref in heads.items():
            for a, b in zip((*model.heads[name].weights, *model.heads[name].biases), (*ref.weights, *ref.biases)):
                assert np.array_equal(a, b), name


METHOD_CONFIGS = {
    "o1": dict(method="o1"),
    "o1o2-detached": dict(method="o1o2", o1o2_coupling="detached"),
    "o1o2-joint": dict(method="o1o2", o1o2_coupling="joint"),
    "form-time": dict(method="form", form_input_mode="time"),
    "form-time-position": dict(method="form", form_input_mode="time-position"),
}


class TestWorkspaceShapes:
    @pytest.mark.parametrize("steps", [1, CHUNK_STEPS + 4])
    @pytest.mark.parametrize("method", list(METHOD_CONFIGS))
    @pytest.mark.parametrize(
        "shape, n_traj",
        [
            (dict(hidden_dims=(7,)), None),
            (dict(hidden_dims=(16, 8, 4)), None),
            (dict(batch_size=1), None),
            (dict(batch_size=256), None),  # more rows per step than the 6 x 21 (trajectory, knot) pairs
            ({}, 1),  # every trajectory index drawn is 0
        ],
        ids=["one-hidden-layer", "three-hidden-layers", "batch-1", "batch-beyond-rows", "one-trajectory"],
    )
    def test_bit_identical_to_reference(self, records, method, shape, n_traj, steps):
        """The preallocated buffers of a step and of a chunk fit any depth, width, batch size and split."""
        config = quick(steps=steps, **{**METHOD_CONFIGS[method], **shape})
        split = records[:n_traj]
        model = train(split, config)
        heads, losses = reference_train(split, config)
        assert np.array_equal(model.loss_curve, losses)
        assert set(model.heads) == set(heads)
        for name, ref in heads.items():
            assert model.heads[name].layer_dims == ref.layer_dims
            for a, b in zip((*model.heads[name].weights, *model.heads[name].biases), (*ref.weights, *ref.biases)):
                assert np.array_equal(a, b), name


def _arrays(value):
    """Every ndarray in ``value``, a list or tuple of them, or None."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item)]
    return []


class TestNoAliasing:
    @pytest.mark.parametrize("method", ["o1", "o1o2-joint", "form-time-position"])
    def test_heads_own_their_buffers(self, records, monkeypatch, method):
        """Two runs return heads that share no memory with each other, with the
        data, or with any buffer the runs stepped in; ``train`` leaves the data as it was."""
        workspaces = []

        def recording(*args, **kwargs):
            workspaces.append(real(*args, **kwargs))
            return workspaces[-1]

        real = training.TrainingWorkspace
        monkeypatch.setattr(training, "TrainingWorkspace", recording)
        blocks = {name: getattr(records, name).copy() for name in ("x", "v", "a")}
        config = quick(**METHOD_CONFIGS[method])
        first, second = train(records, config), train(records, config)

        heads = [*first.heads.values(), *second.heads.values()]
        # one workspace per run holds all of its heads
        steppers = [obj for ws in workspaces for obj in (ws, *ws.heads.values())]
        buffers = [a for obj in steppers for value in vars(obj).values() for a in _arrays(value)]
        buffers += [getattr(records, name) for name in blocks]
        assert len(workspaces) == 2 and len(steppers) == 2 + len(heads) and buffers
        for i, head in enumerate(heads):
            for other in heads[i + 1 :] + buffers:
                assert not np.shares_memory(head.flat, other)

        kept = [head.flat.copy() for head in second.heads.values()]
        for head in first.heads.values():
            head.flat[:] = 0.0
            assert all(not np.any(w) for w in head.weights)
        assert all(np.array_equal(h.flat, k) for h, k in zip(second.heads.values(), kept))
        assert np.array_equal(kept[0], next(iter(train(records, config).heads.values())).flat)
        for name, block in blocks.items():
            assert np.array_equal(getattr(records, name), block), name


class TestSharedStreams:
    def test_o1_head_bitwise_equal_under_detached_o1o2(self, records):
        """With detached coupling, the u1 head of an o1o2 run is bit-identical
        to a plain o1 run at the same seed: same init stream, same batch
        stream, and no gradient flow from the u2 objective."""
        m1 = train(records, quick("o1", steps=60))
        m2 = train(records, quick("o1o2", steps=60, o1o2_coupling="detached"))
        for wa, wb in zip(m1.heads["u1"].weights, m2.heads["u1"].weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(m1.heads["u1"].biases, m2.heads["u1"].biases):
            assert np.array_equal(ba, bb)

    def test_joint_coupling_diverges_from_o1(self, records):
        m1 = train(records, quick("o1", steps=60))
        m2 = train(records, quick("o1o2", steps=60, o1o2_coupling="joint"))
        assert any(
            not np.array_equal(wa, wb)
            for wa, wb in zip(m1.heads["u1"].weights, m2.heads["u1"].weights)
        )


class TestHeads:
    def test_o1_heads(self, records):
        m = train(records, quick("o1"))
        assert set(m.heads) == {"u1"}
        assert m.heads["u1"].layer_dims == (3, 8, 8, 2)

    def test_o1o2_heads(self, records):
        m = train(records, quick("o1o2"))
        assert set(m.heads) == {"u1", "u2"}
        assert m.heads["u2"].layer_dims == (5, 8, 8, 2)

    def test_form_heads_time_mode(self, records):
        m = train(records, quick("form"))
        assert set(m.heads) == {"F"}
        assert m.heads["F"].layer_dims == (1, 8, 8, 2)

    def test_form_heads_time_position_mode(self, records):
        m = train(records, quick("form", form_input_mode="time-position"))
        assert m.heads["F"].layer_dims == (3, 8, 8, 2)


class TestLossBehavior:
    def test_constant_force_dataset_form_loss_collapses(self):
        """Onedot applies one constant lab force, so a time-only force head
        can drive the training loss near zero while velocity heads cannot
        (the target velocity field is multi-valued in t alone)."""
        recs = generate(DatasetSpec(kind="onedot", n_points=16, n_steps=40, seed=2))
        m_form = train(recs, quick("form", steps=2500, batch_size=32, learning_rate=3e-3))
        m_o1 = train(recs, quick("o1", steps=2500, batch_size=32, learning_rate=3e-3))
        form_tail = float(np.mean(m_form.loss_curve[-100:]))
        o1_tail = float(np.mean(m_o1.loss_curve[-100:]))
        assert form_tail < 1e-2
        assert o1_tail > 10 * form_tail

    def test_form_time_head_matches_constant_force(self):
        recs = generate(DatasetSpec(kind="onedot", n_points=16, n_steps=40, seed=2))
        m = train(recs, quick("form", steps=2500, batch_size=32, learning_rate=3e-3))
        t_grid = np.linspace(0.0, 1.0, 11)[:, None]
        pred = mlp_forward(m.heads["F"], t_grid)
        assert_allclose(pred, np.full_like(pred, 5.0), atol=0.35)

    def test_loss_curve_full_length(self, records):
        m = train(records, quick("o1", steps=40))
        assert len(m.loss_curve) == 40
        assert m.final_loss == m.loss_curve[-1]

    def test_nonfinite_guard(self, records):
        """Adam-normalized updates keep the loss finite (if huge) at any sane
        learning rate, so forcing weight overflow needs an absurd one."""
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            train(records, quick("o1", learning_rate=1e200, steps=50))

    @pytest.mark.parametrize(
        "method, learning_rate",
        [*((method, 1e200) for method in METHOD_CONFIGS), ("o1o2-detached", 9e152)],
        ids=[*METHOD_CONFIGS, "o1o2-detached-second-chunk"],
    )
    def test_nonfinite_guard_names_the_first_nonfinite_step(self, records, method, learning_rate):
        """The losses are checked once per chunk, but the error names the step and the loss of
        the reference's first non-finite loss, as a check after every step would: step 1 at a
        learning rate of 1e200, and step 26, in the second chunk, for the last case."""
        config = quick(learning_rate=learning_rate, steps=2 * CHUNK_STEPS, **METHOD_CONFIGS[method])
        with np.errstate(all="ignore"):
            _, losses = reference_train(records, config)
            step = int(np.argmin(np.isfinite(losses)))
            assert not np.isfinite(losses[step])
            message = f"{config.method} training diverged: loss = {float(losses[step])!r} at step {step}"
            with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
                train(records, config)


class TestMetadata:
    def test_trained_model_metadata(self, records):
        spec = DatasetSpec(kind="onedot", n_points=6, n_steps=20, seed=7)
        m = train(records, quick("form"), dataset_info=spec.to_dict())
        assert m.method == "form"
        assert m.duration == records[0].duration
        assert m.dataset_info["kind"] == "onedot"
        assert m.train_config.seed == 13

    def test_dataset_info_optional(self, records):
        m = train(records, quick("o1"))
        assert m.dataset_info is None

    def test_handedness_minus_one_rows_need_dataset_info(self):
        """Without a dataset spec the model would sample at +1, against the rows' -1."""
        spec = DatasetSpec(kind="spiral", n_points=6, n_steps=20, seed=7, handedness=-1)
        rows = generate(spec)
        match = "^rows simulated at handedness -1 need a dataset_info that records it, got none$"
        with pytest.raises(ValueError, match=match):
            train(rows, quick("form"))
        assert train(rows, quick("form", steps=2), dataset_info=spec.to_dict()).dataset_info["handedness"] == -1

    @pytest.mark.parametrize("rows_handedness", [1, -1])
    def test_dataset_info_of_the_other_handedness_is_refused(self, rows_handedness):
        spec = DatasetSpec(kind="spiral", n_points=6, n_steps=20, seed=7, handedness=rows_handedness)
        info = replace(spec, handedness=-rows_handedness).to_dict()
        match = (f"^rows simulated at handedness {rows_handedness} need a dataset_info that records it, "
                 f"got handedness {-rows_handedness}$")
        with pytest.raises(ValueError, match=match):
            train(generate(spec), quick("o1"), dataset_info=info)
