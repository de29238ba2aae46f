"""Training loop: determinism, shared streams, oracle losses, couplings."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab.datasets import DatasetSpec, generate
from form_lab.errors import NonFiniteError
from form_lab.neural import MlpParams, mlp_backward, mlp_forward, mlp_init
from form_lab.training import (
    STREAM_BATCH,
    STREAM_F,
    STREAM_U1,
    STREAM_U2,
    TrainConfig,
    stack_records,
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
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_steps_for_epochs(self):
        assert steps_for_epochs(epochs=1, n_train=100, batch_size=32) == 4
        assert steps_for_epochs(epochs=10, n_train=128, batch_size=128) == 10
        with pytest.raises(ValueError):
            steps_for_epochs(epochs=0, n_train=10, batch_size=2)

    @pytest.mark.parametrize("epochs", [float("inf"), float("nan"), 1e308])
    def test_steps_for_epochs_needs_finite_epochs(self, epochs):
        with pytest.raises(ValueError, match="epochs must be positive and finite"):
            steps_for_epochs(epochs=epochs, n_train=100, batch_size=32)


class TestStackRecords:
    def test_shapes(self, records):
        batch = stack_records(list(records))
        n, k = len(records), records[0].n_steps
        for name in ("x", "v", "a", "f"):
            assert getattr(batch, name).shape == (n, k + 1, 2), name
        for name in ("times", "f_par", "f_perp"):
            assert getattr(batch, name).shape == (k + 1,), name
            assert not getattr(batch, name).flags.writeable, name
        assert batch.index.tolist() == list(range(n))

    def test_sorts_by_index_into_the_same_bits(self, records):
        batch = stack_records(list(reversed(records)))
        for name in ("index", "times", "x", "v", "a", "f", "f_par", "f_perp"):
            assert np.array_equal(getattr(batch, name), getattr(records, name)), name

    def test_a_batch_comes_back_uncopied(self, records):
        assert stack_records(records) is records

    def test_rejects_mixed_schedules(self, records):
        other = generate(DatasetSpec(kind="onedot", n_points=6, n_steps=20, seed=7, force_scale=2.0))
        with pytest.raises(ValueError, match=r"records \[3, 4, 5\] have a force schedule other than record 0's"):
            stack_records([*records[:3], *other[3:]])

    def test_rejects_mixed_grids(self, records):
        other = generate(DatasetSpec(kind="onedot", n_points=2, n_steps=10, seed=7))
        with pytest.raises(ValueError):
            stack_records(list(records) + list(other))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            stack_records([])


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


class TestAgainstReference:
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
    def test_bit_identical_to_forward_backward_per_array_adam(self, records, kw):
        """One fused forward/backward pass and one flat Adam update per head
        give exactly the heads and losses of the long way round."""
        config = quick(steps=30, **kw)
        model = train(records, config)
        heads, losses = reference_train(records, config)
        assert np.array_equal(model.loss_curve, losses)
        assert set(model.heads) == set(heads)
        for name, ref in heads.items():
            for a, b in zip((*model.heads[name].weights, *model.heads[name].biases), (*ref.weights, *ref.biases)):
                assert np.array_equal(a, b), name


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
