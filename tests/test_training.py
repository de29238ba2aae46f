"""Training loop: determinism, shared streams, oracle losses, couplings."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab.datasets import DatasetSpec, generate
from form_lab.errors import NonFiniteError
from form_lab.neural import mlp_forward
from form_lab.training import (
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


class TestStackRecords:
    def test_shapes(self, records):
        arrays = stack_records(records)
        n, k = len(records), records[0].n_steps
        assert arrays.x.shape == (n, k + 1, 2)
        assert arrays.v.shape == (n, k + 1, 2)
        assert arrays.a.shape == (n, k + 1, 2)
        assert arrays.f_par.shape == (n, k + 1)
        assert arrays.f_perp.shape == (n, k + 1)
        assert arrays.times.shape == (k + 1,)

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
