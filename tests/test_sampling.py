"""Samplers: frozen hand values, exact invariants, convergence, adapters."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab import datasets, sampling
from form_lab.datasets import KINDS, DatasetSpec
from form_lab.errors import DegenerateVelocityError, NonFiniteError, SpeedLimitError
from form_lab.neural import mlp_init
from form_lab.ode import uniform_grid
from form_lab.relativity import (
    EPS_V,
    PhysicsConfig,
    celerity_from_velocity,
    speed,
    velocity_from_celerity,
)
from form_lab.sampling import (
    SamplerConfig,
    flow_path,
    force_path,
    head_fn,
    ode_reference_path,
    sample_form,
    sample_o1,
    sample_o1o2,
)
from form_lab.training import TrainConfig, TrainedModel

PHYS = PhysicsConfig(c=10.0, m=1.0)


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_steps=0),
            dict(n_steps=10.0),
            dict(n_steps=True),
            dict(velocity_update="bogus"),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SamplerConfig(**kw)


class TestFlowPaths:
    def test_o1_constant_velocity_exact(self):
        """Euler on a constant field reproduces straight-line motion."""
        v = np.array([3.0, -1.5])
        path = flow_path(lambda x, t: v, np.zeros(2), duration=2.0, n_steps=16)
        assert_allclose(path.endpoint, 2.0 * v, rtol=1e-12)
        assert path.x.shape == (17, 2)
        assert path.n_steps == 16

    def test_o1o2_frozen_two_step(self):
        # [DERIVED] u1 = (1, 0), u2 = (0, 2), duration 1, 2 steps of d = 0.5:
        #   x1 = (0.5*1, 0.125*2) = (0.5, 0.25)
        #   x2 = x1 + (0.5, 0.25) = (1.0, 0.5)
        path = flow_path(
            lambda x, t: np.broadcast_to([1.0, 0.0], x.shape),
            np.zeros(2),
            duration=1.0,
            n_steps=2,
            accel_fn=lambda u1, x, t: np.broadcast_to([0.0, 2.0], x.shape),
        )
        assert_allclose(path.x[1], [0.5, 0.25], rtol=0, atol=0)
        assert_allclose(path.endpoint, [1.0, 0.5], rtol=0, atol=0)

    def test_o1o2_quadratic_path_exact(self):
        """A linear-in-t velocity field with its exact time derivative is
        integrated without error by the second-order update."""
        a = np.array([0.8, -0.6])

        def u1(x, t):
            return np.broadcast_to(a * t, x.shape)

        def u2(u1v, x, t):
            return np.broadcast_to(a, x.shape)

        path = flow_path(u1, np.zeros(2), duration=1.0, n_steps=7, accel_fn=u2)
        assert_allclose(path.endpoint, 0.5 * a, rtol=1e-13)

    def test_batched(self):
        x0 = np.random.default_rng(0).normal(size=(5, 2))
        path = flow_path(lambda x, t: -x, x0, duration=1.0, n_steps=4)
        assert path.x.shape == (5, 5, 2)
        single = flow_path(lambda x, t: -x, x0[2], duration=1.0, n_steps=4)
        assert np.array_equal(path.x[:, 2], single.x)

    def test_second_order_term_is_added_last(self):
        """Each step is (x + d u1) + (d^2/2) u2, in that order, with u2 fed the step's u1 and x."""
        x0 = np.random.default_rng(1).normal(size=(7, 2))

        def u1(x, t):
            return np.sin(3.0 * x) + t

        def u2(u1v, x, t):
            return u1v * x - 1.7 * t

        path = flow_path(u1, x0, duration=0.9, n_steps=5, accel_fn=u2)
        times, d = uniform_grid(0.9, 5)
        x = x0
        for k in range(5):
            t = float(times[k])
            x = x + d * u1(x, t) + (0.5 * d * d) * u2(u1(x, t), x, t)
            assert _bits(path.x[k + 1]) == _bits(x)


class TestForcePath:
    def test_perpendicular_only_preserves_speed(self):
        """With f_par = 0 the celerity magnitude is updated by exactly +0.0
        each step, so the speed is constant to machine precision."""
        v0 = np.array([6.0, 0.0])
        path = force_path(
            lambda x, t: (0.0, 25.0), np.zeros(2), v0, 1.0, 50, physics=PHYS
        )
        speeds = speed(path.v)
        assert float(np.max(np.abs(speeds - 6.0))) < 1e-13

    def test_parallel_only_linear_celerity(self):
        """With f_perp = 0 the celerity magnitude is w0 + (f_par/m) t on the
        grid and the heading never changes."""
        v0 = np.array([2.0, 0.0])
        g = 7.0
        path = force_path(lambda x, t: (g, 0.0), np.zeros(2), v0, 1.0, 20, physics=PHYS)
        w = celerity_from_velocity(path.v, PHYS)
        w0 = float(np.linalg.norm(celerity_from_velocity(v0, PHYS)))
        assert_allclose(np.linalg.norm(w, axis=-1), w0 + g * path.times, rtol=1e-12)
        assert np.all(path.v[:, 1] == 0.0)

    def test_handedness_mirror(self):
        left = force_path(
            lambda x, t: (1.0, 8.0), np.zeros(2), [3.0, 0.0], 1.0, 30, physics=PHYS, handedness=1
        )
        right = force_path(
            lambda x, t: (1.0, 8.0), np.zeros(2), [3.0, 0.0], 1.0, 30, physics=PHYS, handedness=-1
        )
        assert_allclose(right.x[:, 0], left.x[:, 0], rtol=1e-12, atol=1e-14)
        assert_allclose(right.x[:, 1], -left.x[:, 1], rtol=1e-12, atol=1e-14)

    def test_subluminal_under_extreme_force(self):
        """The momentum-exact update cannot cross c for any force or grid."""
        path = force_path(
            lambda x, t: (5e4, 3e4), np.zeros(2), [1.0, 0.0], 1.0, 10, physics=PHYS
        )
        assert float(np.max(speed(path.v))) < PHYS.c
        assert float(np.max(speed(path.v))) > 0.999 * PHYS.c  # genuinely pushed

    def test_euler_mode_crosses_c_on_coarse_grid(self):
        with pytest.raises(SpeedLimitError):
            force_path(
                lambda x, t: (1000.0, 0.0),
                np.zeros(2),
                [9.9, 0.0],
                1.0,
                1,
                physics=PHYS,
                velocity_update="euler",
            )

    def test_euler_mode_agrees_when_gentle(self):
        args = (lambda x, t: (0.5, 0.3), np.zeros(2), [1.0, 0.0], 1.0, 400)
        a = force_path(*args, physics=PHYS, velocity_update="momentum-exact")
        b = force_path(*args, physics=PHYS, velocity_update="euler")
        assert_allclose(a.endpoint, b.endpoint, atol=5e-3)

    @pytest.mark.parametrize("update", ["momentum-exact", "euler"])
    @pytest.mark.parametrize("start", [0, 4], ids=["t0", "mid-run"])
    @pytest.mark.parametrize("per_point", [False, True], ids=["shared", "per-point"])
    @pytest.mark.parametrize(
        "bad", [(np.nan, 0.2), (0.5, np.nan), (np.inf, 0.2), (0.5, np.inf), (0.5, -np.inf), (-np.inf, 0.2)], ids=str
    )
    def test_non_finite_force_is_refused_at_its_step(self, update, start, per_point, bad):
        """A NaN or infinite force is refused in the step that meets it, an infinite braking force included."""
        seen = []

        def components(x, t):
            seen.append(t)
            f = bad if len(seen) > start else (0.5, 0.2)
            return tuple(np.full(x.shape[:-1], c) for c in f) if per_point else f

        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NonFiniteError):
            force_path(components, np.zeros((3, 2)), [1.0, 0.5], 1.0, 10, physics=PHYS, velocity_update=update)
        assert len(seen) == start + 1

    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_overflowing_celerity_is_refused(self, n_steps):
        """The first step of a particle of mass 1e-300 takes |w| to 1e300, so
        |w|^2 overflows: it is refused there, not recorded as v = 0."""
        light = PhysicsConfig(c=10.0, m=1e-300)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="celerity overflows"):
            force_path(lambda x, t: (1.0, 0.0), np.zeros((3, 2)), [1.0, 0.0], 1.0, n_steps, physics=light)

    def test_rest_start_with_force_is_error(self):
        with pytest.raises(DegenerateVelocityError):
            force_path(lambda x, t: (1.0, 0.0), np.zeros(2), np.zeros(2), 1.0, 10, physics=PHYS)

    def test_braking_through_zero_is_error(self):
        with pytest.raises(DegenerateVelocityError):
            force_path(
                lambda x, t: (-100.0, 0.0), np.zeros(2), [0.1, 0.0], 1.0, 100, physics=PHYS
            )

    def test_convergence_to_rk4_reference(self):
        """Freezing the components per step makes the sampler first-order in
        a time-varying field: halving the step roughly halves the endpoint
        error against an oversampled RK4 reference."""

        def components(x, t):
            return (2.0 * math.sin(3.0 * t), 9.0 * math.cos(2.0 * t))

        x0, v0 = np.zeros(2), np.array([4.0, 1.0])
        ref = ode_reference_path(components, x0, v0, 1.0, 4000, physics=PHYS).endpoint
        errs = []
        for n in (50, 100, 200):
            end = force_path(components, x0, v0, 1.0, n, physics=PHYS).endpoint
            errs.append(float(np.linalg.norm(end - ref)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.35)

    def test_reference_path_subluminal(self):
        ref = ode_reference_path(
            lambda x, t: (30.0, 10.0), np.zeros(2), [1.0, 0.0], 1.0, 200, physics=PHYS
        )
        assert float(np.max(speed(ref.v))) < PHYS.c


class TestModelAdapters:
    def test_sample_shapes(self, tiny_models, tiny_onedot):
        _, records = tiny_onedot
        x0 = np.stack([r.x0 for r in records[:3]])
        cfg = SamplerConfig(n_steps=12)
        for name, sampler in [("o1", sample_o1), ("o1o2", sample_o1o2), ("form", sample_form)]:
            path = sampler(tiny_models[name], x0, cfg)
            assert path.x.shape == (13, 3, 2)
            assert np.array_equal(path.x[0], x0)

    def test_head_mismatch_raises(self, tiny_models):
        x0 = np.zeros((1, 2))
        with pytest.raises(ValueError, match="has no 'u1' head"):
            sample_o1(tiny_models["form"], x0)
        with pytest.raises(ValueError, match="has no 'u2' head"):
            sample_o1o2(tiny_models["o1"], x0)
        with pytest.raises(ValueError, match="has no 'F' head"):
            sample_form(tiny_models["o1"], x0)

    def test_form_default_v0_matches_dataset_rule(self, tiny_models):
        """For this dataset family the rule is v0 = velocity_scale * x0."""
        x0 = np.array([[0.2, -0.1], [-0.3, 0.4]])
        path = sample_form(tiny_models["form"], x0, SamplerConfig(n_steps=5))
        assert_allclose(path.v[0], 4.0 * x0, rtol=1e-15)

    def test_form_zero_v0_with_nonzero_force_is_error(self, tiny_models):
        """Starting at rest is only legal when the learned force vanishes
        there; this briefly-trained head does not, so it must hard-error."""
        with pytest.raises(DegenerateVelocityError):
            sample_form(tiny_models["form"], np.array([[0.2, 0.1]]), SamplerConfig(n_steps=5), v0=np.zeros(2))

    def test_form_v0_is_none_or_an_array(self, tiny_models):
        with pytest.raises(ValueError):
            sample_form(tiny_models["form"], np.array([[0.2, 0.1]]), SamplerConfig(n_steps=5), v0="zero")

    def test_form_explicit_v0(self, tiny_models):
        x0 = np.array([[0.2, 0.1]])
        v0 = np.array([[1.0, 2.0]])
        path = sample_form(tiny_models["form"], x0, SamplerConfig(n_steps=5), v0=v0)
        assert np.array_equal(path.v[0], v0)

    def test_time_normalization(self):
        """Adapters feed the head t / duration: evaluating the wrapped head
        at lab time t equals evaluating the raw MLP at t / duration."""
        from form_lab.neural import mlp_forward
        from form_lab.relativity import DEFAULT_PHYSICS

        head = mlp_init((3, 6, 2), seed=21)
        model = TrainedModel(
            method="o1",
            heads={"u1": head},
            duration=2.0,
            physics=DEFAULT_PHYSICS,
            train_config=TrainConfig(method="o1"),
        )
        fn = head_fn(model, "u1")
        x = np.array([[0.3, -0.7]])
        got = fn(x, 1.0)
        expected = mlp_forward(head, np.array([[0.3, -0.7, 0.5]]))
        assert np.array_equal(got, expected)

    def test_model_without_dataset_info_needs_explicit_v0(self):
        model = TrainedModel(
            method="form",
            heads={"F": mlp_init((1, 4, 2), seed=0)},
            duration=1.0,
            physics=PHYS,
            train_config=TrainConfig(method="form"),
        )
        with pytest.raises(ValueError):
            sample_form(model, np.array([[0.1, 0.2]]), SamplerConfig(n_steps=3))


def _reference_update(w, f_par, f_perp, d, physics, handedness):
    """The momentum-exact step as first written: every force broadcast to every
    point and both sides of each mask evaluated.  Kept verbatim as the
    bit-for-bit reference for ``sampling._momentum_exact_update``."""
    m = physics.m
    lead = w.shape[:-1]
    f_par = np.broadcast_to(np.asarray(f_par, dtype=np.float64), lead)
    f_perp = np.broadcast_to(np.asarray(f_perp, dtype=np.float64), lead)
    wmag = np.sqrt(np.sum(w * w, axis=-1))
    resting = wmag <= EPS_V
    if np.any(resting & ((f_par != 0.0) | (f_perp != 0.0))):
        raise DegenerateVelocityError(
            "force sampler reached (numerically) zero speed with a nonzero force"
        )
    safe_w = np.where(resting, 1.0, wmag)
    wmag_new = wmag + f_par * (d / m)
    if np.any(~resting & (wmag_new <= 0.0)):
        raise DegenerateVelocityError(
            "parallel impulse drives the celerity through zero within one step; increase n_steps"
        )
    par_zero = f_par == 0.0
    ratio = f_par * (d / m) / safe_w
    dphi = handedness * np.where(
        par_zero,
        f_perp * (d / m) / safe_w,
        (f_perp / np.where(par_zero, 1.0, f_par)) * np.log1p(np.where(par_zero, 0.0, ratio)),
    )
    cos_p, sin_p = np.cos(dphi), np.sin(dphi)
    u = w / safe_w[..., None]
    u_new = np.stack(
        [cos_p * u[..., 0] - sin_p * u[..., 1], sin_p * u[..., 0] + cos_p * u[..., 1]],
        axis=-1,
    )
    w_new = wmag_new[..., None] * u_new
    return velocity_from_celerity(w_new, physics), w_new


def _momentum_exact_update(w, f_par, f_perp, d, physics, handedness):
    """``sampling._momentum_exact_update`` called like ``_reference_update``:
    ``(..., 2)`` celerities in, ``(v, w)`` out.  Also checks that the ``|w|^2``
    it hands to the next step is that of the celerity it returns."""
    rows = np.moveaxis(np.asarray(w, dtype=np.float64), -1, 0).copy()
    v = np.empty_like(rows)
    w_new, sq = sampling._momentum_exact_update(rows, np.sum(rows * rows, axis=0), f_par, f_perp, d, physics, handedness, v)
    assert _bits(sq) == _bits(np.sum(w_new * w_new, axis=0))
    return np.moveaxis(v, 0, -1), np.moveaxis(w_new, 0, -1)


def _reference_on_rows(w, sq, f_par, f_perp, d, physics, handedness, v):
    """``_reference_update`` with the row signature ``force_path`` calls each step."""
    v_new, w_new = _reference_update(np.moveaxis(w, 0, -1).copy(), f_par, f_perp, d, physics, handedness)
    v[...] = np.moveaxis(v_new, -1, 0)
    w_rows = np.moveaxis(w_new, -1, 0).copy()
    return w_rows, np.sum(w_rows * w_rows, axis=0)


def _bits(arr):
    arr = np.asarray(arr)
    return arr.shape, arr.dtype, arr.tobytes()


def _assert_same_step(w, f_par, f_perp, handedness, d=0.05):
    got = _momentum_exact_update(w, f_par, f_perp, d, PHYS, handedness)
    want = _reference_update(w, f_par, f_perp, d, PHYS, handedness)
    for g, r in zip(got, want):
        assert _bits(g) == _bits(r)


def _celerities(shape, seed=0):
    """Celerities of random subluminal velocities, including speeds near c."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=shape)
    v *= (rng.uniform(0.05, 0.999, size=shape[:-1]) * PHYS.c / speed(v))[..., None]
    return celerity_from_velocity(v, PHYS)


SHAPES = [(2,), (9, 2), (3, 4, 2)]


class TestMomentumExactUpdateBits:
    """The scalar-force fast path and mask skipping change no output bit."""

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize(
        "f_par, f_perp",
        [(0.0, 0.0), (0.0, 25.0), (7.0, 0.0), (3.5, -12.0), (-0.4, 6.0), (1e-300, 1.0), (-0.0, 2.0), (9e4, 3e4)],
    )
    def test_scalar_force(self, shape, handedness, f_par, f_perp):
        w = _celerities(shape)
        for wrap in (float, np.float64, np.array):  # Python float, numpy scalar, 0-d array
            _assert_same_step(w, wrap(f_par), wrap(f_perp), handedness)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize("zeros", ["none", "some", "all"])
    def test_per_point_force(self, shape, handedness, zeros):
        rng = np.random.default_rng(1)
        w = _celerities(shape, seed=2)
        lead = shape[:-1]
        f_par = rng.uniform(-0.5, 20.0, size=lead)
        f_perp = rng.normal(scale=30.0, size=lead)
        if zeros == "all":
            f_par = np.zeros(lead)
        elif zeros == "some":
            f_par = np.where(rng.uniform(size=lead) < 0.5, 0.0, f_par)
        _assert_same_step(w, f_par, f_perp, handedness)
        _assert_same_step(w, f_par, 4.0, handedness)  # one component per point, one shared
        _assert_same_step(w, 0.0, f_perp, handedness)

    @pytest.mark.parametrize("handedness", [1, -1])
    def test_broadcast_per_point_force(self, handedness):
        """A force shaped like a trailing part of the batch broadcasts as before."""
        w = _celerities((3, 4, 2), seed=3)
        _assert_same_step(w, np.linspace(0.0, 3.0, 4), np.linspace(-5.0, 5.0, 4), handedness)
        _assert_same_step(w, np.full((1, 4), 2.0), np.ones((3, 1)), handedness)

    @pytest.mark.parametrize("handedness", [1, -1])
    def test_resting_points_under_zero_force(self, handedness):
        w = _celerities((6, 2), seed=4)
        w[[1, 4]] = 0.0
        w[2] = [EPS_V / 2, 0.0]
        _assert_same_step(w, 0.0, 0.0, handedness)
        f_par = np.where(speed(w) <= EPS_V, 0.0, 2.0)
        f_perp = np.where(speed(w) <= EPS_V, 0.0, -3.0)
        _assert_same_step(w, f_par, f_perp, handedness)
        _assert_same_step(w, np.where(speed(w) <= EPS_V, 0.0, -1.0), f_perp, handedness)
        _assert_same_step(np.zeros(2), 0.0, 0.0, handedness)

    @pytest.mark.parametrize("update", [_momentum_exact_update, _reference_update])
    @pytest.mark.parametrize(
        "w, f_par, f_perp",
        [
            (np.zeros((3, 2)), 1.0, 0.0),
            (np.zeros((3, 2)), 0.0, -1.0),
            (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.0, 0.0]), np.array([0.0, 2.0])),
            (np.array([[0.1, 0.0], [2.0, 0.0]]), -100.0, 0.0),
            (np.array([[0.1, 0.0], [2.0, 0.0]]), np.array([0.0, -100.0]), 0.0),
            (np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([0.0, -100.0]), 0.0),
        ],
    )
    def test_degenerate_steps_raise(self, update, w, f_par, f_perp):
        """At rest with a nonzero force, and braking through zero, still raise."""
        with pytest.raises(DegenerateVelocityError):
            update(w, f_par, f_perp, 0.1, PHYS, 1)

    @pytest.mark.parametrize(
        "update, match",
        [(_momentum_exact_update, "do not broadcast to the points"), (_reference_update, None)],
    )
    def test_column_force_is_rejected(self, update, match):
        """(N, 1) components on (N,) points would broadcast silently to (N, N)."""
        w = _celerities((5, 2))
        for f_par, f_perp in [(np.ones((5, 1)), np.ones((5, 1))), (1.0, np.ones((5, 1)))]:
            with pytest.raises(ValueError, match=match):
                update(w, f_par, f_perp, 0.1, PHYS, 1)
        with pytest.raises(ValueError):
            update(w, np.ones(3), 1.0, 0.1, PHYS, 1)

    def test_column_force_is_rejected_by_force_path(self):
        with pytest.raises(ValueError, match="do not broadcast to the points"):
            force_path(lambda x, t: (np.ones((4, 1)), np.ones((4, 1))), np.zeros((4, 2)), [1.0, 0.0], 1.0, 3)


def _form_model(input_mode, seed, handedness=1):
    """An untrained force head scaled up so that it steers hard, pushing forward, on a dataset of ``handedness``."""
    head = mlp_init((1 if input_mode == "time" else 3, 16, 2), seed=seed)
    head.weights[-1][...] *= 10.0
    head.biases[-1][...] = (30.0, 0.0)
    spec = DatasetSpec(kind="halfmoons", n_points=16, seed=seed, handedness=handedness)
    return TrainedModel(
        method="form",
        heads={"F": head},
        duration=spec.duration,
        physics=PhysicsConfig(),
        train_config=TrainConfig(method="form", form_input_mode=input_mode),
        dataset_info=spec.to_dict(),
    )


class TestSampleFormBits:
    @pytest.mark.parametrize("input_mode", ["time", "time-position"])
    @pytest.mark.parametrize("n_steps", [1, 10])
    @pytest.mark.parametrize("handedness", [1, -1])
    def test_matches_reference_update(self, monkeypatch, input_mode, n_steps, handedness):
        model = _form_model(input_mode, seed=5, handedness=handedness)
        x0 = np.random.default_rng(6).normal(scale=0.5, size=(16, 2))
        cfg = SamplerConfig(n_steps=n_steps)
        got = sample_form(model, x0, cfg)
        calls = []

        def reference(*args):
            calls.append(args[0].shape)
            return _reference_on_rows(*args)

        monkeypatch.setattr(sampling, "_momentum_exact_update", reference)
        want = sample_form(model, x0, cfg)
        assert calls == [(2, 16)] * n_steps  # force_path took the reference for every step
        assert _bits(got.x) == _bits(want.x)
        assert _bits(got.v) == _bits(want.v)

    def test_calls_force_path_through_the_module_global(self, monkeypatch):
        """Tracing wraps ``form_lab.sampling.force_path`` and ``form_lab.sampling.mlp_forward``;
        sample_form must call them there: a time-only head once per step, one row each."""
        calls, rows = [], []
        real_path, real_forward = sampling.force_path, sampling.mlp_forward

        def spy(*args, **kwargs):
            calls.append(args[3:5])
            return real_path(*args, **kwargs)

        def forward_spy(params, x):
            x = np.asarray(x)
            rows.append(x.reshape(-1, x.shape[-1]).shape)
            return real_forward(params, x)

        monkeypatch.setattr(sampling, "force_path", spy)
        monkeypatch.setattr(sampling, "mlp_forward", forward_spy)
        model = _form_model("time", seed=7)
        path = sample_form(model, np.zeros((3, 2)) + 0.3, SamplerConfig(n_steps=4))
        assert calls == [(model.duration, 4)]
        assert rows == [(1, 1)] * 4
        assert path.x.shape == (5, 3, 2)


def _reference_path(components_fn, x0, v0, duration, n_steps, physics, handedness):
    """``force_path`` as first written: a loop over ``_reference_update`` on
    ``(..., 2)`` vectors and the trapezoid rule for the positions."""
    x = np.array(x0, dtype=np.float64)
    v = np.broadcast_to(np.asarray(v0, dtype=np.float64), x.shape).copy()
    times, d = uniform_grid(duration, n_steps)
    w = celerity_from_velocity(v, physics)
    xs, vs = [x], [v]
    for k in range(n_steps):
        f_par, f_perp = components_fn(x, float(times[k]))
        v_new, w = _reference_update(w, f_par, f_perp, d, physics, handedness)
        x = x + (0.5 * d) * (v_new + v)
        v = v_new
        xs.append(x)
        vs.append(v)
    return np.stack(xs), np.stack(vs)


def _outcome(run):
    """The path bits, or the type and message of the error raised."""
    try:
        xs, vs = run()
    except (DegenerateVelocityError, NonFiniteError) as e:
        return type(e), str(e)
    return _bits(xs), _bits(vs)


def _assert_same_path(components_fn, x0, v0, n_steps, handedness, duration=1.0):
    def got():
        path = force_path(components_fn, x0, v0, duration, n_steps, physics=PHYS, handedness=handedness)
        return path.x, path.v

    def want():
        return _reference_path(components_fn, x0, v0, duration, n_steps, PHYS, handedness)

    outcome = _outcome(got)
    assert outcome == _outcome(want)
    return outcome


def _stress_case(kind, seed=4):
    """A 100x stress schedule on 16 points, as scripts/stress_speed_limit.py builds it."""
    sspec = datasets.stress_spec(DatasetSpec(kind=kind, n_points=48, seed=seed), factor=100.0)
    schedule = datasets.force_schedule_for(sspec)
    x0 = datasets.source_points(sspec, list(range(16)))
    return sspec, (lambda x, t: (schedule.f_par(t), schedule.f_perp(t))), x0, datasets.initial_velocity(sspec, x0)


class TestForcePathBits:
    """Whole paths of the row sampler equal the loop over ``_reference_update``, bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_steps", [1, 10, 100])
    @pytest.mark.parametrize("handedness", [1, -1])
    def test_stress_schedules(self, kind, n_steps, handedness):
        sspec, components, x0, v0 = _stress_case(kind)
        outcome = _assert_same_path(components, x0, v0, n_steps, handedness, sspec.duration)
        assert outcome[0][0] == (n_steps + 1, 16, 2)  # a path, not an error

    @pytest.mark.parametrize("shape", [(2,), (16, 2), (3, 4, 2)], ids=str)
    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize(
        "components",
        [
            lambda x, t: (0.3 * np.sin(5.0 * x[..., 0]) + t, 20.0 * x[..., 1]),  # brakes some points, never to rest
            lambda x, t: (np.where(x[..., 0] > 0.0, 0.0, 0.3 * np.sin(5.0 * x[..., 1])), np.float64(-4.0)),
            lambda x, t: (2.0, 15.0 * x[..., 1]),
            lambda x, t: (0.0, 30.0 * np.sin(3.0 * t)),
            lambda x, t: (-0.0, -12.0),
            lambda x, t: (np.array(6.0 * t), np.array(-1.5)),
        ],
        ids=["per-point", "per-point-some-zero", "shared-par-per-point-perp", "zero-par", "negative-zero-par", "0d-arrays"],
    )
    def test_forces_and_shapes(self, shape, handedness, components):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=shape)
        v0 = velocity_from_celerity(_celerities(shape, seed=10), PHYS)
        outcome = _assert_same_path(components, x0, v0, 25, handedness)
        assert outcome[0][0] == (26, *shape)

    @pytest.mark.parametrize("handedness", [1, -1])
    def test_resting_points_under_zero_force(self, handedness):
        v0 = velocity_from_celerity(_celerities((6, 2), seed=11), PHYS)
        v0[[0, 3]] = 0.0
        v0[4] = [0.0, -0.0]
        x0 = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
        _assert_same_path(lambda x, t: (0.0, 0.0), x0, v0, 10, handedness)
        moving = speed(v0) > EPS_V
        _assert_same_path(lambda x, t: (np.where(moving, 1.5, 0.0), np.where(moving, -7.0, 0.0)), x0, v0, 10, handedness)

    @pytest.mark.parametrize("shape", [(2,), (16, 2)], ids=str)
    def test_nan_force_raises(self, shape):
        x0 = np.full(shape, 0.1)
        for components in (lambda x, t: (np.nan, 1.0), lambda x, t: (2.0, np.full(shape[:-1], np.nan))):
            outcome = _assert_same_path(components, x0, 0.5 * x0, 5, 1)
            assert outcome == (NonFiniteError, "celerity must be finite")

    @pytest.mark.parametrize("components", [lambda x, t: (-100.0, 3.0), lambda x, t: (-100.0 * np.ones(4), 3.0)])
    def test_braking_raises(self, components):
        outcome = _assert_same_path(components, np.zeros((4, 2)), [0.1, 0.0], 100, 1)
        assert outcome == (
            DegenerateVelocityError,
            "parallel impulse drives the celerity through zero within one step; increase n_steps",
        )

    def test_push_at_rest_raises(self):
        v0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        outcome = _assert_same_path(lambda x, t: (0.0, 2.0), np.zeros((2, 2)), v0, 3, 1)
        assert outcome == (DegenerateVelocityError, "force sampler reached (numerically) zero speed with a nonzero force")
