"""MLP forward/backward/Adam: gradient checks and optimizer behavior."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab.errors import ShapeError
from form_lab.neural import (
    MlpParams,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_init,
)


def numerical_grads(params, x, grad_output, h=1e-5):
    """Central-difference gradients of loss = <grad_output, f(x)> w.r.t. params."""
    import copy

    def loss_with(weights, biases):
        from form_lab.neural import MlpParams

        p = params.__class__(params.layer_dims, tuple(weights), tuple(biases))
        return float(np.sum(grad_output * mlp_forward(p, x)))

    dw, db = [], []
    for l, w in enumerate(params.weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp = [arr.copy() for arr in params.weights]
            wm = [arr.copy() for arr in params.weights]
            wp[l][idx] += h
            wm[l][idx] -= h
            g[idx] = (loss_with(wp, params.biases) - loss_with(wm, params.biases)) / (2 * h)
        dw.append(g)
    for l, b in enumerate(params.biases):
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            bp = [arr.copy() for arr in params.biases]
            bm = [arr.copy() for arr in params.biases]
            bp[l][idx] += h
            bm[l][idx] -= h
            g[idx] = (loss_with(params.weights, bp) - loss_with(params.weights, bm)) / (2 * h)
        db.append(g)
    return MlpParams(params.layer_dims, tuple(dw), tuple(db))


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)))


def arrays(p):
    return [*p.weights, *p.biases]


def all_equal(xs, ys):
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


def reference_backward(params, x2d, grad_output):
    """Per-array backprop through a second forward pass, with fresh arrays for every operation."""
    acts, a = [x2d], x2d
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.tanh(a @ w.T + b)
        acts.append(a)
    g, dw, db = grad_output, [], []
    for l in range(len(params.weights) - 1, -1, -1):
        dw.insert(0, g.T @ acts[l])
        db.insert(0, g.sum(axis=0))
        g = g @ params.weights[l]
        if l > 0:
            g = g * (1.0 - acts[l] ** 2)
    return dw + db, g


def reference_adam(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-array bias-corrected Adam; ``state`` is (step, first moments, second moments)."""
    step, ms, vs = state
    t = step + 1
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(arrays(params), arrays(grads), ms, vs):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        new_p.append(p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps))
        new_m.append(m)
        new_v.append(v)
    n = len(params.weights)
    return MlpParams(params.layer_dims, tuple(new_p[:n]), tuple(new_p[n:])), (t, new_m, new_v)


def split_like(p, flat):
    """``flat`` cut into arrays shaped like ``p``'s weights, then biases."""
    out, start = [], 0
    for a in arrays(p):
        out.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return out


class TestInit:
    def test_shapes_and_glorot_bounds(self):
        p = mlp_init((3, 64, 64, 2), seed=0)
        assert p.layer_dims == (3, 64, 64, 2)
        assert [w.shape for w in p.weights] == [(64, 3), (64, 64), (2, 64)]
        assert [b.shape for b in p.biases] == [(64,), (64,), (2,)]
        for w in p.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            assert np.all(np.abs(w) <= limit)
        assert all(np.all(b == 0.0) for b in p.biases)

    def test_seed_determinism(self):
        a, b = mlp_init((2, 8, 1), seed=5), mlp_init((2, 8, 1), seed=5)
        c = mlp_init((2, 8, 1), seed=6)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_validation(self):
        with pytest.raises(ValueError):
            mlp_init((4,), seed=0)

    def test_separate_arrays_packed_into_one_buffer(self):
        """MlpParams from separate arrays copies them into one flat buffer, weights then biases."""
        p = mlp_init((3, 4, 2), seed=0)
        weights = tuple(w.copy() for w in p.weights)
        q = MlpParams(p.layer_dims, weights, p.biases)
        assert np.array_equal(q.flat, np.concatenate([a.ravel() for a in arrays(p)]))
        assert all(np.shares_memory(a, q.flat) for a in arrays(q))
        assert not np.shares_memory(q.weights[0], weights[0])

    def test_separate_arrays_must_fit_layer_dims(self):
        p = mlp_init((3, 4, 2), seed=0)
        with pytest.raises(ShapeError):
            MlpParams(p.layer_dims, (p.weights[0].T, p.weights[1]), p.biases)


class TestForward:
    def test_single_equals_batch_row(self):
        """Row-wise agreement to machine precision (not bitwise: the BLAS
        kernel differs between matrix-matrix and matrix-vector products)."""
        p = mlp_init((3, 7, 2), seed=1)
        x = np.random.default_rng(0).normal(size=(5, 3))
        batch = mlp_forward(p, x)
        assert batch.shape == (5, 2)
        for i in range(5):
            assert_allclose(mlp_forward(p, x[i]), batch[i], rtol=1e-14, atol=1e-15)

    def test_leading_axes_preserved(self):
        p = mlp_init((2, 4, 1), seed=2)
        x = np.zeros((3, 5, 2))
        assert mlp_forward(p, x).shape == (3, 5, 1)

    def test_linear_output_layer(self):
        """No activation on the output: doubling last-layer weights doubles
        the output of a zero-bias single-layer net."""
        p = mlp_init((2, 3), seed=3)
        x = np.array([0.3, -0.8])
        doubled = p.__class__(p.layer_dims, tuple(2 * w for w in p.weights), p.biases)
        assert_allclose(mlp_forward(doubled, x), 2 * mlp_forward(p, x), rtol=1e-15)

    def test_shape_error(self):
        p = mlp_init((3, 4, 2), seed=0)
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros((5, 4)))


class TestBackward:
    def test_gradient_check_small_nets(self):
        """Analytic gradients match central differences to 1e-5 relative."""
        rng = np.random.default_rng(42)
        for trial in range(5):
            dims = (rng.integers(1, 4), rng.integers(2, 6), rng.integers(1, 3))
            p = mlp_init(dims, seed=int(rng.integers(1_000_000)))
            x = rng.normal(size=(4, dims[0]))
            gout = rng.normal(size=(4, dims[-1]))
            grads, _ = mlp_backward(p, x, gout)
            ngrads = numerical_grads(p, x, gout)
            for a, b in zip(grads.weights, ngrads.weights):
                assert max_rel_err(a, b) < 1e-5
            for a, b in zip(grads.biases, ngrads.biases):
                assert max_rel_err(a, b) < 1e-5

    def test_input_gradient(self):
        p = mlp_init((2, 6, 6, 1), seed=9)
        x = np.array([[0.4, -0.2]])
        gout = np.ones((1, 1))
        _, gx = mlp_backward(p, x, gout)
        h = 1e-6
        for j in range(2):
            xp, xm = x.copy(), x.copy()
            xp[0, j] += h
            xm[0, j] -= h
            fd = (mlp_forward(p, xp) - mlp_forward(p, xm)).item() / (2 * h)
            assert_allclose(gx[0, j], fd, rtol=1e-6, atol=1e-9)

    def test_batch_gradient_is_sum_of_rows(self):
        p = mlp_init((2, 5, 2), seed=4)
        x = np.random.default_rng(3).normal(size=(3, 2))
        gout = np.random.default_rng(4).normal(size=(3, 2))
        full, _ = mlp_backward(p, x, gout)
        summed = None
        for i in range(3):
            gi, _ = mlp_backward(p, x[i : i + 1], gout[i : i + 1])
            if summed is None:
                summed = list(gi.weights)
            else:
                summed = [s + w for s, w in zip(summed, gi.weights)]
        for a, b in zip(full.weights, summed):
            assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)], ids=["single", "batch", "two-axes"])
    def test_equals_two_pass_reference(self, lead):
        """Gradients, laid out like the parameters, and the input gradient equal
        those of a two-pass per-array reference, bit for bit."""
        p = mlp_init((3, 16, 16, 2), seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(*lead, 3))
        gout = rng.normal(size=(*lead, 2))
        grads, gx = mlp_backward(p, x, gout)
        assert grads.layer_dims == p.layer_dims and grads.flat.shape == p.flat.shape
        two_pass, two_pass_gx = reference_backward(p, x.reshape(-1, 3), gout.reshape(-1, 2))
        assert all_equal(arrays(grads), two_pass)
        assert gx.shape == x.shape and np.array_equal(gx, two_pass_gx.reshape(x.shape))

    def test_grad_output_batch_mismatch(self):
        p = mlp_init((2, 5, 3), seed=0)
        with pytest.raises(ShapeError):
            mlp_backward(p, np.ones((4, 2)), np.ones((5, 3)))


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        """Bias-corrected Adam's first update has magnitude ~lr wherever the
        gradient is well above eps."""
        p = mlp_init((2, 4, 1), seed=0)
        rng = np.random.default_rng(1)
        grads = MlpParams(
            p.layer_dims,
            tuple(rng.normal(1.0, 0.1, size=w.shape) for w in p.weights),
            tuple(rng.normal(1.0, 0.1, size=b.shape) for b in p.biases),
        )
        lr = 0.05
        p2, s2 = adam_step(p, grads, adam_init(p, lr=lr))
        assert s2.step == 1
        for before, after in zip(p.weights, p2.weights):
            moved = np.abs(after - before)
            assert np.all(moved > 0.99 * lr) and np.all(moved <= lr)

    def test_functional_purity(self):
        """Parameters, gradients and the incoming state are left as they were."""
        p = mlp_init((1, 3, 1), seed=0)
        grads = MlpParams(
            p.layer_dims,
            tuple(np.ones_like(w) for w in p.weights),
            tuple(np.ones_like(b) for b in p.biases),
        )
        _, state = adam_step(p, grads, adam_init(p))  # nonzero moments for the second step
        before = [a.copy() for a in (*arrays(p), *arrays(grads), state.m, state.v)]
        p2, s2 = adam_step(p, grads, state)
        assert all_equal([*arrays(p), *arrays(grads), state.m, state.v], before)
        assert state.step == 1 and s2.step == 2
        assert not np.shares_memory(p2.flat, p.flat) and not np.shares_memory(s2.m, state.m)

    @pytest.mark.parametrize("build", ["mlp_init", "separate-arrays"])
    def test_flat_update_equals_per_array_reference(self, build):
        """One set of ops over the flat buffer gives the per-array Adam, bit for bit."""
        p = mlp_init((3, 16, 16, 2), seed=1)
        if build == "separate-arrays":
            p = MlpParams(p.layer_dims, tuple(w.copy() for w in p.weights), tuple(b.copy() for b in p.biases))
        rng = np.random.default_rng(2)
        ref, ref_state = p, (0, [np.zeros_like(a) for a in arrays(p)], [np.zeros_like(a) for a in arrays(p)])
        state = adam_init(p)
        for _ in range(5):
            x, gout = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
            grads, _ = mlp_backward(p, x, gout)
            assert all_equal(arrays(grads), arrays(mlp_backward(ref, x, gout)[0]))
            p, state = adam_step(p, grads, state)
            ref, ref_state = reference_adam(ref, grads, ref_state)
            assert all_equal(arrays(p), arrays(ref))
            assert all_equal(split_like(p, state.m), ref_state[1])
            assert all_equal(split_like(p, state.v), ref_state[2])

    def test_separate_grads_equal_flat_grads(self):
        """Gradients built from separate arrays update exactly as mlp_backward's flat ones."""
        p = mlp_init((2, 6, 1), seed=3)
        grads, _ = mlp_backward(p, np.ones((3, 2)), np.ones((3, 1)))
        copied = MlpParams(p.layer_dims, tuple(w.copy() for w in grads.weights), tuple(b.copy() for b in grads.biases))
        a, _ = adam_step(p, grads, adam_init(p))
        b, _ = adam_step(p, copied, adam_init(p))
        assert np.array_equal(a.flat, b.flat)

    def test_mismatched_grads_rejected(self):
        p, other = mlp_init((2, 4, 1), seed=0), mlp_init((2, 5, 1), seed=0)
        grads, _ = mlp_backward(other, np.ones((1, 2)), np.ones((1, 1)))
        with pytest.raises(ShapeError):
            adam_step(p, grads, adam_init(p))

    def test_sin_regression_smoke(self):
        """[1, 32, 32, 1] reaches MSE < 1e-3 on sin(x) within 5000 steps."""
        x = np.linspace(-np.pi, np.pi, 512)[:, None]
        y = np.sin(x)
        p = mlp_init((1, 32, 32, 1), seed=0)
        s = adam_init(p, lr=1e-3)
        for _ in range(5000):
            diff = mlp_forward(p, x) - y
            grads, _ = mlp_backward(p, x, (2.0 / len(x)) * diff)
            p, s = adam_step(p, grads, s)
        mse = float(np.mean((mlp_forward(p, x) - y) ** 2))
        assert mse < 1e-3, mse
