"""Fixed-step integrators: exactness, order, and grid layout."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab.ode import euler_step, integrate_fixed_grid, rk4_step


def _exp_decay(t, y):
    return -y


class TestSteps:
    def test_rk4_exact_on_cubic(self):
        """RK4 integrates polynomials up to degree 4 in t exactly."""

        def f(t, y):
            return np.array([3.0 * t**2])

        y1 = rk4_step(f, 1.0, np.array([1.0]), 0.5)
        assert_allclose(y1, [1.0 + 1.5**3 - 1.0**3], rtol=1e-14)

    def test_euler_step_formula(self):
        y1 = euler_step(_exp_decay, 0.0, np.array([2.0]), 0.25)
        assert_allclose(y1, [1.5])


class TestGrid:
    def test_times_and_shapes(self):
        times, states = integrate_fixed_grid(_exp_decay, np.array([1.0, 2.0]), 0.5, 1.0, 4)
        assert_allclose(times, [0.5, 0.75, 1.0, 1.25, 1.5])
        assert states.shape == (5, 2)
        assert_allclose(states[0], [1.0, 2.0])

    def test_exponential_accuracy(self):
        _, states = integrate_fixed_grid(_exp_decay, np.array([1.0]), 0.0, 1.0, 100)
        assert_allclose(states[-1], [np.exp(-1.0)], rtol=1e-9)

    def test_rk4_fourth_order_convergence(self):
        """Endpoint error contracts ~16x per step-halving on a smooth field."""

        def f(t, y):
            return np.array([np.sin(t) * y[0]])

        exact = np.exp(1.0 - np.cos(2.0))
        errs = []
        for n in (20, 40, 80):
            _, states = integrate_fixed_grid(f, np.array([1.0]), 0.0, 2.0, n)
            errs.append(abs(states[-1, 0] - exact))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(11.0 < r < 22.0 for r in ratios), ratios

    def test_euler_first_order_convergence(self):
        exact = np.exp(-2.0)
        errs = []
        for n in (40, 80, 160):
            _, states = integrate_fixed_grid(_exp_decay, np.array([1.0]), 0.0, 2.0, n, method="euler")
            errs.append(abs(states[-1, 0] - exact))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(1.7 < r < 2.4 for r in ratios), ratios

    def test_batched_state_shape(self):
        y0 = np.ones((3, 4))
        _, states = integrate_fixed_grid(_exp_decay, y0, 0.0, 1.0, 7)
        assert states.shape == (8, 3, 4)

    def test_states_go_into_a_strided_out(self):
        y0 = np.arange(1.0, 7.0).reshape(2, 3)
        _, want = integrate_fixed_grid(_exp_decay, y0, 0.0, 1.0, 5)
        buf = np.empty((3, 6, 2))
        _, states = integrate_fixed_grid(_exp_decay, y0, 0.0, 1.0, 5, out=buf.transpose(1, 2, 0))
        assert np.shares_memory(states, buf) and states.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError, match="out must be float64 of shape"):
            integrate_fixed_grid(_exp_decay, np.array([1.0]), 0.0, 1.0, 4, out=np.empty((4, 1)))
        with pytest.raises(ValueError):
            integrate_fixed_grid(_exp_decay, np.array([1.0]), 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            integrate_fixed_grid(_exp_decay, np.array([1.0]), 0.0, -1.0, 4)
        with pytest.raises(ValueError):
            integrate_fixed_grid(_exp_decay, np.array([1.0]), 0.0, 1.0, 4, method="rk5")
