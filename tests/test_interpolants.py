"""Interpolation schedules and the closed-form trigonometric force."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab.errors import SpeedLimitError
from form_lab.interpolants import interpolate, trigflow_force, trigflow_schedule
from form_lab.relativity import PhysicsConfig, relativistic_force


class TestSchedules:
    def test_boundary_conditions(self):
        """alpha(0) = 0, sigma(0) = 1 and alpha(T) = 1, sigma(T) = 0."""
        s = trigflow_schedule()
        assert (s.alpha(0.0), s.sigma(0.0)) == (0.0, 1.0)
        assert_allclose([s.alpha(s.duration), s.sigma(s.duration)], [1.0, 0.0], atol=1e-15)

    def test_trigflow_duration(self):
        assert trigflow_schedule().duration == math.pi / 2.0

    def test_interpolate_endpoints(self):
        s = trigflow_schedule()
        x0, x1 = np.array([2.0, -1.0]), np.array([0.5, 3.0])
        start, _, _ = interpolate(x0, x1, 0.0, s)
        end, _, _ = interpolate(x0, x1, s.duration, s)
        assert_allclose(start, x0, atol=1e-15)
        assert_allclose(end, x1, atol=1e-15)

    def test_time_range_checked(self):
        s = trigflow_schedule()
        with pytest.raises(ValueError):
            interpolate([0.0, 0.0], [1.0, 1.0], 1.6, s)
        with pytest.raises(ValueError):
            interpolate([0.0, 0.0], [1.0, 1.0], -0.1, s)

    def test_derivatives_match_finite_differences(self):
        """The schedule's stated derivatives are the actual derivatives."""
        s = trigflow_schedule()
        x0, x1 = np.array([0.7, -0.2]), np.array([-1.1, 0.4])
        h = 1e-6
        for t in (0.2, 0.7, 1.3):
            _, x_dot, x_ddot = interpolate(x0, x1, t, s)
            xp, _, _ = interpolate(x0, x1, t + h, s)
            xm, _, _ = interpolate(x0, x1, t - h, s)
            assert_allclose((xp - xm) / (2 * h), x_dot, rtol=1e-8, atol=1e-9)
            xc, _, _ = interpolate(x0, x1, t, s)
            assert_allclose((xp - 2 * xc + xm) / h**2, x_ddot, rtol=1e-3, atol=1e-4)


class TestTrigflowForce:
    def test_frozen_value(self):
        """At t = pi/4 with x0 = (1,0), x1 = (0,1): <x_dot, x_ddot> = 0, so the
        force is gamma * x_ddot with |x_dot| = 1 and gamma = 1/sqrt(0.99)."""
        f = trigflow_force([1.0, 0.0], [0.0, 1.0], math.pi / 4)
        expected = -(math.sqrt(2) / 2) / math.sqrt(0.99)
        assert_allclose(f, [expected, expected], rtol=1e-14)

    def test_matches_general_force_map(self):
        """The explicit sin/cos formula equals relativistic_force applied to
        the interpolant's analytic derivatives, everywhere on the path."""
        rng = np.random.default_rng(12)
        s = trigflow_schedule()
        for _ in range(20):
            x0 = rng.uniform(-2, 2, size=2)
            x1 = rng.uniform(-2, 2, size=2)
            for t in np.linspace(0.0, s.duration, 23):
                _, x_dot, x_ddot = interpolate(x0, x1, float(t), s)
                expected = relativistic_force(x_dot, x_ddot)
                assert_allclose(trigflow_force(x0, x1, float(t)), expected, rtol=1e-12, atol=1e-14)

    def test_speed_limit_checked(self):
        with pytest.raises(SpeedLimitError):
            trigflow_force([0.0, 0.0], [22.0, 0.0], 0.0)  # x_dot(0) = x1, speed 22 > c

    def test_unit_mass_required(self):
        with pytest.raises(ValueError):
            trigflow_force([1.0, 0.0], [0.0, 1.0], 0.5, PhysicsConfig(m=2.0))

    def test_batched_pairs(self):
        x0 = np.array([[1.0, 0.0], [0.3, -0.4]])
        x1 = np.array([[0.0, 1.0], [-0.5, 0.2]])
        batch = trigflow_force(x0, x1, 0.6)
        for i in range(2):
            assert_allclose(batch[i], trigflow_force(x0[i], x1[i], 0.6), rtol=0)
