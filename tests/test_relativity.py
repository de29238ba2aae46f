"""Special-relativity kinematics: frozen values, identities, and domains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from form_lab.errors import DegenerateVelocityError, NonFiniteError, ShapeError, SpeedLimitError
from form_lab.relativity import (
    DEFAULT_PHYSICS,
    _dot,
    EPS_V,
    PhysicsConfig,
    acceleration_from_force,
    acceleration_rows,
    celerity_from_velocity,
    compose_lab_force,
    decompose_parallel_perp,
    lab_force_rows,
    lorentz_factor,
    momentum,
    relativistic_force,
    require_below_c,
    rotate90,
    speed,
    speed_sq_derivative,
    velocity_from_celerity,
    velocity_rows,
)


class TestLorentzFactor:
    def test_frozen_values(self):
        assert lorentz_factor([6.0, 0.0]) == 1.25  # 1/sqrt(1 - 0.36) exactly
        assert lorentz_factor([0.0, 0.0]) == 1.0
        near_c = lorentz_factor([9.99, 0.0])
        assert 22.3 < near_c < 22.4
        assert_allclose(near_c, 1.0 / math.sqrt(1.0 - 0.999**2), rtol=1e-14)

    def test_direction_invariant(self):
        g = lorentz_factor([3.0, 4.0])  # speed 5, c = 10
        assert_allclose(g, 1.0 / math.sqrt(0.75), rtol=1e-15)
        assert_allclose(lorentz_factor([-4.0, 3.0]), g, rtol=1e-15)

    def test_speed_limit_is_hard_error(self):
        with pytest.raises(SpeedLimitError):
            lorentz_factor([10.0, 0.0])
        with pytest.raises(SpeedLimitError):
            lorentz_factor([8.0, 8.0])
        with pytest.raises(SpeedLimitError):
            lorentz_factor([np.nan, 0.0])

    def test_batched_matches_single(self):
        rng = np.random.default_rng(0)
        batch = rng.uniform(-5, 5, size=(40, 2))
        gs = lorentz_factor(batch)
        for i in range(len(batch)):
            assert gs[i] == lorentz_factor(batch[i])

    @given(st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=50)
    def test_gamma_at_least_one(self, frac, angle):
        v = 10.0 * frac * np.array([math.cos(angle), math.sin(angle)])
        assert lorentz_factor(v) >= 1.0


class TestMomentumAndProperTime:
    def test_momentum_frozen_value(self):
        assert_allclose(momentum([0.0, 6.0], PhysicsConfig(m=2.0)), [0.0, 15.0], rtol=1e-15)

    def test_momentum_zero_velocity(self):
        assert_allclose(momentum([0.0, 0.0]), [0.0, 0.0])


class TestForceAccelerationMaps:
    def test_parallel_force_frozen_value(self):
        # parallel push: f = m gamma^3 a, with gamma = 1.25 -> 1.953125
        f = relativistic_force([6.0, 0.0], [2.0, 0.0])
        assert_allclose(f, [2.0 * 1.953125, 0.0], rtol=1e-15)

    def test_perpendicular_force_is_m_gamma_a(self):
        f = relativistic_force([6.0, 0.0], [0.0, 2.0])
        assert_allclose(f, [0.0, 2.5], rtol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            angle = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(0, 9.9) * np.array([math.cos(angle), math.sin(angle)])
            a = rng.normal(0, 10, size=2)
            f = relativistic_force(v, a)
            assert_allclose(acceleration_from_force(v, f), a, rtol=1e-9, atol=1e-12)

    def test_newtonian_limit(self):
        """At tiny speeds both maps collapse to f = m a."""
        v = np.array([1e-6, -2e-6])
        a = np.array([3.0, -1.0])
        assert_allclose(relativistic_force(v, a), a, rtol=1e-10)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(-5, 5, size=(30, 2))
        a = rng.normal(0, 3, size=(30, 2))
        batch = relativistic_force(v, a)
        for i in range(30):
            assert_allclose(batch[i], relativistic_force(v[i], a[i]), rtol=0)


class TestSpeedDerivative:
    def test_frozen_value(self):
        got = speed_sq_derivative([0.6, 0.0], [1.0, 0.0], PhysicsConfig(c=1.0))
        assert_allclose(got, 0.3072, rtol=1e-15)

    def test_perpendicular_force_changes_no_speed(self):
        assert speed_sq_derivative([6.0, 0.0], [0.0, 123.0]) == 0.0

    def test_matches_force_map(self):
        """d(|v|^2/2)/dt = <v, a> must agree with the inverse force map."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.uniform(-6, 6, size=2)
            f = rng.normal(0, 20, size=2)
            a = acceleration_from_force(v, f)
            assert_allclose(speed_sq_derivative(v, f), np.dot(v, a), rtol=1e-12, atol=1e-12)


class TestComovingDecomposition:
    def test_frozen_example(self):
        f_par, f_perp = decompose_parallel_perp([3.0, 4.0], [0.0, 2.0])
        assert f_par == 4.0 and f_perp == -3.0

    def test_rotate90_conventions(self):
        assert_allclose(rotate90([1.0, 0.0]), [0.0, 1.0])  # ccw default
        assert_allclose(rotate90([1.0, 0.0], handedness=-1), [0.0, -1.0])

    def test_compose_decompose_round_trip(self):
        rng = np.random.default_rng(9)
        for handedness in (1, -1):
            f = rng.normal(0, 5, size=(25, 2))
            v = rng.uniform(0.1, 8, size=(25, 1)) * _unit(rng.uniform(0, 2 * np.pi, size=25))
            f_par, f_perp = decompose_parallel_perp(f, v, handedness)
            assert_allclose(compose_lab_force(f_par, f_perp, v, handedness), f, rtol=1e-12, atol=1e-12)

    def test_degenerate_velocity_is_hard_error(self):
        with pytest.raises(DegenerateVelocityError):
            decompose_parallel_perp([1.0, 0.0], [0.0, EPS_V / 2])

    def test_compose_lab_force_allows_zero_force_at_rest(self):
        v = np.array([[0.0, 0.0], [3.0, 0.0]])
        out = compose_lab_force([0.0, 2.0], [0.0, 1.0], v)
        assert_allclose(out, [[0.0, 0.0], [2.0, 1.0]])
        with pytest.raises(DegenerateVelocityError):
            compose_lab_force([1.0, 2.0], [0.0, 1.0], v)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 9.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=60)
    def test_components_preserve_norm(self, f_par, f_perp, s, angle):
        v = s * np.array([math.cos(angle), math.sin(angle)])
        f = compose_lab_force(f_par, f_perp, v)
        assert_allclose(np.linalg.norm(f), math.hypot(f_par, f_perp), rtol=1e-12, atol=1e-12)


class TestCelerity:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(-7, 7, size=(50, 2))
        w = celerity_from_velocity(v)
        assert_allclose(velocity_from_celerity(w), v, rtol=1e-13, atol=1e-15)

    def test_any_celerity_is_subluminal(self):
        """|v| < c structurally for any celerity a sampler run can reach
        (gamma up to ~1e7 here; strictness is a float property of the map)."""
        w = np.array([[1e6, 0.0], [-3e4, 4e5], [1e8, 0.0], [0.0, 0.0]])
        v = velocity_from_celerity(w)
        speeds = np.sqrt((v**2).sum(-1))
        assert np.all(speeds < 10.0)
        assert speeds[2] > 10.0 - 1e-8  # genuinely pinned just under c

    def test_absurd_celerity_saturates_at_c(self):
        """Beyond |w| ~ c/sqrt(eps) the nearest representable double IS c;
        the map never exceeds c even there."""
        v = velocity_from_celerity(np.array([[1e12, 0.0], [-3e10, 4e10]]))
        assert np.all(np.sqrt((v**2).sum(-1)) <= 10.0)

    def test_gamma_consistency(self):
        """gamma(v) = sqrt(1 + |w|^2 / c^2) for the celerity w of v."""
        v = np.array([6.0, -3.0])
        w = celerity_from_velocity(v)
        gamma_from_w = math.sqrt(1.0 + np.dot(w, w) / DEFAULT_PHYSICS.c**2)
        assert_allclose(gamma_from_w, lorentz_factor(v), rtol=1e-14)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            velocity_from_celerity([np.inf, 0.0])

    @pytest.mark.parametrize(
        "w, physics",
        [
            ([1e155, 0.0], DEFAULT_PHYSICS),  # |w|^2 overflows
            ([[1.0, 2.0], [-3e154, 3e154]], DEFAULT_PHYSICS),
            ([1e150, 0.0], PhysicsConfig(c=1e-10)),  # |w|^2 is finite, |w|^2 / c^2 is not
        ],
    )
    def test_overflowing_celerity_is_refused(self, w, physics):
        """A finite celerity whose ``|w|^2 / c^2`` overflows would give v = 0,
        not the saturated speed c: both forms refuse it and name the overflow."""
        w = np.array(w)
        rows = np.moveaxis(w, -1, 0).copy()
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="celerity overflows"):
                velocity_from_celerity(w, physics)
            with pytest.raises(NonFiniteError, match="celerity overflows"):
                velocity_rows(rows, physics, np.empty_like(rows))

    @pytest.mark.parametrize("w", [[np.inf, 0.0], [1e155, np.nan], [[1.0, 0.0], [-np.inf, np.inf]]])
    def test_non_finite_celerity_is_not_an_overflow(self, w):
        w = np.array(w)
        rows = np.moveaxis(w, -1, 0).copy()
        with np.errstate(over="ignore"):
            for run in (lambda: velocity_from_celerity(w), lambda: velocity_rows(rows, DEFAULT_PHYSICS, np.empty_like(rows))):
                with pytest.raises(NonFiniteError, match="^celerity must be finite$"):
                    run()


@pytest.mark.parametrize("c", [1.0, 10.0, 3e8])
@pytest.mark.parametrize("axis", [0, 1])
def test_require_below_c_refuses_from_one_ulp_above_c(c, axis):
    """The check ``simulate_batch`` and ``force_path`` share: ``|v|^2`` at or above ``c^2`` is refused."""
    physics = PhysicsConfig(c=c)
    rows = np.zeros((2, 3, 4))
    rows[axis, 1, 2] = np.nextafter(c, 0.0)
    require_below_c(rows, physics, "test")
    rows[axis, 1, 2] = np.nextafter(c, np.inf)
    with pytest.raises(SpeedLimitError, match=rf"^a test speed rounds to c = {c!r} in float64"):
        require_below_c(rows, physics, "test")


class TestPhysicsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicsConfig(c=0.0)
        with pytest.raises(ValueError):
            PhysicsConfig(m=-1.0)
        assert DEFAULT_PHYSICS.c == 10.0 and DEFAULT_PHYSICS.m == 1.0

    @pytest.mark.parametrize("c", [1e200, 1e-170, float("inf"), float("nan")])
    def test_c_needs_a_finite_nonzero_square(self, c):
        """Every formula divides by ``c**2``: at 1e200 it overflowed (an ``OverflowError``), at 1e-170 it is 0."""
        with pytest.raises(ValueError, match="speed of light c must be positive with a finite, nonzero square"):
            PhysicsConfig(c=c)
        assert PhysicsConfig(c=1e154).c == 1e154

    def test_speed_helper(self):
        assert speed([3.0, 4.0]) == 5.0


def _unit(angles: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


# --- the 2-vector helpers against their np.sum / np.stack forms -----------------

def _ref_dot(a, b):
    return np.sum(a * b, axis=-1)


def _ref_rotate90(u, handedness):
    return handedness * np.stack([-u[..., 1], u[..., 0]], axis=-1)


def _ref_compose_lab_force(f_par, f_perp, v, handedness):
    """``compose_lab_force`` with its masks always applied, as it was written
    before it skipped them when no point rests."""
    f_par = np.broadcast_to(np.asarray(f_par, dtype=np.float64), v.shape[:-1])
    f_perp = np.broadcast_to(np.asarray(f_perp, dtype=np.float64), v.shape[:-1])
    s = np.sqrt(_ref_dot(v, v))
    degenerate = s <= EPS_V
    if np.any(degenerate & ((f_par != 0.0) | (f_perp != 0.0))):
        raise DegenerateVelocityError("nonzero co-moving force at (numerically) zero speed")
    safe = np.where(degenerate, 1.0, s)
    vhat = v / safe[..., None]
    vhat = np.where(degenerate[..., None], 0.0, vhat)
    return f_par[..., None] * vhat + f_perp[..., None] * _ref_rotate90(vhat, handedness)


SHAPES = [(2,), (7, 2), (3, 5, 2)]


def _wide_vectors(rng, shape, decades=200.0):
    """Signed magnitudes 1e-200..1e200 (or 10**-decades..10**decades), with +0.0 and -0.0 sprinkled in."""
    out = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-decades, decades, size=shape)
    flat = out.reshape(-1)
    flat[rng.random(flat.size) < 0.1] = 0.0
    flat[rng.random(flat.size) < 0.1] = -0.0
    return out


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTwoVectorHelpersBitIdentity:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_dot(self, shape):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = _wide_vectors(rng, shape), _wide_vectors(rng, shape)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                assert _same_bits(_dot(a, b), _ref_dot(a, b))
                if len(shape) > 1:  # one vector against every row
                    assert _same_bits(_dot(a, b[-1]), _ref_dot(a, b[-1]))

    def test_dot_refuses_other_dimensions(self):
        with pytest.raises(ShapeError):
            speed([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_rotate90(self, shape, handedness):
        rng = np.random.default_rng(2)
        u = _wide_vectors(rng, shape)
        assert _same_bits(rotate90(u, handedness), _ref_rotate90(u, handedness))
        view = _wide_vectors(rng, (4, *shape))[::2, ..., ::-1]  # strided, reversed components
        assert _same_bits(rotate90(view, handedness), _ref_rotate90(view, handedness))

    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_compose_lab_force(self, shape, handedness):
        rng = np.random.default_rng(3)
        for resting in (False, True):
            v = _wide_vectors(rng, shape)
            rows = v.reshape(-1, 2)
            with np.errstate(over="ignore", under="ignore"):
                rest = np.sqrt(_ref_dot(rows, rows)) <= EPS_V
            rows[rest] = [1.0, -1e-200]  # no row rests ...
            if resting:  # ... or the first does, with a zero force, so both take the masked path
                rows[0] = [0.0, -0.0]
            rest = np.zeros(len(rows), dtype=bool)
            rest[0] = resting
            rest = rest.reshape(shape[:-1])
            f_par = np.where(rest, 0.0, _wide_vectors(rng, shape[:-1]))
            f_perp = np.where(rest, -0.0, _wide_vectors(rng, shape[:-1]))
            scalars = (0.0, -0.0) if resting else (float(np.ravel(f_par)[-1]), float(np.ravel(f_perp)[-1]))
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                for fp, fq in ((f_par, f_perp), scalars):
                    got = compose_lab_force(fp, fq, v, handedness)
                    assert _same_bits(got, _ref_compose_lab_force(fp, fq, v, handedness))

    @pytest.mark.parametrize("shape", SHAPES[1:], ids=str)
    def test_compose_lab_force_refuses_a_force_that_does_not_broadcast(self, shape):
        v = np.ones(shape)
        too_wide = np.ones((2, *shape[:-1]))
        with pytest.raises(ValueError):
            compose_lab_force(too_wide, 0.0, v)
        with pytest.raises(ValueError):
            compose_lab_force(0.0, np.ones(shape[-2] + 1), v)


# --- the row kernels against their (..., 2) functions ----------------------------

ROW_SHAPES = [(500, 2), (20, 25, 2)]
PHYSICS_CASES = [DEFAULT_PHYSICS, PhysicsConfig(m=3.0)]
# flat indices of the resting points; in both ROW_SHAPES also their indices along the last point axis
RESTING = [0, 7]


def _rows(a):
    """``(..., 2)`` vectors as a contiguous copy of their ``(2, ...)`` component rows."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _rows_same_bits(rows, want):
    return _same_bits(np.moveaxis(rows, 0, -1), want)


class TestRowKernelsBitIdentity:
    """Each row kernel gives its ``(..., 2)`` function's bits: magnitudes 1e-150..1e150 with signed zeros."""

    @pytest.mark.parametrize("physics", [*PHYSICS_CASES, PhysicsConfig(c=3.0)], ids=["m1", "m3", "c3"])
    @pytest.mark.parametrize("shape", ROW_SHAPES, ids=str)
    def test_velocity_rows(self, shape, physics):
        w = _wide_vectors(np.random.default_rng(4), shape, decades=150.0)
        w.reshape(-1, 2)[RESTING] = [[0.0, -0.0], [-0.0, -0.0]]
        out = np.empty((2, *shape[:-1]))
        with np.errstate(under="ignore"):
            sq = velocity_rows(_rows(w), physics, out)
            assert _rows_same_bits(out, velocity_from_celerity(w, physics))
            assert _same_bits(sq, _ref_dot(w, w))

    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize("resting", [False, True], ids=["moving", "resting"])
    @pytest.mark.parametrize("shape", ROW_SHAPES, ids=str)
    def test_lab_force_rows(self, shape, resting, handedness):
        """Forces per point, per index of the last point axis (as a schedule acts on a time axis), shared, and mixed."""
        rng = np.random.default_rng(5)
        v = _wide_vectors(rng, shape, decades=150.0)
        lead = shape[:-1]
        forces = [tuple(_wide_vectors(rng, dims, decades=150.0) for _ in range(2)) for dims in (lead, lead[-1:])]
        points = v.reshape(-1, 2)
        with np.errstate(under="ignore"):
            points[np.sqrt(_ref_dot(points, points)) <= EPS_V] = [1.0, -1e-150]  # no point rests ...
        if resting:  # ... or two do, under a zero force of either sign
            points[RESTING] = [[0.0, -0.0], [-0.0, 0.0]]
            for f in (f for pair in forces for f in pair):
                f.reshape(-1)[RESTING] = [0.0, -0.0]
            forces.append((0.0, -0.0))
        else:
            forces.append(tuple(float(f) for f in _wide_vectors(rng, (2,), decades=150.0)))
        forces.append((forces[0][0], forces[-1][1]))
        with np.errstate(under="ignore"):
            for f_par, f_perp in forces:
                out = np.empty((2, *lead))
                s2 = lab_force_rows(f_par, f_perp, _rows(v), handedness, out)
                assert _rows_same_bits(out, compose_lab_force(f_par, f_perp, v, handedness))
                assert _same_bits(s2, _ref_dot(v, v))

    def test_lab_force_rows_refuses_a_push_at_rest(self):
        v = np.array([[3.0, 0.0], [0.0, -0.0]])
        with pytest.raises(DegenerateVelocityError):
            lab_force_rows(0.0, 1.0, _rows(v), 1, np.empty((2, 2)))

    @pytest.mark.parametrize("physics", PHYSICS_CASES, ids=["m1", "m3"])
    @pytest.mark.parametrize("resting", [False, True], ids=["moving", "resting"])
    @pytest.mark.parametrize("shape", ROW_SHAPES, ids=str)
    def test_acceleration_rows(self, shape, resting, physics):
        """Subluminal velocities (components up to 7, c = 10) under forces of every magnitude."""
        rng = np.random.default_rng(6)
        v = _wide_vectors(rng, shape, decades=150.0)
        v = np.where(np.abs(v) > 7.0, np.copysign(7.0, v) * rng.random(shape), v)
        f = _wide_vectors(rng, shape, decades=150.0)
        if resting:
            v.reshape(-1, 2)[RESTING] = [[0.0, -0.0], [-0.0, 0.0]]
            f.reshape(-1, 2)[RESTING] = [[-0.0, 0.0], [-0.0, -0.0]]
        out = np.empty((2, *shape[:-1]))
        with np.errstate(under="ignore"):
            acceleration_rows(_rows(v), _rows(f), _ref_dot(v, v), physics, out)
            assert _rows_same_bits(out, acceleration_from_force(v, f, physics))

    def test_acceleration_rows_refuses_a_speed_at_c(self):
        v = np.array([[3.0, 0.0], [0.0, 10.0]])
        with pytest.raises(SpeedLimitError):
            acceleration_rows(_rows(v), np.ones((2, 2)), _ref_dot(v, v), DEFAULT_PHYSICS, np.empty((2, 2)))
