"""Trajectory simulation against closed-form relativistic solutions."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab.datasets import (
    KINDS,
    DatasetSpec,
    force_schedule_for,
    generate,
    initial_velocity,
    source_points,
    stress_spec,
)
from form_lab.dynamics import (
    DEFAULT_UNITS,
    ForceSchedule,
    UnitSystem,
    TrajectoryBatch,
    TrajectoryRecord,
    first_underivable,
    lab_force_and_acceleration,
    schedule_on_grid,
    simulate_batch,
    simulate_trajectory,
)
from form_lab.errors import DegenerateVelocityError, NonFiniteError, SpeedLimitError
from form_lab.ode import integrate_fixed_grid
from form_lab.relativity import (
    DEFAULT_PHYSICS,
    PhysicsConfig,
    acceleration_from_force,
    celerity_from_velocity,
    compose_lab_force,
    decompose_parallel_perp,
    lorentz_factor,
    speed_sq_derivative,
    velocity_from_celerity,
)

C = DEFAULT_PHYSICS.c


class TestUnitSystem:
    def test_speed_of_light_round(self):
        assert DEFAULT_UNITS.c == 10.0  # 3e8 m/s over 3e7 m/du

    def test_force_conversions_frozen(self):
        assert DEFAULT_UNITS.force_from_si(1.5e8) == 5.0
        assert_allclose(DEFAULT_UNITS.force_from_si(1.0e7), 1.0 / 3.0, rtol=1e-15)
        assert_allclose(DEFAULT_UNITS.force_from_si(7.0e8), 70.0 / 3.0, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitSystem(meters_per_du=0.0)


class TestAnalyticOracles:
    def test_constant_parallel_force_matches_closed_form(self):
        """1-D boost: w(t) = w0 + g t and x(t) = x0 + (c^2/g)(gamma(t) - gamma(0)).

        This is the standard constant-proper-force solution; the simulator
        must reproduce it to near machine precision on a 200-step grid.
        """
        g = 5.0
        v0 = 3.0
        rec = simulate_trajectory([1.0, 0.0], [v0, 0.0], ForceSchedule.constant(g, 0.0), 1.0, 200)
        w0 = lorentz_factor([v0, 0.0]) * v0
        w_t = w0 + g * rec.times
        gamma_t = np.sqrt(1.0 + (w_t / C) ** 2)
        assert_allclose(rec.v[:, 0], w_t / gamma_t, rtol=1e-10)
        assert_allclose(rec.x[:, 0], 1.0 + (C**2 / g) * (gamma_t - gamma_t[0]), rtol=1e-10)
        assert_allclose(rec.v[:, 1], 0.0, atol=1e-14)

    def test_constant_perpendicular_force_is_a_circle(self):
        """A purely perpendicular force turns the velocity without changing
        speed: the path is a circle of radius m gamma s^2 / f_perp."""
        s, q = 5.0, 7.0
        rec = simulate_trajectory([0.0, 0.0], [s, 0.0], ForceSchedule.constant(0.0, q), 1.0, 400)
        speeds = np.sqrt((rec.v**2).sum(-1))
        assert_allclose(speeds, s, rtol=1e-12)
        omega = q / (lorentz_factor([s, 0.0]) * s)  # dphi/dt = f_perp / (m w)
        r = s / omega
        expected = np.stack([r * np.sin(omega * rec.times), r * (1 - np.cos(omega * rec.times))], axis=-1)
        assert_allclose(rec.x, expected, rtol=1e-9, atol=1e-9)

    def test_handedness_mirrors_exactly(self):
        sched = ForceSchedule.sinusoidal(0.4, 1.0, 20.0, 8.0)
        rec_ccw = simulate_trajectory([0.0, 0.0], [4.0, 0.0], sched, 1.0, 100, handedness=1)
        rec_cw = simulate_trajectory([0.0, 0.0], [4.0, 0.0], sched, 1.0, 100, handedness=-1)
        assert np.array_equal(rec_ccw.x[:, 0], rec_cw.x[:, 0])
        assert np.array_equal(rec_ccw.x[:, 1], -rec_cw.x[:, 1])


@pytest.fixture(scope="module")
def record():
    sched = ForceSchedule.sinusoidal(1.0 / 3.0, 1.0, 70.0 / 3.0, 8.0)
    return simulate_trajectory([0.1, -0.2], [4.0, 0.5], sched, 1.0, 200)


class TestRecordConsistency:

    def test_speeds_below_c(self, record):
        assert np.all(np.sqrt((record.v**2).sum(-1)) < C)

    def test_acceleration_matches_force(self, record):
        expected = acceleration_from_force(record.v, record.f)
        assert_allclose(record.a, expected, rtol=1e-10, atol=1e-12)

    def test_components_match_lab_force(self, record):
        f_par, f_perp = decompose_parallel_perp(record.f, record.v)
        assert_allclose(f_par, record.f_par, rtol=1e-10, atol=1e-10)
        assert_allclose(f_perp, record.f_perp, rtol=1e-10, atol=1e-10)

    def test_work_identity_along_path(self, record):
        """Central differences of |v|^2/2 on the grid match the analytic rate
        <f, v>(1 - |v|^2/c^2)/(m gamma), normalized by the rate's scale."""
        half_speed_sq = 0.5 * (record.v**2).sum(-1)
        dt = record.times[1] - record.times[0]
        fd = (half_speed_sq[2:] - half_speed_sq[:-2]) / (2 * dt)
        predicted = speed_sq_derivative(record.v, record.f)[1:-1]
        scale = np.max(np.abs(predicted))
        assert np.max(np.abs(fd - predicted)) / scale < 1e-4

    def test_velocity_is_position_derivative(self, record):
        dt = record.times[1] - record.times[0]
        fd = (record.x[2:] - record.x[:-2]) / (2 * dt)
        assert_allclose(fd, record.v[1:-1], atol=5e-3)


class TestBatching:
    def test_batch_matches_singles_bitwise(self):
        sched = ForceSchedule.sinusoidal(0.3, 1.0, 15.0, 8.0)
        x0 = np.array([[0.0, 0.1], [0.5, -0.3], [-0.2, 0.4]])
        v0 = np.array([[3.0, 0.0], [0.0, 4.0], [-2.0, 2.0]])
        batch = simulate_batch(x0, v0, sched, 1.0, 50)
        for i in range(3):
            single = simulate_trajectory(x0[i], v0[i], sched, 1.0, 50, index=i)
            assert np.array_equal(batch[i].x, single.x)
            assert np.array_equal(batch[i].v, single.v)
            assert np.array_equal(batch[i].a, single.a)

    def test_records_are_row_views_of_shared_blocks(self):
        """One contiguous block per array, one read-only grid; x and v are the blocks given, f and a derived."""
        rng = np.random.default_rng(5)
        k1, n = 6, 4
        times, x, v = np.linspace(0.0, 1.0, k1), rng.normal(size=(n, k1, 2)), rng.uniform(0.5, 2.0, size=(n, k1, 2))
        f_par, f_perp = rng.normal(size=k1), rng.normal(size=k1)
        records = TrajectoryBatch(np.arange(n), times, x, v, f_par, f_perp, DEFAULT_PHYSICS, 1)
        assert records.x is x and records.v is v
        f_lab = compose_lab_force(f_par, f_perp, v, 1)
        accel = acceleration_from_force(v, f_lab, DEFAULT_PHYSICS)
        columns = {"x": x, "v": v, "a": accel, "f": f_lab, "f_par": f_par, "f_perp": f_perp}
        for j, rec in enumerate(records):
            assert rec.times is records[0].times and rec.times.tobytes() == times.tobytes()
            for name in ("times", "f_par", "f_perp"):
                assert not getattr(rec, name).flags.writeable, name
            for name, col in columns.items():
                want = col[j] if col.ndim == 3 else col
                assert getattr(rec, name).tobytes() == want.tobytes(), name
            for name in ("x", "v", "a", "f"):
                got = getattr(rec, name)
                assert got.flags.c_contiguous and got.base is getattr(records[0], name).base, name
        assert times.flags.writeable  # the caller's grid is left as it was

    def test_batch_is_a_sequence_of_row_records(self):
        sched = ForceSchedule.sinusoidal(0.3, 1.0, 15.0, 8.0)
        x0 = np.array([[0.0, 0.1], [0.5, -0.3], [-0.2, 0.4], [0.1, 0.1]])
        batch = simulate_batch(x0, np.full((4, 2), 2.0), sched, 1.0, 20, indices=np.array([3, 4, 5, 6]))
        assert isinstance(batch, TrajectoryBatch) and len(batch) == 4
        assert batch.times.shape == batch.f_par.shape == batch.f_perp.shape == (21,)
        rows = list(batch)
        assert [r.index for r in rows] == [3, 4, 5, 6] and batch[-1].index == 6
        for j, rec in enumerate(rows):
            assert isinstance(rec, TrajectoryRecord)
            for name in RECORD_ARRAYS:
                want = getattr(batch, name)
                assert np.shares_memory(getattr(rec, name), want), name
                assert np.array_equal(getattr(rec, name), want[j] if want.ndim == 3 else want), name
        assert np.shares_memory(batch.x0, batch.x) and np.array_equal(batch.x0, x0)
        assert np.array_equal(batch.endpoint, np.stack([r.endpoint for r in rows]))

    def test_slices_are_batches_of_views(self):
        batch = simulate_batch(np.zeros((5, 2)), np.full((5, 2), 1.0), ForceSchedule.constant(1.0, 2.0), 1.0, 10)
        part = batch[1::2]
        assert isinstance(part, TrajectoryBatch) and part.index.tolist() == [1, 3]
        assert part.times is batch.times and part.f_par is batch.f_par
        for name in ("x", "v"):
            assert np.shares_memory(getattr(part, name), getattr(batch, name))
        for name in ("x", "v", "a", "f"):  # a slice derives its own f and a, with the bits of the batch's rows
            assert getattr(part, name).tobytes() == getattr(batch, name)[1::2].tobytes(), name
        assert part[1].index == 3 and len(batch[:0]) == 0

    def test_record_metadata(self):
        rec = simulate_trajectory([0.0, 0.0], [1.0, 0.0], ForceSchedule.constant(1.0, 0.0), 2.0, 40, index=7)
        assert rec.index == 7
        assert rec.n_steps == 40
        assert rec.duration == pytest.approx(2.0)
        assert_allclose(rec.x0, [0.0, 0.0])
        assert rec.endpoint.shape == (2,)


def _hundredfold(base: ForceSchedule) -> ForceSchedule:
    """``base`` with both components multiplied by 100."""
    return ForceSchedule(f_par=lambda t: 100.0 * base.f_par(t), f_perp=lambda t: 100.0 * base.f_perp(t))


class TestStressScaling:
    def test_hundredfold_forces_stay_subluminal(self):
        """Even with forces scaled 100x, celerity integration keeps every
        recorded speed strictly below c.  The constant schedule resolves
        cleanly on this grid, so the run genuinely approaches c."""
        base = ForceSchedule.constant(5.0, 5.0)
        rec = simulate_trajectory([0.0, 0.0], [0.5, 0.0], _hundredfold(base), 1.0, 200)
        speeds = np.sqrt((rec.v**2).sum(-1))
        assert np.all(speeds < C)
        assert speeds.max() > 0.99 * C  # the stress run really does push near c

    def test_underresolved_oscillation_still_subluminal(self):
        """A fast 100x perpendicular wiggle is far below the grid's Nyquist
        rate; the trajectory is then inaccurate but still strictly below c,
        because the integration state is celerity."""
        base = ForceSchedule.sinusoidal(1.0 / 3.0, 1.0, 70.0 / 3.0, 8.0)
        rec = simulate_trajectory([0.0, 0.0], [0.5, 0.0], _hundredfold(base), 1.0, 200)
        assert np.all(np.sqrt((rec.v**2).sum(-1)) < C)

    def test_degenerate_start_is_hard_error(self):
        with pytest.raises(DegenerateVelocityError):
            simulate_trajectory([0.0, 0.0], [0.0, 0.0], ForceSchedule.constant(5.0, 5.0), 1.0, 10)


class TestScheduleGrid:
    def test_schedule_on_grid(self):
        sched = ForceSchedule.sinusoidal(2.0, 1.0, 3.0, 2.0)
        times = np.array([0.0, 0.25, 0.5])
        fp, fq = schedule_on_grid(sched, times)
        assert_allclose(fp, 2.0 * np.sin(times), rtol=1e-15)
        assert_allclose(fq, 3.0 * np.sin(2.0 * times), rtol=1e-15)


def reference_simulate_batch(x0, v0, schedule, duration, n_steps, physics, handedness):
    """``simulate_batch`` with the stage derivative it had before the
    column-wise stage: ``velocity_from_celerity``, ``compose_lab_force`` and
    ``np.concatenate``, verbatim, and ``f``/``a`` composed by
    ``compose_lab_force`` and ``acceleration_from_force`` over the whole
    ``(K+1, N, 2)`` state, as one record-like object per particle.  Those
    helpers are themselves pinned to their ``np.sum``/``np.stack`` forms in
    ``test_relativity.py``."""
    w0 = celerity_from_velocity(v0, physics)  # also enforces |v0| < c

    def deriv(t: float, y: np.ndarray) -> np.ndarray:
        x, w = y[:, :2], y[:, 2:]
        v = velocity_from_celerity(w, physics)
        f_unit = compose_lab_force(schedule.f_par(t), schedule.f_perp(t), v, handedness)
        return np.concatenate([v, f_unit], axis=1)

    y0 = np.concatenate([x0, w0], axis=1)
    times, states = integrate_fixed_grid(deriv, y0, 0.0, duration, n_steps, method="rk4")
    assert np.all(np.isfinite(states))
    vs = velocity_from_celerity(states[:, :, 2:], physics)
    fp_grid, fq_grid = schedule_on_grid(schedule, times)
    f_par, f_perp = physics.m * fp_grid, physics.m * fq_grid
    f_lab = compose_lab_force(f_par[:, None], f_perp[:, None], vs, handedness)
    accel = acceleration_from_force(vs, f_lab, physics)
    assert np.all(np.isfinite(f_lab)) and np.all(np.isfinite(accel))
    x, v, a, f = (col.swapaxes(0, 1) for col in (states[:, :, :2], vs, accel, f_lab))
    return [
        SimpleNamespace(index=i, times=times, x=x[i], v=v[i], a=a[i], f=f[i], f_par=f_par, f_perp=f_perp)
        for i in range(len(x0))
    ]


RECORD_ARRAYS = ("times", "x", "v", "a", "f", "f_par", "f_perp")


def assert_same_bits(records, reference):
    assert len(records) == len(reference)
    for rec, ref in zip(records, reference):
        for name in RECORD_ARRAYS:
            got, want = getattr(rec, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (rec.index, name)


def _dataset_case(spec: DatasetSpec, physics: PhysicsConfig = DEFAULT_PHYSICS):
    x0 = source_points(spec, range(spec.n_points), physics)
    return x0, initial_velocity(spec, x0), force_schedule_for(spec)


class TestColumnStageBitIdentity:
    """The column-wise stage derivative against the parent's, byte for byte."""

    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("stress", [False, True], ids=["x1", "x100"])
    def test_dataset_schedules(self, kind, handedness, stress):
        spec = DatasetSpec(kind=kind, n_points=40, seed=11, handedness=handedness)
        spec = stress_spec(spec) if stress else spec
        x0, v0, schedule = _dataset_case(spec)
        got = simulate_batch(x0, v0, schedule, spec.duration, spec.n_steps, handedness=handedness)
        want = reference_simulate_batch(x0, v0, schedule, spec.duration, spec.n_steps, DEFAULT_PHYSICS, handedness)
        assert_same_bits(got, want)

    def test_heavier_particle(self):
        physics = PhysicsConfig(m=3.0)
        spec = DatasetSpec(kind="halfmoons", n_points=40, seed=3)
        x0, v0, schedule = _dataset_case(spec, physics)
        got = simulate_batch(x0, v0, schedule, 1.0, 200, physics=physics)
        want = reference_simulate_batch(x0, v0, schedule, 1.0, 200, physics, 1)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("handedness", [1, -1])
    def test_zero_force_with_a_resting_point_takes_the_fallback_stage(self, handedness):
        """Every stage has a resting point, so every stage composes through
        ``compose_lab_force``'s masked path; signed zeros included."""
        x0 = np.array([[0.0, 0.0], [0.5, -0.3], [-0.2, 0.4]])
        v0 = np.array([[0.0, 0.0], [-3.0, 0.0], [2.0, -2.0]])
        schedule = ForceSchedule.constant(0.0, 0.0)
        got = simulate_batch(x0, v0, schedule, 1.0, 50, handedness=handedness)
        want = reference_simulate_batch(x0, v0, schedule, 1.0, 50, DEFAULT_PHYSICS, handedness)
        assert_same_bits(got, want)
        assert np.array_equal(got[0].x, np.zeros((51, 2)))

    def test_nonzero_force_on_a_resting_point_is_degenerate(self):
        x0 = np.zeros((2, 2))
        v0 = np.array([[3.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateVelocityError):
            simulate_batch(x0, v0, ForceSchedule.constant(0.0, 1.0), 1.0, 10)

    def test_non_finite_celerity_is_refused(self):
        x0 = np.zeros((2, 2))
        v0 = np.array([[3.0, 0.0], [0.0, 2.0]])
        with pytest.raises(NonFiniteError, match="celerity must be finite"):
            simulate_batch(x0, v0, ForceSchedule.constant(np.nan, 0.0), 1.0, 10)

    def test_handedness_is_checked(self):
        with pytest.raises(ValueError, match="handedness"):
            simulate_batch(np.zeros((1, 2)), np.array([[1.0, 0.0]]), ForceSchedule.constant(1.0, 1.0), handedness=2)


def composed(v, f_par, f_perp, physics, handedness):
    """``f`` and ``a`` by ``compose_lab_force`` and ``acceleration_from_force`` on the whole block, verbatim."""
    f_lab = compose_lab_force(f_par, f_perp, v, handedness)
    return f_lab, acceleration_from_force(v, f_lab, physics)


class TestDerivationKernel:
    """``lab_force_and_acceleration`` on component rows in blocks, against the composition, byte for byte."""

    @staticmethod
    def velocities(n, k1, seed=4):
        """Speeds from 1e-9 to 0.999 c in every direction, signed zeros among the components."""
        rng = np.random.default_rng(seed)
        speeds = C * rng.choice([1e-9, 1e-3, 0.5, 0.9, 0.999], size=(n, k1)) * rng.uniform(0.5, 1.0, size=(n, k1))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(n, k1))
        v = np.stack([speeds * np.cos(angle), speeds * np.sin(angle)], axis=-1)
        v[0, :3] = [[0.0, 2.0], [-0.0, -3.0], [4.0, -0.0]]
        return v

    @pytest.mark.parametrize("physics", [DEFAULT_PHYSICS, PhysicsConfig(m=3.0)], ids=["m1", "m3"])
    @pytest.mark.parametrize("handedness", [1, -1])
    @pytest.mark.parametrize("layout", ["trajectory-major", "time-major"])
    def test_matches_the_composition(self, layout, handedness, physics):
        """300 rows (three blocks, the last one short), as a contiguous (N, K+1, 2) block or as the
        transposed view of a (K+1, N, 2) array; the schedule has signed zeros and both signs."""
        n, k1 = 300, 9
        v = self.velocities(n, k1)
        if layout == "time-major":
            v = np.ascontiguousarray(v.swapaxes(0, 1)).swapaxes(0, 1)
        f_par = np.array([0.0, -0.0, 1.5, -2.0, 1e-300, 7.0, 0.0, -3.0, 2.5]) * physics.m
        f_perp = np.array([0.0, 2.0, -0.0, 3.0, -1.0, 0.0, -0.0, 1e3, -4.0]) * physics.m
        f, a = lab_force_and_acceleration(v, f_par, f_perp, physics, handedness)
        want_f, want_a = composed(v, f_par, f_perp, physics, handedness)
        assert f.flags.c_contiguous and a.flags.c_contiguous and f.shape == a.shape == (n, k1, 2)
        assert f.tobytes() == want_f.tobytes() and a.tobytes() == want_a.tobytes()

    @pytest.mark.parametrize("handedness", [1, -1])
    def test_resting_row_under_zero_force(self, handedness):
        """A resting row in the second block sends that block through the composition itself."""
        n, k1 = 200, 5
        v = self.velocities(n, k1)
        v[150] = 0.0
        f_par = np.array([0.0, 1.0, -2.0, 0.0, 3.0])
        f_perp = np.array([0.0, -1.0, 0.5, 0.0, 0.0])
        f_par[1:3] = f_perp[1:3] = 0.0  # no force at all where row 150 rests
        v[150, 3:] = [[1.0, 2.0], [-3.0, 0.5]]  # the row moves again once it is pushed
        f, a = lab_force_and_acceleration(v, f_par, f_perp, DEFAULT_PHYSICS, handedness)
        want_f, want_a = composed(v, f_par, f_perp, DEFAULT_PHYSICS, handedness)
        assert f.tobytes() == want_f.tobytes() and a.tobytes() == want_a.tobytes()
        assert not f[150, :3].any() and not a[150, :3].any()

    def test_resting_row_under_a_nonzero_force_is_degenerate(self):
        v = self.velocities(200, 4)
        v[170, 2] = 0.0
        with pytest.raises(DegenerateVelocityError):
            lab_force_and_acceleration(v, np.ones(4), np.zeros(4), DEFAULT_PHYSICS, 1)

    def test_row_at_c_is_over_the_speed_limit(self):
        v = self.velocities(200, 4)
        v[130, 1] = [0.0, C]
        with pytest.raises(SpeedLimitError, match=f"speed {C!r} >= c"):
            lab_force_and_acceleration(v, np.ones(4), np.ones(4), DEFAULT_PHYSICS, 1)

    @pytest.mark.parametrize("fast", [[1], [129, 3], [129]], ids=["first-block", "first-of-two", "second-block"])
    def test_first_underivable_names_the_first_row_beyond_c(self, fast):
        """Rows at 100 times their speed, beyond c: the first is named with its error, whichever block it is in."""
        batch = generate(DatasetSpec(kind="onedot", n_points=130, n_steps=5, seed=7))
        assert first_underivable(batch) is None
        v = batch.v.copy()
        v[fast] *= 100
        row, e = first_underivable(replace(batch, v=v))
        assert row == min(fast) and isinstance(e, SpeedLimitError) and str(e).endswith(">= c = 10.0")
