"""Dataset generators: determinism, geometry, and configuration."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from form_lab import datasets
from form_lab.datasets import (
    DEFAULT_N_POINTS,
    KINDS,
    POINTS_PER_WORKER,
    DatasetSpec,
    force_schedule_for,
    generate,
    holdout_split,
    initial_velocity,
    source_points,
    stress_spec,
    worker_count,
)
from form_lab.dynamics import TrajectoryBatch
from form_lab.errors import DegenerateVelocityError
from form_lab.relativity import DEFAULT_PHYSICS


class TestSpec:
    def test_default_sizes(self):
        assert DEFAULT_N_POINTS == {"onedot": 200, "halfmoons": 1000, "spiral": 1000}
        assert DatasetSpec(kind="halfmoons").n_points == 1000
        assert DatasetSpec(kind="onedot", n_points=7).n_points == 7
        assert DatasetSpec(kind="halfmoons") == DatasetSpec(kind="halfmoons", n_points=1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="blob")
        with pytest.raises(ValueError):
            DatasetSpec(kind="onedot", n_steps=1)
        with pytest.raises(ValueError):
            DatasetSpec(kind="onedot", duration=0.0)
        with pytest.raises(ValueError):
            DatasetSpec(kind="onedot", handedness=2)
        with pytest.raises(ValueError):
            DatasetSpec(kind="onedot", seed=-1)

    @pytest.mark.parametrize(
        "name",
        ["duration", "source_variance", "initial_speed", "core_speed", "ring_speed", "disc_radius", "force_scale"],
    )
    # 10**400: an int no float can hold; True: a bool is no real field's value
    @pytest.mark.parametrize("value", [np.inf, np.nan, 10**400, True, "1.0"])
    def test_positive_fields_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            DatasetSpec(kind="onedot", **{name: value})

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -(10**400), True])
    def test_velocity_scale_must_be_finite_of_either_sign(self, value):
        with pytest.raises(ValueError, match="velocity_scale must be finite"):
            DatasetSpec(kind="halfmoons", velocity_scale=value)
        assert DatasetSpec(kind="onedot", velocity_scale=-4.0).velocity_scale == -4.0

    def test_dict_round_trip(self):
        spec = DatasetSpec(kind="spiral", n_points=12, seed=5, ring_speed=3.0)
        rebuilt = DatasetSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()


class TestForceSchedules:
    def test_onedot_constant_five_five(self):
        sched = force_schedule_for(DatasetSpec(kind="onedot"))
        for t in (0.0, 0.33, 1.0):
            assert sched.f_par(t) == 5.0 and sched.f_perp(t) == 5.0

    def test_halfmoons_amplitudes_and_frequencies(self):
        sched = force_schedule_for(DatasetSpec(kind="halfmoons"))
        t = 0.37
        assert_allclose(sched.f_par(t), np.sin(t) / 3.0, rtol=1e-15)
        assert_allclose(sched.f_perp(t), 70.0 / 3.0 * np.sin(8.0 * t), rtol=1e-15)

    def test_spiral_shares_frequency(self):
        sched = force_schedule_for(DatasetSpec(kind="spiral"))
        t = 0.81
        assert_allclose(sched.f_perp(t) / sched.f_par(t), 70.0, rtol=1e-12)

    def test_force_scale(self):
        sched = force_schedule_for(stress_spec(DatasetSpec(kind="onedot"), 100.0))
        assert sched.f_par(0.5) == 500.0


class TestSources:
    def test_per_index_determinism(self):
        """Source point i depends only on (seed, i), never on batch layout."""
        spec = DatasetSpec(kind="halfmoons", n_points=10, seed=4)
        full = source_points(spec, range(10))
        assert np.array_equal(source_points(spec, range(6)), full[:6])
        assert np.array_equal(source_points(spec, [7]), full[7:8])

    def test_onedot_default_valid_where_a_first_draw_reaches_c(self):
        """At seed 63 a first draw lies beyond |x0| = 2.5, so v0 = 4 x0 would reach c; only it is redrawn."""
        records = generate(DatasetSpec(kind="onedot", seed=63))
        assert max(float(np.max(np.sum(r.v * r.v, axis=-1))) for r in records) < 10.0**2
        streams = (np.random.default_rng(np.random.SeedSequence(63, spawn_key=(i,))) for i in range(200))
        first = np.stack([rng.normal(0.0, np.sqrt(0.3), 2) for rng in streams])
        kept = np.sum((4.0 * first) ** 2, axis=-1) < 10.0**2
        assert not kept.all()
        assert np.array_equal(np.stack([r.x0 for r in records])[kept], first[kept])

    def test_gaussian_variance(self):
        spec = DatasetSpec(kind="onedot", n_points=4000, seed=0, source_variance=0.3)
        pts = source_points(spec, range(4000))
        assert abs(pts.var() - 0.3) < 0.03
        assert abs(pts.mean()) < 0.03

    def test_spiral_inside_disc(self):
        spec = DatasetSpec(kind="spiral", n_points=500, seed=1, disc_radius=0.8)
        radii = np.sqrt((source_points(spec, range(500)) ** 2).sum(-1))
        assert np.all(radii <= 0.8)
        # uniform disc: mean radius 2R/3
        assert abs(radii.mean() - 2.0 * 0.8 / 3.0) < 0.03


class TestInitialVelocities:
    def test_onedot_radial(self):
        spec = DatasetSpec(kind="onedot")
        assert_allclose(initial_velocity(spec, [0.5, -0.25]), [2.0, -1.0], rtol=1e-15)

    def test_halfmoons_split(self):
        """Upper half-cloud moves -x, lower +x, at the configured speed."""
        spec = DatasetSpec(kind="halfmoons")
        v = initial_velocity(spec, np.array([[0.3, 0.7], [-0.1, -0.2]]))
        assert_allclose(v, [[-4.0, 0.0], [4.0, 0.0]], rtol=1e-15)

    def test_spiral_tangential_ccw(self):
        spec = DatasetSpec(kind="spiral")
        pts = source_points(DatasetSpec(kind="spiral", n_points=200, seed=2), range(200))
        v = initial_velocity(spec, pts)
        # perpendicular to the radius, counter-clockwise
        assert np.max(np.abs((pts * v).sum(-1))) < 1e-12
        assert np.all(pts[:, 0] * v[:, 1] - pts[:, 1] * v[:, 0] > 0.0)
        speeds = np.sqrt((v**2).sum(-1))
        assert np.all((speeds >= 1.0) & (speeds < 6.0))  # in [base/2, base)

    def test_spiral_speed_ramp(self):
        spec = DatasetSpec(kind="spiral")
        inner = initial_velocity(spec, [0.4, 0.0])  # r < R/2, theta = 0
        outer = initial_velocity(spec, [0.9, 0.0])  # r >= R/2, theta = 0
        assert_allclose(np.linalg.norm(inner), 1.0, rtol=1e-12)  # core 2 * 1/2
        assert_allclose(np.linalg.norm(outer), 3.0, rtol=1e-12)  # ring 6 * 1/2

    def test_spiral_center_degenerate(self):
        with pytest.raises(DegenerateVelocityError):
            initial_velocity(DatasetSpec(kind="spiral"), [0.0, 0.0])


class TestGenerate:
    def test_thread_count_does_not_change_bits(self):
        spec = DatasetSpec(kind="spiral", n_points=9, n_steps=20, seed=8)
        a = generate(spec, max_workers=1)
        b = generate(spec, max_workers=4)
        for ra, rb in zip(a, b):
            assert ra.index == rb.index
            assert np.array_equal(ra.x, rb.x)
            assert np.array_equal(ra.v, rb.v)

    def test_prefix_stability(self):
        """Generating fewer points reproduces a prefix of the larger run."""
        big = generate(DatasetSpec(kind="onedot", n_points=8, n_steps=15, seed=2), max_workers=2)
        small = generate(DatasetSpec(kind="onedot", n_points=5, n_steps=15, seed=2), max_workers=3)
        for rb, rs in zip(big[:5], small):
            assert np.array_equal(rb.x, rs.x) and np.array_equal(rb.v, rs.v)

    def test_initial_conditions_respected(self, tiny_halfmoons):
        spec, records = tiny_halfmoons
        x0 = source_points(spec, [r.index for r in records])
        v0 = initial_velocity(spec, x0)
        assert_allclose(np.stack([r.x0 for r in records]), x0, rtol=0)
        assert_allclose(np.stack([r.v0 for r in records]), v0, rtol=0)

    def test_worker_count_explicit(self):
        assert worker_count(2) == 2
        with pytest.raises(ValueError, match="worker count must be >= 1, got 0"):
            worker_count(0)

    def test_chunked_path_does_not_change_bits(self, monkeypatch):
        """Past ``2 * POINTS_PER_WORKER`` points, 2 and 3 workers run two chunks on the pool, with 1 worker's bits."""
        chunks = []
        real = datasets.simulate_batch

        def spy(x0, *args, **kwargs):
            chunks.append(len(x0))
            return real(x0, *args, **kwargs)

        monkeypatch.setattr(datasets, "simulate_batch", spy)
        spec = DatasetSpec(kind="halfmoons", n_points=2 * POINTS_PER_WORKER + 1, n_steps=2, seed=4)
        one = generate(spec, max_workers=1)
        assert chunks == [spec.n_points]
        for workers in (2, 3):
            chunks.clear()
            batch = generate(spec, max_workers=workers)
            assert sorted(chunks) == [POINTS_PER_WORKER, POINTS_PER_WORKER + 1]
            assert np.array_equal(batch.index, one.index)
            for k in ("x", "v", "a", "f"):
                assert getattr(batch, k).tobytes() == getattr(one, k).tobytes()

    def test_small_dataset_starts_no_pool(self, monkeypatch):
        """The pool width is bounded by the point count, not by ``max_workers`` alone."""

        def no_pool(*args, **kwargs):
            raise AssertionError(f"ThreadPoolExecutor constructed with {args} {kwargs}")

        monkeypatch.setattr(datasets, "ThreadPoolExecutor", no_pool)
        batch = generate(DatasetSpec(kind="spiral", n_points=1000, n_steps=2), max_workers=10**6)
        assert len(batch) == 1000

    def test_worker_count_default_is_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(datasets.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert worker_count() == 3
        monkeypatch.delattr(datasets.os, "sched_getaffinity")
        assert worker_count() == 64


class TestHoldout:
    def test_split_sizes_and_order(self):
        records = generate(DatasetSpec(kind="onedot", n_points=10, n_steps=10, seed=0))
        train, heldout = holdout_split(records)
        assert [r.index for r in train] == list(range(8))
        assert [r.index for r in heldout] == [8, 9]

    def test_zero_fraction_holds_out_nothing(self):
        records = generate(DatasetSpec(kind="onedot", n_points=3, n_steps=10, seed=0))
        train, heldout = holdout_split(records, fraction=0.0)
        assert [r.index for r in train] == [0, 1, 2]
        assert len(heldout) == 0

    def test_split_validation(self):
        records = generate(DatasetSpec(kind="onedot", n_points=3, n_steps=10, seed=0))
        with pytest.raises(ValueError):
            holdout_split(records)  # 20% of 3 rounds to zero
        with pytest.raises(ValueError):
            holdout_split(records, fraction=1.5)


class TestDerivedBlocksUnderSlicing:
    """A slice derives its own ``a`` and ``f``: the bits must be those the whole batch derives for its rows."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_split_before_the_first_read_keeps_the_bits(self, kind, seed):
        batch = generate(DatasetSpec(kind=kind, n_points=300, n_steps=20, seed=seed))  # 240 | 60 splits a 32-row block
        parts = (*holdout_split(batch), batch[::-1])
        whole = {k: getattr(batch, k) for k in ("a", "f")}  # the first read derives them for all 300 rows
        n_train = len(parts[0])
        for part, rows in zip(parts, (slice(None, n_train), slice(n_train, None), slice(None, None, -1))):
            for k, block in whole.items():
                assert getattr(part, k).tobytes() == block[rows].tobytes(), (k, rows)

    @pytest.mark.parametrize("handedness", [1, -1])
    def test_a_resting_point_under_zero_force_keeps_the_bits(self, handedness):
        """Row 0 rests at knot 2, where the force is zero: the whole batch derives through
        ``compose_lab_force``'s fallback, a slice without row 0 through the row kernel."""
        rng = np.random.default_rng(4)
        n, k1 = 5, 6
        v = rng.uniform(-3.0, 3.0, size=(n, k1, 2))
        v[0, 2] = 0.0
        f_par, f_perp = rng.normal(size=k1), rng.normal(size=k1)
        f_par[2] = f_perp[2] = 0.0
        batch = TrajectoryBatch(np.arange(n), np.linspace(0.0, 1.0, k1), np.zeros_like(v), v, f_par, f_perp,
                                DEFAULT_PHYSICS, handedness)
        parts = [(batch[1:], slice(1, None)), (batch[:0:-1], slice(None, 0, -1))]  # sliced before the first read
        for k in ("a", "f"):
            block = getattr(batch, k)
            for part, rows in parts:
                assert getattr(part, k).tobytes() == block[rows].tobytes(), (k, rows)
