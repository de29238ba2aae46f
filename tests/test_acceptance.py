"""Acceptance gate: one test per shipped guarantee.

Each ``test_criterion_N_*`` checks one promise at its stated tolerance, so
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  The module fixture runs ``form_lab.pipeline.run_table`` once
with its defaults, the same run as ``scripts/run_table.py`` (three
datasets, nine models, one evaluation pass), and is reused by the criteria
that need it; expect the file to take a couple of minutes.

Criteria:
  1. ForM beats both flow baselines on every dataset (strictly better than
     O1+O2, under half the O1 loss), O1+O2 <= O1 on at least two datasets,
     and the whole default pipeline fits in a 15-minute budget.
  2. No sampled or simulated speed ever reaches c - including 100x-force
     stress runs and randomly initialized force heads at M in {10,100,1000}.
  3. force -> acceleration -> force round-trips to 1e-9 relative error over
     1e4 random states with speeds up to 0.99c.
  4. The force function equals the lab-time derivative of relativistic
     momentum to 1e-5 relative on analytic paths.
  5. The closed-form trigonometric-interpolant force matches the generic
     force applied to finite-difference path derivatives to 1e-6.
  6. Simulated trajectories satisfy the relativistic work identity to 1e-4,
     and purely perpendicular forces leave the speed constant to 1e-6.
  7. Hand-rolled MLP gradients match central differences (h = 1e-5) to 1e-5
     over 20 random networks.
  8. The RK4 integrator contracts error ~16x when halving the step and the
     Euler integrator ~2x.
  9. Everything is deterministic: same inputs give bit-identical datasets,
     checkpoints, samples, and files that survive read -> write unchanged.
"""

import math
import time

import numpy as np
import pytest

from form_lab.datasets import (
    DatasetSpec,
    KINDS,
    force_schedule_for,
    generate,
    initial_velocity,
    source_points,
    stress_spec,
)
from form_lab.dynamics import ForceSchedule, simulate_trajectory
from form_lab.errors import DegenerateVelocityError
from form_lab.formats import (
    read_checkpoint,
    read_dataset,
    write_checkpoint,
    write_dataset,
)
from form_lab.interpolants import interpolate, trigflow_force, trigflow_schedule
from form_lab.neural import MlpParams, mlp_backward, mlp_forward, mlp_init
from form_lab.ode import integrate_fixed_grid
from form_lab.pipeline import run_table
from form_lab.relativity import (
    DEFAULT_PHYSICS,
    acceleration_from_force,
    momentum,
    relativistic_force,
    speed,
    speed_sq_derivative,
    velocity_from_celerity,
)
from form_lab.sampling import SamplerConfig, force_path, sample_form
from form_lab.training import TrainConfig, TrainedModel, train

C = DEFAULT_PHYSICS.c


def _announce(n: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {n} [{name}]: PASS - {detail}")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The full default pipeline: generate, split, train 9 models, evaluate, write."""
    t0 = time.perf_counter()
    run = run_table(tmp_path_factory.mktemp("table"))
    losses = {(c.dataset, c.method): c.loss for c in run["cells"]}
    return {**run, "losses": losses, "elapsed": time.perf_counter() - t0}


def test_criterion_1_ranking_and_budget(pipeline):
    losses = pipeline["losses"]
    for kind in KINDS:
        form, o1o2, o1 = losses[(kind, "form")], losses[(kind, "o1o2")], losses[(kind, "o1")]
        assert form < o1o2, f"{kind}: ForM {form:.4f} !< O1+O2 {o1o2:.4f}"
        assert form < 0.5 * o1, f"{kind}: ForM {form:.4f} !< 0.5 x O1 {o1:.4f}"
    second_order_wins = sum(losses[(k, "o1o2")] <= losses[(k, "o1")] for k in KINDS)
    assert second_order_wins >= 2, f"O1+O2 beat O1 on only {second_order_wins}/3 datasets"
    assert pipeline["elapsed"] < 900.0, f"pipeline took {pipeline['elapsed']:.0f}s"
    table = "; ".join(
        f"{k}: o1={losses[(k, 'o1')]:.4f} o1o2={losses[(k, 'o1o2')]:.4f} form={losses[(k, 'form')]:.4f}"
        for k in KINDS
    )
    _announce(1, "ranking and budget", f"{table}; wall {pipeline['elapsed']:.0f}s")


def test_criterion_2_speed_limit_everywhere(pipeline):
    # (a) every recorded speed in the shipped datasets
    dataset_max = 0.0
    for kind in KINDS:
        m = max(float(np.max(speed(r.v))) for r in pipeline["data"][kind]["records"])
        assert m < C, f"{kind} dataset reached {m / C:.6f} c"
        dataset_max = max(dataset_max, m)

    # (b) trained force heads across sampler resolutions
    trained_max = 0.0
    for kind in KINDS:
        x0 = np.stack([r.x0 for r in pipeline["data"][kind]["heldout"]])
        for n_steps in (10, 100, 1000):
            path = sample_form(pipeline["models"][(kind, "form")], x0, SamplerConfig(n_steps=n_steps))
            m = float(np.max(speed(path.v)))
            assert m < C, f"{kind} form sampler (M={n_steps}) reached {m / C:.6f} c"
            trained_max = max(trained_max, m)

    # (c) 100x forces through both the simulator and the force sampler
    stress_max = 0.0
    for kind in KINDS:
        sspec = stress_spec(DatasetSpec(kind=kind, n_points=48))
        for record in generate(sspec):
            m = float(np.max(speed(record.v)))
            assert m < C, f"{kind} 100x simulation reached {m / C:.6f} c"
            stress_max = max(stress_max, m)
        schedule = force_schedule_for(sspec)
        x0 = source_points(sspec, list(range(16)))
        v0 = initial_velocity(sspec, x0)

        def components(x, t, schedule=schedule):
            return schedule.f_par(t), schedule.f_perp(t)

        for n_steps in (10, 100, 1000):
            path = force_path(components, x0, v0, sspec.duration, n_steps, handedness=sspec.handedness)
            m = float(np.max(speed(path.v)))
            assert m < C, f"{kind} 100x sampler (M={n_steps}) reached {m / C:.6f} c"
            stress_max = max(stress_max, m)
    assert stress_max > 0.99 * C, "stress runs never got near c; the stress is toothless"

    # (d) randomly initialized force heads: braking through rest is a
    # documented hard error, but no completed run may ever cross c.
    x0 = np.stack([r.x0 for r in pipeline["data"]["onedot"]["heldout"]])
    onedot_info = pipeline["data"]["onedot"]["spec"].to_dict()
    completed, random_max = 0, 0.0
    for seed in range(6):
        head = mlp_init((1, 64, 64, 2), seed=seed)
        weights = list(head.weights)
        weights[-1] = weights[-1] * 100.0
        model = TrainedModel(
            method="form",
            heads={"F": MlpParams(head.layer_dims, tuple(weights), head.biases)},
            duration=1.0,
            physics=DEFAULT_PHYSICS,
            train_config=TrainConfig(method="form"),
            dataset_info=onedot_info,
        )
        for n_steps in (10, 100, 1000):
            try:
                path = sample_form(model, x0, SamplerConfig(n_steps=n_steps))
            except DegenerateVelocityError:
                continue
            completed += 1
            m = float(np.max(speed(path.v)))
            assert m < C, f"random head (seed {seed}, M={n_steps}) reached {m / C:.6f} c"
            random_max = max(random_max, m)
    assert completed >= 3, "nearly all random-head runs braked to rest; stress is vacuous"
    assert random_max > 0.5 * C

    _announce(
        2,
        "speed limit",
        f"datasets {dataset_max / C:.4f}c, trained {trained_max / C:.4f}c, "
        f"100x stress {stress_max / C:.6f}c, random heads {random_max / C:.4f}c "
        f"({completed}/18 runs completed) - all < c",
    )


def test_criterion_3_force_acceleration_round_trip():
    rng = np.random.default_rng(0)
    n = 10_000
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    magnitude = rng.uniform(0.0, 0.99 * C, n)
    v = magnitude[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    f = rng.normal(0.0, 50.0, (n, 2))
    f_back = relativistic_force(v, acceleration_from_force(v, f))
    rel = np.linalg.norm(f_back - f, axis=-1) / np.maximum(np.linalg.norm(f, axis=-1), 1e-12)
    worst = float(np.max(rel))
    assert worst <= 1e-9
    _announce(3, "force/acceleration round trip", f"max rel err {worst:.2e} over {n} draws <= 0.99c")


def test_criterion_4_force_is_momentum_rate():
    h = 1e-5
    times = np.linspace(0.05, 1.95, 100)

    w0, g = 2.0, 7.0

    def boost_v(t):
        return velocity_from_celerity(np.array([w0 + g * t, 0.0]))

    def boost_a(t):
        gamma = math.sqrt(1.0 + ((w0 + g * t) / C) ** 2)
        return np.array([g / gamma**3, 0.0])

    s, omega = 8.0, 3.0  # 0.8c circular motion

    def circle_v(t):
        return np.array([s * math.cos(omega * t), s * math.sin(omega * t)])

    def circle_a(t):
        return np.array([-s * omega * math.sin(omega * t), s * omega * math.cos(omega * t)])

    amp_x, amp_y = 6.0, 3.0

    def mixed_v(t):
        return np.array([amp_x * math.sin(t), amp_y * math.cos(2.0 * t)])

    def mixed_a(t):
        return np.array([amp_x * math.cos(t), -2.0 * amp_y * math.sin(2.0 * t)])

    worst = 0.0
    for v_of, a_of in ((boost_v, boost_a), (circle_v, circle_a), (mixed_v, mixed_a)):
        for t in times:
            analytic = relativistic_force(v_of(t), a_of(t))
            fd = (momentum(v_of(t + h)) - momentum(v_of(t - h))) / (2.0 * h)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
            worst = max(worst, float(rel))
    assert worst <= 1e-5
    _announce(4, "force = dp/dt (lab time)", f"max rel err {worst:.2e} on 3 analytic paths x 100 times")


def test_criterion_5_trigflow_force_dual_route():
    schedule = trigflow_schedule()
    rng = np.random.default_rng(5)
    h = 1e-4
    times = np.linspace(h, schedule.duration - h, 100)
    worst = 0.0
    for _ in range(50):
        radii = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, 2))
        angles = rng.uniform(0.0, 2.0 * np.pi, 2)
        x0 = radii[0] * np.array([np.cos(angles[0]), np.sin(angles[0])])
        x1 = radii[1] * np.array([np.cos(angles[1]), np.sin(angles[1])])
        for t in times:
            x_t, _, _ = interpolate(x0, x1, t, schedule)
            x_plus, _, _ = interpolate(x0, x1, t + h, schedule)
            x_minus, _, _ = interpolate(x0, x1, t - h, schedule)
            v_fd = (x_plus - x_minus) / (2.0 * h)
            a_fd = (x_plus - 2.0 * x_t + x_minus) / (h * h)
            closed = trigflow_force(x0, x1, t)
            generic = relativistic_force(v_fd, a_fd)
            err = np.linalg.norm(closed - generic) / max(1.0, np.linalg.norm(closed))
            worst = max(worst, float(err))
    assert worst <= 1e-6
    _announce(5, "trigonometric force dual route", f"max err {worst:.2e} over 50 pairs x 100 times")


def test_criterion_6_work_identity_and_perpendicular_invariance():
    worst_identity = 0.0
    for kind in KINDS:
        spec = DatasetSpec(kind=kind)
        x0 = source_points(spec, [0])[0]
        v0 = initial_velocity(spec, x0[None])[0]
        record = simulate_trajectory(
            x0, v0, force_schedule_for(spec), spec.duration, 2000, handedness=spec.handedness
        )
        half_speed_sq = 0.5 * np.sum(record.v**2, axis=-1)
        dt = record.times[1] - record.times[0]
        fd = (half_speed_sq[2:] - half_speed_sq[:-2]) / (2.0 * dt)
        predicted = speed_sq_derivative(record.v, record.f)[1:-1]
        scale = max(1e-12, float(np.max(np.abs(predicted))))
        worst_identity = max(worst_identity, float(np.max(np.abs(fd - predicted))) / scale)
    assert worst_identity <= 1e-4

    perp = ForceSchedule(f_par=lambda t: 0.0, f_perp=lambda t: (70.0 / 3.0) * math.sin(8.0 * t))
    record = simulate_trajectory([0.0, 0.0], [4.0, 0.0], perp, 1.0, 2000)
    sim_drift = float(np.max(np.abs(speed(record.v) - 4.0))) / 4.0
    assert sim_drift <= 1e-6

    path = force_path(
        lambda x, t: (0.0, (70.0 / 3.0) * math.sin(8.0 * t)), np.zeros(2), [4.0, 0.0], 1.0, 2000
    )
    sampler_drift = float(np.max(np.abs(speed(path.v) - 4.0))) / 4.0
    assert sampler_drift <= 1e-12

    _announce(
        6,
        "work identity",
        f"identity residual {worst_identity:.2e}; perpendicular speed drift "
        f"{sim_drift:.2e} (simulator) / {sampler_drift:.2e} (sampler)",
    )


def test_criterion_7_gradient_check():
    h = 1e-5
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        dims = (int(rng.integers(1, 4)), int(rng.integers(3, 8)), int(rng.integers(1, 3)))
        params = mlp_init(dims, seed=int(rng.integers(1_000_000)))
        x = rng.normal(size=(3, dims[0]))
        grad_out = rng.normal(size=(3, dims[-1]))
        analytic, _ = mlp_backward(params, x, grad_out)

        def loss(weights, biases):
            p = MlpParams(params.layer_dims, tuple(weights), tuple(biases))
            return float(np.sum(grad_out * mlp_forward(p, x)))

        for store, kind in ((analytic.weights, "weights"), (analytic.biases, "biases")):
            source = getattr(params, kind)
            for layer, grad in enumerate(store):
                for idx in np.ndindex(grad.shape):
                    bumped_plus = [a.copy() for a in source]
                    bumped_minus = [a.copy() for a in source]
                    bumped_plus[layer][idx] += h
                    bumped_minus[layer][idx] -= h
                    if kind == "weights":
                        numeric = (loss(bumped_plus, params.biases) - loss(bumped_minus, params.biases)) / (2 * h)
                    else:
                        numeric = (loss(params.weights, bumped_plus) - loss(params.weights, bumped_minus)) / (2 * h)
                    rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1e-6)
                    worst = max(worst, rel)
    assert worst <= 1e-5
    _announce(7, "gradient check", f"max rel err {worst:.2e} over 20 random nets, h = {h}")


def test_criterion_8_integrator_orders():
    exact = math.exp(math.sin(2.0))

    def deriv(t, y):
        return math.cos(t) * y

    def endpoint_error(method, n):
        _, states = integrate_fixed_grid(deriv, np.array([1.0]), 0.0, 2.0, n, method=method)
        return abs(float(states[-1][0]) - exact)

    rk4_ratio = endpoint_error("rk4", 40) / endpoint_error("rk4", 80)
    euler_ratio = endpoint_error("euler", 200) / endpoint_error("euler", 400)
    assert 11.0 < rk4_ratio < 22.0, f"RK4 contraction {rk4_ratio:.2f} not ~16"
    assert 1.7 < euler_ratio < 2.4, f"Euler contraction {euler_ratio:.2f} not ~2"
    _announce(8, "integrator orders", f"RK4 contraction {rk4_ratio:.2f}, Euler contraction {euler_ratio:.2f}")


def test_criterion_9_determinism_and_round_trips(tmp_path):
    spec = DatasetSpec(kind="halfmoons", n_points=12, n_steps=30, seed=9)
    first, second = generate(spec), generate(spec)
    for a, b in zip(first, second):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    threaded = generate(spec, max_workers=4)
    for a, b in zip(first, threaded):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)

    d1, d2 = tmp_path / "d1.ndjson", tmp_path / "d2.ndjson"
    write_dataset(d1, first, spec, DEFAULT_PHYSICS)
    write_dataset(d2, second, spec, DEFAULT_PHYSICS)
    assert d1.read_bytes() == d2.read_bytes()

    header, loaded = read_dataset(d1)
    d3 = tmp_path / "d3.ndjson"
    write_dataset(d3, loaded, spec, DEFAULT_PHYSICS)
    assert d3.read_bytes() == d1.read_bytes()

    config = TrainConfig(method="form", steps=80, batch_size=8, seed=5, hidden_dims=(8, 8))
    m1 = train(first, config, dataset_info=spec.to_dict())
    m2 = train(second, config, dataset_info=spec.to_dict())
    c1, c2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_checkpoint(c1, m1)
    write_checkpoint(c2, m2)
    assert c1.read_bytes() == c2.read_bytes()

    c3 = tmp_path / "m3.json"
    write_checkpoint(c3, read_checkpoint(c1))
    assert c3.read_bytes() == c1.read_bytes()

    x0 = np.stack([r.x0 for r in first[:4]])
    p1 = sample_form(m1, x0, SamplerConfig(n_steps=25))
    p2 = sample_form(read_checkpoint(c1), x0, SamplerConfig(n_steps=25))
    assert np.array_equal(p1.x, p2.x) and np.array_equal(p1.v, p2.v)

    _announce(
        9,
        "determinism",
        "datasets, checkpoints, and samples are bit-identical across reruns, "
        "thread counts, and file round trips",
    )
