"""``form_lab.pipeline``: the 3 x 3 table in one call, and the measure of every stress run."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from form_lab import evaluate, pipeline
from form_lab.cli import EXIT_OK, main
from form_lab.datasets import KINDS, DatasetSpec, generate, holdout_split
from form_lab.errors import DegenerateVelocityError, NonFiniteError, SpeedLimitError
from form_lab.formats import read_checkpoint, write_checkpoint
from form_lab.pipeline import QUICK_DATASET_STEPS, QUICK_POINTS, QUICK_TRAIN, run_table
from form_lab.relativity import PhysicsConfig
from form_lab.sampling import SamplerConfig, sample_form
from form_lab.training import METHODS, TrainConfig, train

QUICK = TrainConfig(METHODS[0], **QUICK_TRAIN)  # the training that form-lab table --quick runs


def test_each_cell_is_sampled_once(tmp_path, monkeypatch):
    sampled = []
    sample_model = evaluate.sample_model

    def spy(model, *args, **kwargs):
        sampled.append(model.method)
        return sample_model(model, *args, **kwargs)

    monkeypatch.setattr(evaluate, "sample_model", spy)
    run = run_table(tmp_path, replace(QUICK, steps=5), SamplerConfig(n_steps=3), quick=True)
    assert sorted(sampled) == sorted(METHODS * len(KINDS))
    assert list(run["models"]) == [(kind, method) for kind in KINDS for method in METHODS]
    assert [cell.to_dict() for cell in run["cells"]] == run["report"]["cells"]
    assert run["report"]["metadata"]["train_steps"] == 5
    svgs = {p.name for p in (tmp_path / "figures").iterdir()}
    assert svgs == {f"{kind}-{name}.svg" for kind in KINDS for name in ("data", *METHODS)}


def test_run_table_runs_the_configs_it_is_given(tmp_path):
    """Each method trains ``config`` with its own method, the datasets are seeded from it, and the sampler given
    samples; ``run_table`` took loose ints and built its own configs."""
    config = TrainConfig("o1", steps=5, batch_size=8, hidden_dims=(4,), learning_rate=2e-3, seed=3)
    run = run_table(tmp_path, config, SamplerConfig(n_steps=3), quick=True)
    assert {key: model.train_config for key, model in run["models"].items()} == {
        (kind, method): replace(config, method=method) for kind in KINDS for method in METHODS
    }
    assert [data["spec"].seed for data in run["data"].values()] == [3] * len(KINDS)
    assert run["report"]["metadata"]["sampler_steps"] == 3


def test_cli_and_run_table_are_one_pipeline(tmp_path):
    """gen-data, train and eval at run_table(quick=True) sizes write run_table's files and score its cells."""
    table, cli = tmp_path / "table", tmp_path / "cli"
    run = run_table(table, QUICK, quick=True)
    data = cli / "halfmoons.ndjson"
    sizes = ["--n", str(QUICK_POINTS["halfmoons"]), "--steps", str(QUICK_DATASET_STEPS), "--seed", "0"]
    assert main(["gen-data", "--dataset", "halfmoons", "--out", str(data), *sizes]) == EXIT_OK
    assert data.read_bytes() == (table / "datasets" / "halfmoons.ndjson").read_bytes()

    budget = ["--steps", str(QUICK_TRAIN["steps"]), "--batch-size", str(QUICK_TRAIN["batch_size"]), "--seed", "0"]
    models = []
    for method in METHODS:
        out = cli / f"halfmoons-{method}.ndjson"
        assert main(["train", "--data", str(data), "--out", str(out), "--method", method, *budget]) == EXIT_OK
        assert out.read_bytes() == (table / "checkpoints" / f"halfmoons-{method}.ndjson").read_bytes()
        models += ["--model", str(out)]

    report = cli / "report.json"
    assert main(["eval", *models, "--data", str(data), "--report", str(report)]) == EXIT_OK
    want = [cell for cell in run["report"]["cells"] if cell["dataset"] == "halfmoons"]
    assert len(want) == len(METHODS)
    assert json.loads(report.read_text())["cells"] == want


def test_train_and_the_cli_fit_the_physics_of_the_rows(tmp_path):
    """At m = 3, ``train`` on generated rows gives the CLI's model (``fit`` on the file), bit for bit.
    ``train`` took the physics as an argument and recorded m = 1 unless given it."""
    spec = DatasetSpec(kind="spiral", n_points=20, n_steps=20, seed=4)
    physics = PhysicsConfig(m=3.0)
    data, cli_model = tmp_path / "spiral.ndjson", tmp_path / "cli.ndjson"
    argv = ["gen-data", "--dataset", "spiral", "--out", str(data), "--n", "20", "--steps", "20", "--seed", "4"]
    assert main([*argv, "--mass", "3"]) == EXIT_OK
    budget = ["--steps", "30", "--batch-size", "8", "--hidden", "8,8", "--seed", "2"]
    assert main(["train", "--data", str(data), "--out", str(cli_model), "--method", "form", *budget]) == EXIT_OK

    config = TrainConfig(method="form", steps=30, batch_size=8, hidden_dims=(8, 8), seed=2)
    model = train(holdout_split(generate(spec, physics))[0], config, dataset_info=spec.to_dict())
    assert model.physics == physics
    write_checkpoint(tmp_path / "api.ndjson", model)
    assert (tmp_path / "api.ndjson").read_bytes() == cli_model.read_bytes()
    x0 = holdout_split(generate(spec, physics))[1].x0
    paths = [sample_form(m, x0, SamplerConfig(n_steps=12)) for m in (model, read_checkpoint(cli_model))]
    assert np.array_equal(paths[0].x, paths[1].x) and np.array_equal(paths[0].v, paths[1].v)



def _raising(error):
    def run():
        raise error
    return run


@pytest.mark.parametrize(
    "run, shown",
    [
        (lambda: SimpleNamespace(v=np.array([[3.0, 4.0], [0.0, -1.0]])), 0.5),
        (_raising(SpeedLimitError("a sampled speed rounds to c")), "a sampled speed rounds to c"),
        (_raising(DegenerateVelocityError("braked")), None),
    ],
    ids=["ratio", "refusal", "brake"],
)
def test_a_stress_run_shows_its_ratio_its_refusal_or_its_brake(run, shown):
    """The one measure of every ``form-lab stress`` family: |v|/c at c = 10, a refusal's message, or None."""
    assert pipeline._stress_run(run) == shown


def test_a_non_finite_stress_run_is_no_result():
    with pytest.raises(NonFiniteError):
        pipeline._stress_run(_raising(NonFiniteError("overflow")))
