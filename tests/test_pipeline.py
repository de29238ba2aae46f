"""``form_lab.pipeline.run_table``: the 3 x 3 table in one call."""

import numpy as np

from form_lab import evaluate
from form_lab.cli import EXIT_OK, main
from form_lab.datasets import KINDS, DatasetSpec, generate, holdout_split
from form_lab.formats import read_checkpoint, read_report, write_checkpoint
from form_lab.pipeline import QUICK_DATASET_STEPS, QUICK_POINTS, QUICK_TRAIN, run_table
from form_lab.relativity import PhysicsConfig
from form_lab.sampling import SamplerConfig, sample_form
from form_lab.training import METHODS, TrainConfig, train


def test_each_cell_is_sampled_once(tmp_path, monkeypatch):
    sampled = []
    sample_model = evaluate.sample_model

    def spy(model, *args, **kwargs):
        sampled.append(model.method)
        return sample_model(model, *args, **kwargs)

    monkeypatch.setattr(evaluate, "sample_model", spy)
    run = run_table(tmp_path, quick=True, train_steps=5, sampler_steps=3)
    assert sorted(sampled) == sorted(METHODS * len(KINDS))
    assert list(run["models"]) == [(kind, method) for kind in KINDS for method in METHODS]
    assert [cell.to_dict() for cell in run["cells"]] == run["report"]["cells"]
    assert run["report"]["metadata"]["train_steps"] == 5
    svgs = {p.name for p in (tmp_path / "figures").iterdir()}
    assert svgs == {f"{kind}-{name}.svg" for kind in KINDS for name in ("data", *METHODS)}


def test_cli_and_run_table_are_one_pipeline(tmp_path):
    """gen-data, train and eval at run_table(quick=True) sizes write run_table's files and score its cells."""
    table, cli = tmp_path / "table", tmp_path / "cli"
    run = run_table(table, quick=True)
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
    assert read_report(report)["cells"] == want


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
