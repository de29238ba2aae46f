"""``form_lab.pipeline.run_table``: the 3 x 3 table in one call."""

from form_lab import evaluate
from form_lab.datasets import KINDS
from form_lab.pipeline import run_table
from form_lab.training import METHODS


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
