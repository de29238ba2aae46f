"""Loss functions, report assembly, and table rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from form_lab.datasets import holdout_split
from form_lab.evaluate import (
    EvalCell,
    config_digest,
    euclidean_distance_loss,
    evaluate_model,
    make_report,
    render_table,
)
from form_lab.sampling import SamplerConfig


class TestEuclideanLoss:
    def test_paired_hand_value(self):
        # [DERIVED] distances |(0,0)| = 0 and |(3,4)| = 5; mean = 2.5
        generated = np.array([[0.0, 0.0], [3.0, 4.0]])
        target = np.zeros((2, 2))
        assert euclidean_distance_loss(generated, target) == 2.5

    def test_paired_zero_on_identical(self):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        assert euclidean_distance_loss(pts, pts) == 0.0

    def test_chamfer_hand_value(self):
        # [DERIVED] each generated point is distance 1 from its nearest
        # target: (0,0)->(0,1) and (5,0)->(4,0); mean = 1.0
        generated = np.array([[0.0, 0.0], [5.0, 0.0]])
        target = np.array([[0.0, 1.0], [4.0, 0.0]])
        assert euclidean_distance_loss(generated, target, mode="chamfer") == 1.0

    def test_chamfer_one_sided(self):
        generated = np.array([[0.0, 0.0]])
        target = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert euclidean_distance_loss(generated, target, mode="chamfer") == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
    def test_chamfer_target_permutation_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        generated = rng.normal(size=(n, 2))
        target = rng.normal(size=(n + 2, 2))
        base = euclidean_distance_loss(generated, target, mode="chamfer")
        shuffled = target[rng.permutation(len(target))]
        assert euclidean_distance_loss(generated, shuffled, mode="chamfer") == base

    def test_paired_shape_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance_loss(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            euclidean_distance_loss(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            euclidean_distance_loss(np.zeros((2, 2)), np.zeros((2, 2)), mode="hausdorff")


class TestEvaluateModel:
    def test_cells_for_all_methods(self, tiny_models, tiny_onedot):
        _, heldout = holdout_split(tiny_onedot[1])
        for method, model in tiny_models.items():
            cell = evaluate_model(model, heldout, SamplerConfig(n_steps=10))
            assert cell.method == method
            assert cell.dataset == "onedot"
            assert cell.n_points == len(heldout)
            assert cell.sampler_steps == 10
            assert np.isfinite(cell.loss) and cell.loss >= 0.0

    def test_deterministic(self, tiny_models, tiny_onedot):
        _, heldout = holdout_split(tiny_onedot[1])
        a = evaluate_model(tiny_models["form"], heldout, SamplerConfig(n_steps=10))
        b = evaluate_model(tiny_models["form"], heldout, SamplerConfig(n_steps=10))
        assert a.loss == b.loss

    def test_cell_keeps_the_path_it_scored(self, tiny_models, tiny_onedot):
        _, heldout = holdout_split(tiny_onedot[1])
        cell = evaluate_model(tiny_models["o1o2"], heldout, SamplerConfig(n_steps=10))
        assert cell.path.n_steps == 10
        assert cell.loss == euclidean_distance_loss(cell.path.endpoint, np.stack([r.endpoint for r in heldout]))
        assert "path" not in cell.to_dict()

    def test_empty_heldout(self, tiny_models):
        with pytest.raises(ValueError):
            evaluate_model(tiny_models["o1"], [])


class TestReport:
    def cells(self):
        return [
            EvalCell("onedot", "o1", 2.0, 4, 100, "paired"),
            EvalCell("onedot", "o1o2", 1.5, 4, 100, "paired"),
            EvalCell("onedot", "form", 0.25, 4, 100, "paired"),
        ]

    def test_ranking(self):
        report = make_report(self.cells())
        assert report["ranking"]["onedot"] == ["form", "o1o2", "o1"]
        assert report["kind"] == "form-lab-report"
        assert len(report["cells"]) == 3

    def test_metadata_passthrough(self):
        report = make_report(self.cells(), metadata={"seed": 7})
        assert report["metadata"] == {"seed": 7}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_report([])

    def test_table_markers(self):
        table = render_table(make_report(self.cells()))
        lines = table.splitlines()
        assert lines[0].split() == ["method", "onedot"]
        body = {ln.split()[0]: ln for ln in lines[2:]}
        assert "0.250 **" in body["ForM"]
        assert "1.500 *" in body["O1+O2"]
        assert "**" not in body["O1"] and "*" not in body["O1"]

    def test_table_reference_rows(self):
        table = render_table(make_report(self.cells()), include_reference=True)
        assert "ref ForM" in table
        assert "0.509" in table  # onedot reference column present

    def test_table_small_loss_scientific(self):
        cells = [EvalCell("onedot", "form", 4e-4, 4, 100, "paired")]
        assert "4.0e-04" in render_table(make_report(cells))

    def test_table_missing_cell_dash(self):
        cells = [
            EvalCell("onedot", "o1", 1.0, 4, 100, "paired"),
            EvalCell("spiral", "form", 0.5, 4, 100, "paired"),
        ]
        table = render_table(make_report(cells))
        rows = {ln.split()[0]: ln for ln in table.splitlines()[2:]}
        assert "-" in rows["O1"] and "-" in rows["ForM"]


class TestConfigDigest:
    def test_key_order_invariant(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})
