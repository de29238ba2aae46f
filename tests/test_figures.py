"""SVG figures: element counts, determinism, escaping."""

import numpy as np
import pytest

from form_lab.figures import SOURCE_COLOR, TARGET_COLOR, scatter_svg, write_svg


def clouds(n_source=7, n_target=9, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_source, 2)), rng.normal(size=(n_target, 2)) + 3.0


class TestScatterSvg:
    def test_circle_count_equals_point_count(self):
        source, target = clouds()
        svg = scatter_svg(source, target)
        assert svg.count("<circle") == len(source) + len(target)
        assert svg.count(SOURCE_COLOR) >= len(source)
        assert svg.count(TARGET_COLOR) >= len(target)

    def test_polyline_count_equals_trajectory_count(self):
        source, target = clouds()
        trajs = [np.linspace(source[i], target[i], 11) for i in range(4)]
        svg = scatter_svg(source, target, trajectories=trajs)
        assert svg.count("<polyline") == 4

    def test_no_polylines_by_default(self):
        svg = scatter_svg(*clouds())
        assert "<polyline" not in svg

    def test_deterministic(self):
        source, target = clouds()
        assert scatter_svg(source, target, title="t") == scatter_svg(source, target, title="t")

    def test_well_formed_xml(self):
        import xml.etree.ElementTree as ET

        svg = scatter_svg(*clouds(), title="a < b & c > d")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_title_escaped(self):
        svg = scatter_svg(*clouds(), title="a < b & c")
        assert "a &lt; b &amp; c" in svg

    def test_axis_labels_present(self):
        svg = scatter_svg(*clouds())
        assert "x (du)" in svg and "y (du)" in svg

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scatter_svg(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            scatter_svg(np.array([[np.nan, 0.0]]), np.zeros((1, 2)))

    def test_single_point_each(self):
        svg = scatter_svg(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
        assert svg.count("<circle") == 2


class TestWriteSvg:
    def test_writes_exact_text(self, tmp_path):
        svg = scatter_svg(*clouds())
        path = tmp_path / "fig.svg"
        write_svg(path, svg)
        assert path.read_text(encoding="utf-8") == svg

    def test_failed_write_keeps_the_old_bytes(self, tmp_path):
        """The file was opened with "w" first, so a write of None left it empty."""
        path = tmp_path / "fig.svg"
        write_svg(path, scatter_svg(*clouds()))
        old = path.read_bytes()
        with pytest.raises(TypeError):
            write_svg(path, None)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["fig.svg"]
