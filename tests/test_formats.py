"""File formats: bit-exact round trips and schema validation."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from form_lab.datasets import KINDS, DatasetSpec, generate, holdout_split
from form_lab.errors import NonFiniteError, SchemaError
from form_lab.evaluate import EvalCell, make_report
from form_lab.formats import (
    SCHEMA_VERSION,
    dumps,
    format_float,
    physics_from_header,
    read_checkpoint,
    read_dataset,
    read_report,
    read_samples,
    write_checkpoint,
    write_dataset,
    write_report,
    write_samples,
)
from form_lab.relativity import DEFAULT_PHYSICS, PhysicsConfig
from form_lab.training import TrainConfig, train


@pytest.fixture(scope="module")
def spec():
    return DatasetSpec(kind="halfmoons", n_points=5, n_steps=12, seed=4)


@pytest.fixture(scope="module")
def records(spec):
    return generate(spec)


class TestFloatFormatting:
    def test_golden_values(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(-2.5e-8) == "-2.4999999999999999e-08"
        assert format_float(-0.0) == "0"  # canonical zero, sign dropped

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteError):
                format_float(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_bit_exact(self, x):
        assert float(format_float(x)) == x or (x == 0.0 and float(format_float(x)) == 0.0)


class TestDumps:
    def test_insertion_order_and_floats(self):
        assert dumps({"b": 0.5, "a": [1, True, None]}) == '{"b":0.5,"a":[1,true,null]}'

    def test_numpy_arrays(self):
        assert dumps(np.array([1.5, 2.0])) == "[1.5,2]"

    def test_valid_json(self):
        payload = {"x": [0.1, -3.7e-12], "s": 'quote " here', "n": None}
        assert json.loads(dumps(payload)) == {
            "x": [0.1, -3.7e-12],
            "s": 'quote " here',
            "n": None,
        }

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})


class TestDatasetFiles:
    def test_round_trip_values(self, tmp_path, spec, records):
        path = tmp_path / "d.ndjson"
        write_dataset(path, records, spec, DEFAULT_PHYSICS)
        header, back = read_dataset(path)
        assert header["spec"]["kind"] == "halfmoons"
        assert header["n_trajectories"] == len(records)
        assert DatasetSpec.from_dict(header["spec"]).to_dict() == spec.to_dict()
        assert physics_from_header(header) == DEFAULT_PHYSICS
        for a, b in zip(records, back):
            assert a.index == b.index
            for field in ("times", "x", "v", "a", "f", "f_par", "f_perp"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_rewrite_reproduces_bytes(self, tmp_path, spec, records):
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_dataset(p1, records, spec, DEFAULT_PHYSICS)
        header, back = read_dataset(p1)
        write_dataset(p2, back, DatasetSpec.from_dict(header["spec"]), physics_from_header(header))
        assert p1.read_bytes() == p2.read_bytes()

    def test_records_sorted_by_index(self, tmp_path, spec, records):
        path = tmp_path / "d.ndjson"
        write_dataset(path, list(reversed(records)), spec, DEFAULT_PHYSICS)
        _, back = read_dataset(path)
        assert [r.index for r in back] == list(range(len(records)))

    def test_empty_write_rejected(self, tmp_path, spec):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "d.ndjson", [], spec, DEFAULT_PHYSICS)

    def _write_then_mutate(self, tmp_path, spec, records, mutate):
        path = tmp_path / "d.ndjson"
        write_dataset(path, records, spec, DEFAULT_PHYSICS)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n")
        return path

    def test_truncated_file(self, tmp_path, spec, records):
        path = self._write_then_mutate(tmp_path, spec, records, lambda ls: ls[:-1])
        with pytest.raises(SchemaError, match="promises"):
            read_dataset(path)

    def test_missing_key(self, tmp_path, spec, records):
        def mutate(lines):
            obj = json.loads(lines[1])
            del obj["v"]
            lines[1] = json.dumps(obj)
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError, match="missing required key 'v'"):
            read_dataset(path)

    def test_nan_token_rejected(self, tmp_path, spec, records):
        def mutate(lines):
            lines[1] = lines[1].replace(lines[1].split('"x":[[')[1].split(",")[0], "NaN", 1)
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_overflowing_duration_rejected(self, tmp_path, spec, records):
        """1e400 parses as inf, not as a NaN/Infinity token; the grid built from it would not be finite."""
        path = self._write_then_mutate(
            tmp_path, spec, records, lambda ls: [ls[0].replace('"duration":1,', '"duration":1e400,')] + ls[1:]
        )
        with pytest.raises(SchemaError, match="duration"):
            read_dataset(path)

    def test_duplicate_index(self, tmp_path, spec, records):
        def mutate(lines):
            lines[2] = lines[1]
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError, match="duplicate"):
            read_dataset(path)

    def test_bad_shape(self, tmp_path, spec, records):
        def mutate(lines):
            obj = json.loads(lines[1])
            obj["x"] = obj["x"][:-1]
            lines[1] = json.dumps(obj)
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError, match="'x'"):
            read_dataset(path)

    def test_invalid_json_line_number(self, tmp_path, spec, records):
        def mutate(lines):
            lines[3] = lines[3][:-10]
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError, match=":4:"):
            read_dataset(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "d.ndjson"
        path.write_text(f'{{"schema_version":{SCHEMA_VERSION},"kind":"something-else"}}\n')
        with pytest.raises(SchemaError, match="kind"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.ndjson"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_dataset(path)

    @pytest.mark.parametrize("physics", [DEFAULT_PHYSICS, PhysicsConfig(m=3.0)], ids=["m1", "m3"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_read_back_is_bit_identical(self, tmp_path, kind, physics):
        """times, f and a are not stored; the ones rebuilt on reading are generate()'s, bit for bit."""
        spec = DatasetSpec(kind=kind, n_points=6, n_steps=15, seed=7)
        records = generate(spec, physics=physics)
        write_dataset(tmp_path / "d.ndjson", records, spec, physics)
        _, back = read_dataset(tmp_path / "d.ndjson")
        assert [r.index for r in back] == [r.index for r in records]
        for a, b in zip(records, back):
            for field in ("times", "x", "v", "a", "f", "f_par", "f_perp"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_stores_only_the_integrated_state(self, tmp_path, spec, records):
        path = tmp_path / "d.ndjson"
        write_dataset(path, records, spec, DEFAULT_PHYSICS)
        header, first = map(json.loads, path.read_text().splitlines()[:2])
        assert list(header) == ["schema_version", "kind", "n_trajectories", "physics", "units", "spec"]
        assert list(first) == ["index", "x", "v", "f_par", "f_perp"]

    def test_write_rejects_index_gaps(self, tmp_path, spec, records):
        path = tmp_path / "d.ndjson"
        with pytest.raises(ValueError, match="indices"):
            write_dataset(path, holdout_split(records)[1], spec, DEFAULT_PHYSICS)
        assert not path.exists()

    def test_write_rejects_records_made_at_other_physics(self, tmp_path):
        """m = 3 records written as DEFAULT_PHYSICS would read back with another a: refused, no file."""
        spec = DatasetSpec(kind="onedot", n_points=3, n_steps=15, seed=7)
        records = generate(spec, physics=PhysicsConfig(m=3.0))
        path = tmp_path / "d.ndjson"
        with pytest.raises(ValueError, match="carry an a"):
            write_dataset(path, records, spec, DEFAULT_PHYSICS)
        assert not path.exists()
        write_dataset(path, records, spec, PhysicsConfig(m=3.0))

    def test_write_check_reaches_every_record(self, tmp_path):
        """One bit off in the last record's a, past the first vectorised chunk, is caught."""
        spec = DatasetSpec(kind="onedot", n_points=130, n_steps=5, seed=7)
        records = generate(spec)
        records[-1] = replace(records[-1], a=np.nextafter(records[-1].a, np.inf))
        with pytest.raises(ValueError, match=r"records \[129\] carry an a"):
            write_dataset(tmp_path / "d.ndjson", records, spec, DEFAULT_PHYSICS)

    def test_write_rejects_records_made_at_other_handedness(self, tmp_path):
        spec = DatasetSpec(kind="spiral", n_points=3, n_steps=15, seed=7)
        records = generate(spec)
        other = replace(spec, handedness=-spec.handedness)
        with pytest.raises(ValueError, match="carry an f"):
            write_dataset(tmp_path / "d.ndjson", records, other, DEFAULT_PHYSICS)

    def test_write_rejects_records_made_at_other_physics_beyond_c(self, tmp_path):
        spec = DatasetSpec(kind="onedot", n_points=3, n_steps=15, seed=7)
        records = generate(spec)
        with pytest.raises(ValueError, match="cannot be rebuilt"):
            write_dataset(tmp_path / "d.ndjson", records, spec, PhysicsConfig(c=1.0))

    def test_write_rejects_records_off_the_spec_grid(self, tmp_path, spec, records):
        for other in (replace(spec, n_steps=spec.n_steps + 1), replace(spec, duration=2.0)):
            with pytest.raises(ValueError, match="grid"):
                write_dataset(tmp_path / "d.ndjson", records, other, DEFAULT_PHYSICS)


@pytest.fixture(scope="module")
def model(spec, records):
    cfg = TrainConfig(method="o1o2", steps=30, batch_size=4, seed=2, hidden_dims=(6,))
    return train(records, cfg, dataset_info=spec.to_dict())


class TestCheckpointFiles:

    def test_round_trip(self, tmp_path, model):
        path = tmp_path / "m.json"
        write_checkpoint(path, model)
        back = read_checkpoint(path)
        assert back.method == model.method
        assert back.duration == model.duration
        assert back.physics == model.physics
        assert back.train_config == model.train_config
        assert back.dataset_info == model.dataset_info
        assert np.array_equal(back.loss_curve, model.loss_curve)
        for name in model.heads:
            assert back.heads[name].layer_dims == model.heads[name].layer_dims
            for wa, wb in zip(back.heads[name].weights, model.heads[name].weights):
                assert np.array_equal(wa, wb)
            for ba, bb in zip(back.heads[name].biases, model.heads[name].biases):
                assert np.array_equal(ba, bb)

    def test_rewrite_reproduces_bytes(self, tmp_path, model):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_checkpoint(p1, model)
        write_checkpoint(p2, read_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_shape_mismatch_rejected(self, tmp_path, model):
        path = tmp_path / "m.json"
        write_checkpoint(path, model)
        payload = json.loads(path.read_text())
        payload["heads"]["u1"]["layer_dims"][1] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="layer_dims"):
            read_checkpoint(path)

    def test_unknown_method_rejected(self, tmp_path, model):
        path = tmp_path / "m.json"
        write_checkpoint(path, model)
        payload = json.loads(path.read_text())
        payload["method"] = "o7"
        payload["train_config"]["method"] = "o1"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            read_checkpoint(path)


class TestSamplesFiles:
    def entries(self):
        return [
            {"index": 0, "x0": [0.1, 0.2], "endpoint": [1.0, 2.0]},
            {"index": 1, "x0": [0.3, -0.4], "endpoint": [0.5, 0.25]},
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.ndjson"
        write_samples(path, {"method": "form"}, self.entries())
        header, back = read_samples(path)
        assert header["n_samples"] == 2
        assert header["method"] == "form"
        assert back == self.entries()

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "s.ndjson"
        write_samples(path, {}, self.entries())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SchemaError, match="promises"):
            read_samples(path)

    def test_missing_endpoint(self, tmp_path):
        path = tmp_path / "s.ndjson"
        entries = self.entries()
        del entries[1]["endpoint"]
        write_samples(path, {}, entries)
        with pytest.raises(SchemaError, match="endpoint"):
            read_samples(path)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_samples(tmp_path / "s.ndjson", {}, [])


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        report = make_report([EvalCell("onedot", "form", 0.25, 4, 100, "paired")], metadata={"seed": 1})
        path = tmp_path / "r.json"
        write_report(path, report)
        assert read_report(path) == report

    def test_v1_report_rejected(self, tmp_path):
        report = make_report([EvalCell("onedot", "form", 0.25, 4, 100, "paired")]) | {"schema_version": 1}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        with pytest.raises(SchemaError, match="schema_version"):
            read_report(path)

    def test_non_report_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "r.json", {"kind": "nope"})

    def test_physics_header_types(self):
        header = {"physics": {"c": 10, "m": 1}}
        assert physics_from_header(header) == PhysicsConfig(c=10.0, m=1.0)


# --- reader fuzzing ------------------------------------------------------------
#
# Each example mutates one line of a small valid file.  Whatever the mutation,
# a reader may only return or raise SchemaError; the mutations that break the
# structure a reader checks must raise it.

READERS = {"dataset": read_dataset, "samples": read_samples, "checkpoint": read_checkpoint}

# Per file kind and line (0 = header, 1 = any later line): the keys a reader
# needs, the integers it checks, and the arrays whose shape it checks.
REQUIRED = {
    "dataset": (
        [("schema_version",), ("kind",), ("n_trajectories",), ("physics",), ("physics", "c"), ("physics", "m"),
         ("spec",), ("spec", "kind")],
        [("index",), ("x",), ("v",), ("f_par",), ("f_perp",)],
    ),
    "samples": ([("schema_version",), ("kind",), ("n_samples",)], [("index",), ("x0",), ("endpoint",)]),
    "checkpoint": (
        [("schema_version",), ("kind",), ("method",), ("duration",), ("physics",), ("train_config",),
         ("heads",), ("heads", "u1", "layer_dims"), ("heads", "u1", "weights"), ("heads", "u1", "biases")],
        [],
    ),
}
INTEGERS = {
    "dataset": ([("n_trajectories",), ("spec", "n_steps")], [("index",)]),
    "samples": ([("n_samples",)], [("index",)]),
    "checkpoint": ([("heads", "u1", "layer_dims", 1)], []),
}
ARRAYS = {
    "dataset": ([], [("x",), ("v",), ("f_par",), ("f_perp",), ("x", 0)]),
    "samples": ([], [("x0",), ("endpoint",)]),
    "checkpoint": (
        [("heads", "u1", "weights"), ("heads", "u1", "weights", 0), ("heads", "u1", "biases", 1),
         ("heads", "u1", "weights", 1, 0)],
        [],
    ),
}
WILD_VALUES = [True, None, "x", [], {}, -1, 0, 2.5, [[1.0]], 10**400]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Lines of one small valid file per kind, and a scratch directory to mutate them in."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = DatasetSpec(kind="onedot", n_points=2, n_steps=3, seed=1)
    records = generate(spec)
    write_dataset(root / "dataset", records, spec, DEFAULT_PHYSICS)
    write_samples(root / "samples", {"method": "o1"}, [{"index": 0, "x0": [0.5, 1.0], "endpoint": [1.5, 2.0]}])
    cfg = TrainConfig(method="o1", steps=2, batch_size=2, seed=0, hidden_dims=(2,))
    write_checkpoint(root / "checkpoint", train(records, cfg, dataset_info=spec.to_dict()))
    return root, {kind: (root / kind).read_text().splitlines() for kind in READERS}


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _leaves(obj, path=()):
    """Every (path, value) below a parsed JSON value, the value itself included."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _leaves(value, (*path, key))


def _mutate(draw, kind, lines):
    """One mutated copy of ``lines`` and whether the reader must reject it."""
    row = draw(st.integers(0, len(lines) - 1))
    line, slot = lines[row], min(row, 1)
    op = draw(st.sampled_from(["truncate", "drop-lines", "non-object", "nan", "drop-key", "bool", "shape", "wild"]))
    if op == "truncate":
        return lines[:row] + [line[: draw(st.integers(0, len(line) - 1))]] + lines[row + 1:], True
    if op == "drop-lines":
        return lines[: draw(st.integers(0, len(lines) - 1))], True
    if op == "non-object":
        return lines[:row] + [draw(st.sampled_from(["[]", "3", '"x"', "null", "[1,2]"]))] + lines[row + 1:], True
    obj = json.loads(line)
    must_fail = op != "wild"
    if op == "nan":
        path = draw(st.sampled_from([p for p, v in _leaves(obj) if p and type(v) in (int, float)]))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif op == "wild":
        path = draw(st.sampled_from([p for p, _ in _leaves(obj) if p]))
        value = draw(st.sampled_from(WILD_VALUES))
    else:
        targets = {"drop-key": REQUIRED, "bool": INTEGERS, "shape": ARRAYS}[op][kind][slot]
        if not targets:
            return lines, False
        path = draw(st.sampled_from(targets))
        old = _get(obj, path)
        value = draw(st.sampled_from([old[:-1], [old], old + old[:1]])) if op == "shape" else True
    parent = _get(obj, path[:-1])
    if op == "drop-key":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return lines[:row] + [json.dumps(obj)] + lines[row + 1:], must_fail


class TestReaderFuzz:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_valid_files_read(self, valid_files, kind):
        root, _ = valid_files
        READERS[kind](root / kind)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutations_raise_only_schema_errors(self, valid_files, kind, data):
        root, files = valid_files
        lines, must_fail = _mutate(data.draw, kind, files[kind])
        path = root / f"mutated-{kind}"
        path.write_text("\n".join(lines) + "\n")
        try:
            READERS[kind](path)
        except SchemaError:
            return
        assert not must_fail, "reader accepted a file it must reject"
