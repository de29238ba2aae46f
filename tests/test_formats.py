"""File formats: bit-exact round trips and schema validation."""

import base64
import json
import math
import re
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
    read_samples,
    write_checkpoint,
    write_dataset,
    write_report,
    write_samples,
)
from form_lab.relativity import DEFAULT_PHYSICS, PhysicsConfig
from form_lab.training import TrainConfig, train


def _refused_at(made: str, made_handedness: int, asked: str, asked_handedness: int) -> str:
    """The writer's refusal of a batch made at one physics and handedness, asked to be written at another."""
    return re.escape(
        f"records simulated at PhysicsConfig({made}), handedness {made_handedness} cannot be written at "
        f"PhysicsConfig({asked}), handedness {asked_handedness}; write them with the physics they were generated at"
    )


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
        assert dumps(np.array([1.5, 2.0])) == '"AAAAAAAA+D8AAAAAAAAAQA=="'  # base64 of the <f8 bytes
        assert dumps(np.array(1.5)) == "1.5"  # a 0-d array is a scalar

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


def _decode(text: str, shape) -> np.ndarray:
    """The README's recipe: a JSON string holding the base64 of ``<f8`` bytes in C order."""
    return np.frombuffer(base64.b64decode(json.loads(text)), "<f8").reshape(shape)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, 0.1]


class TestFloatArrays:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_decodes_to_the_same_bits(self, values):
        arr = np.array(values + EDGE_FLOATS, dtype=np.float64)
        assert _decode(dumps(arr), arr.shape).tobytes() == arr.tobytes()

    def test_golden_bytes(self):
        """Pins the byte order: little-endian doubles, first element first."""
        arr = np.array([-0.0, 5e-324, 1.7976931348623157e308])
        assert dumps(arr) == '"AAAAAAAAAIABAAAAAAAAAP///////+9/"'

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2), (7,), (7, 2), (2, 3, 4)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        text = dumps(arr)
        assert len(text) == 2 + 4 * math.ceil(8 * arr.size / 3)
        assert _decode(text, shape).tobytes() == arr.tobytes()

    def test_non_contiguous_views(self):
        arr = np.random.default_rng(2).normal(size=(5, 3))
        for view in (arr.T, arr[::2], arr[:, 1], arr.T[::-1]):
            assert not view.flags.c_contiguous
            assert dumps(view) == dumps(view.copy())
            assert np.array_equal(_decode(dumps(view), view.shape), view)

    def test_negative_zero_keeps_its_sign_bit(self):
        """An array's -0.0 keeps its sign bit; a scalar -0.0 is still written 0."""
        back = _decode(dumps(np.array([[-0.0, 1.0], [0.0, -0.0]])), (2, 2))
        assert np.array_equal(np.signbit(back), [[True, False], [False, True]])
        assert dumps({"t": -0.0, "u": np.float64(-0.0)}) == '{"t":0,"u":0}'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_the_scalar_message(self, bad):
        with pytest.raises(NonFiniteError) as scalar:
            format_float(bad)
        for where in (0, 5, 11):
            arr = np.arange(12, dtype=np.float64).reshape(6, 2)
            arr.flat[where] = bad
            with pytest.raises(NonFiniteError) as array:
                dumps({"x": arr})
            assert str(array.value) == str(scalar.value)

    def test_first_non_finite_in_c_order_is_named(self):
        arr = np.zeros((2, 2))
        arr[0, 1], arr[1, 0] = -math.inf, math.nan
        with pytest.raises(NonFiniteError, match="float nan"):
            dumps(arr.T)  # the view's C order is 0, nan, -inf, 0; its memory order puts -inf first


def _recode(text: str, edit) -> str:
    """A base64 array string with its decoded bytes passed through ``edit``."""
    return base64.b64encode(edit(base64.b64decode(text))).decode("ascii")


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
        """A batch is written in index order only, and read back in it."""
        path = tmp_path / "d.ndjson"
        with pytest.raises(ValueError, match="in order"):
            write_dataset(path, records[::-1], spec, DEFAULT_PHYSICS)
        assert not path.exists()
        write_dataset(path, records, spec, DEFAULT_PHYSICS)
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
            lines[1] = re.sub(r'"x":"[^"]*"', '"x":NaN', lines[1])
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError):
            read_dataset(path)

    @pytest.mark.parametrize("faults, named", [
        ([(3, "v", math.nan), (5, "x", math.inf)], ":4: field 'v'"),
        ([(2, "v", -math.inf), (2, "x", math.nan)], ":3: field 'x'"),
    ], ids=["first-line", "x-before-v"])
    def test_first_non_finite_line_is_named(self, tmp_path, spec, records, faults, named):
        """NaN bytes in line 4's v and an Inf in line 6's x name line 4 and its field; on one line, x comes first."""
        def mutate(lines):
            for at, name, value in faults:
                obj = json.loads(lines[at])
                obj[name] = _recode(obj[name], lambda b: b[:40] + np.float64(value).tobytes() + b[48:])
                lines[at] = json.dumps(obj)
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError, match=f"{named} contains non-finite values"):
            read_dataset(path)

    def test_a_v_that_cannot_give_f_and_a_is_named_by_line(self, tmp_path, spec, records):
        """Records 1 and 3 at 100 times their speed, beyond c: line 3 is named, with the derivation's reason."""
        def mutate(lines):
            for at in (2, 4):
                obj = json.loads(lines[at])
                obj["v"] = _recode(obj["v"], lambda b: (100.0 * np.frombuffer(b, "<f8")).tobytes())
                lines[at] = json.dumps(obj)
            return lines

        path = self._write_then_mutate(tmp_path, spec, records, mutate)
        with pytest.raises(SchemaError, match=r":3: cannot rebuild the trajectories \(speed .* >= c = 10.0\)"):
            read_dataset(path)

    def test_overflowing_force_scale_rejected(self, tmp_path, spec, records):
        """A spec field that parses as inf is a malformed header, not a dataset."""
        path = self._write_then_mutate(
            tmp_path, spec, records, lambda ls: [ls[0].replace('"force_scale":1,', '"force_scale":1e400,')] + ls[1:]
        )
        with pytest.raises(SchemaError, match="force_scale must be positive and finite"):
            read_dataset(path)

    def test_speed_of_light_with_overflowing_square_rejected(self, tmp_path, spec, records):
        """c = 1e200 is finite, but every formula divides by c**2, which overflows: a malformed header."""
        path = self._write_then_mutate(
            tmp_path, spec, records, lambda ls: [ls[0].replace('"c":10,', '"c":1e200,')] + ls[1:]
        )
        with pytest.raises(SchemaError, match=r":1: malformed header .*speed of light c must be positive"):
            read_dataset(path)

    def test_header_sized_beyond_memory_is_a_schema_error(self, tmp_path, spec, records):
        """The reader sizes its blocks from the header before it checks a line: 1000 lines of a 10**6-step grid
        (16 GB) are refused by the allocation or by the first short line, a SchemaError either way."""
        n, k = 1000, 10**6

        def mutate(lines):
            header = json.loads(lines[0])
            header["spec"]["n_steps"], header["n_trajectories"] = k, n
            header["f_par"] = header["f_perp"] = base64.b64encode(np.zeros(k + 1).tobytes()).decode("ascii")
            return [json.dumps(header)] + lines[1:2] * n

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
            obj["x"] = _recode(obj["x"], lambda b: b[:-16])  # one 2-vector short
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

    @pytest.mark.parametrize(
        "physics, handedness",
        [(DEFAULT_PHYSICS, 1), (PhysicsConfig(m=3.0), 1), (DEFAULT_PHYSICS, -1), (PhysicsConfig(m=3.0), -1)],
        ids=["m1", "m3", "m1-cw", "m3-cw"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_read_back_is_bit_identical(self, tmp_path, kind, physics, handedness):
        """times, f and a are not stored; the ones rebuilt on reading are generate()'s, bit for bit."""
        spec = DatasetSpec(kind=kind, n_points=6, n_steps=15, seed=7, handedness=handedness)
        records = generate(spec, physics=physics)
        write_dataset(tmp_path / "d.ndjson", records, spec, physics)
        _, back = read_dataset(tmp_path / "d.ndjson")
        assert [r.index for r in back] == [r.index for r in records]
        for a, b in zip(records, back):
            for field in ("times", "x", "v", "a", "f", "f_par", "f_perp"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_negative_zero_keeps_its_sign_bit(self, tmp_path, spec, records):
        batch = replace(records, x=records.x.copy())
        batch.x[0, 3, 1] = -0.0
        path = tmp_path / "d.ndjson"
        write_dataset(path, batch, spec, DEFAULT_PHYSICS)
        _, back = read_dataset(path)
        assert back[0].x.tobytes() == batch[0].x.tobytes() and np.signbit(back[0].x[3, 1])

    def test_stores_only_the_integrated_state(self, tmp_path, spec, records):
        path = tmp_path / "d.ndjson"
        write_dataset(path, records, spec, DEFAULT_PHYSICS)
        header, first = map(json.loads, path.read_text().splitlines()[:2])
        assert list(header) == [
            "schema_version", "kind", "n_trajectories", "physics", "units", "spec", "f_par", "f_perp"
        ]
        assert list(first) == ["index", "x", "v"]

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
        with pytest.raises(ValueError, match=_refused_at("c=10.0, m=3.0", 1, "c=10.0, m=1.0", 1)):
            write_dataset(path, records, spec, DEFAULT_PHYSICS)
        assert not path.exists()
        write_dataset(path, records, spec, PhysicsConfig(m=3.0))

    def test_write_rejects_records_made_at_other_handedness(self, tmp_path):
        """Spiral records written at the other handedness would read back with another f: refused, no file."""
        spec = DatasetSpec(kind="spiral", n_points=3, n_steps=15, seed=7)
        records = generate(spec)
        path = tmp_path / "d.ndjson"
        with pytest.raises(ValueError, match=_refused_at("c=10.0, m=1.0", 1, "c=10.0, m=1.0", -1)):
            write_dataset(path, records, replace(spec, handedness=-1), DEFAULT_PHYSICS)
        assert not path.exists()
        write_dataset(path, records, spec, DEFAULT_PHYSICS)

    def test_v2_dataset_names_schema_version(self, tmp_path, spec, records):
        """A v2 file, with the schedule in every record, is refused; there is no second reader."""
        def to_v2(lines):
            header, *rows = map(json.loads, lines)
            schedule = {k: header.pop(k) for k in ("f_par", "f_perp")}
            return [json.dumps(header | {"schema_version": 2}), *(json.dumps(r | schedule) for r in rows)]

        path = self._write_then_mutate(tmp_path, spec, records, to_v2)
        with pytest.raises(SchemaError, match="schema_version 2"):
            read_dataset(path)

    def test_write_rejects_records_made_at_other_physics_beyond_c(self, tmp_path):
        spec = DatasetSpec(kind="onedot", n_points=3, n_steps=15, seed=7)
        records = generate(spec)
        with pytest.raises(ValueError, match=_refused_at("c=10.0, m=1.0", 1, "c=1.0, m=1.0", 1)):
            write_dataset(tmp_path / "d.ndjson", records, spec, PhysicsConfig(c=1.0))

    def test_failed_write_leaves_no_trace(self, tmp_path, spec, records):
        """The last record is non-finite: the lines before it went to a temp file, which goes with the error."""
        bad = replace(records, x=records.x.copy())
        bad.x[-1, 3, 0] = np.nan
        good, fresh = tmp_path / "d.ndjson", tmp_path / "new" / "deeper" / "d.ndjson"
        write_dataset(good, records, spec, DEFAULT_PHYSICS)
        before = good.read_bytes()
        for path in (good, fresh):
            with pytest.raises(NonFiniteError):
                write_dataset(path, bad, spec, DEFAULT_PHYSICS)
        assert good.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.ndjson"]  # no temp file, no new directory

    def test_rewrite_keeps_the_file_mode(self, tmp_path, spec, records):
        """What ``open(path, "w")`` gives: a new file's mode comes from the umask, an old file keeps its own."""
        fresh, kept = tmp_path / "fresh.ndjson", tmp_path / "kept.ndjson"
        fresh.touch()
        write_dataset(kept, records, spec, DEFAULT_PHYSICS)
        assert kept.stat().st_mode == fresh.stat().st_mode
        kept.chmod(0o640)
        write_dataset(kept, records, spec, DEFAULT_PHYSICS)
        assert kept.stat().st_mode & 0o777 == 0o640

    def test_write_rejects_records_off_the_spec_grid(self, tmp_path, spec, records):
        for other in (replace(spec, n_steps=spec.n_steps + 1), replace(spec, duration=2.0)):
            with pytest.raises(ValueError, match="grid"):
                write_dataset(tmp_path / "d.ndjson", records, other, DEFAULT_PHYSICS)


@pytest.mark.parametrize("field, value", [
    ("n_steps", 12.0), ("n_points", 5.0), ("seed", True), ("seed", 4.0), ("handedness", 1.0), ("n_steps", "12"),
])
@pytest.mark.parametrize("where", ["dataset header", "checkpoint dataset"])
def test_non_integer_spec_field_is_a_schema_error(tmp_path, spec, records, model, where, field, value):
    """An integral float such as n_steps 12.0 is not an integer: the spec refuses it, the reader says so."""
    path = tmp_path / "f.json"
    if where == "dataset header":
        write_dataset(path, records, spec, DEFAULT_PHYSICS)
        header, *rows = path.read_text().splitlines()
        header = json.loads(header)
        header["spec"][field] = value
        path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
    else:
        write_checkpoint(path, model)
        payload = json.loads(path.read_text())
        payload["dataset"][field] = value
        path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=f"{field} must be an integer, got {value!r}"):
        (read_dataset if where == "dataset header" else read_checkpoint)(path)


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

    def test_dataset_given_as_checkpoint_names_its_kind(self, tmp_path, spec, records):
        """A dataset's second line made this an invalid-JSON error ("Extra data")."""
        path = tmp_path / "d.ndjson"
        write_dataset(path, records, spec, DEFAULT_PHYSICS)
        with pytest.raises(SchemaError, match="expected kind 'form-lab-checkpoint', got 'form-lab-dataset'"):
            read_checkpoint(path)

    def test_trailing_junk_is_still_invalid_json(self, tmp_path, model):
        path = tmp_path / "m.json"
        write_checkpoint(path, model)
        path.write_text(path.read_text() + "junk\n")
        with pytest.raises(SchemaError, match=r":1: invalid JSON \(Extra data\)"):
            read_checkpoint(path)


class TestSamplesFiles:
    HEADER = {"method": "form", "sampler_steps": 2}

    def entries(self):
        path = np.array([[0.1, 0.2], [0.6, 1.1], [1.0, 2.0]])
        return [
            {"index": 0, "x0": path[0], "v0": np.array([3.0, -0.5]), "endpoint": path[-1], "path": path},
            {"index": 1, "x0": [0.3, -0.4], "endpoint": (0.5, 0.25)},  # any float sequence is written as an array
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.ndjson"
        write_samples(path, self.HEADER, self.entries())
        header, back = read_samples(path)
        assert header["n_samples"] == 2
        assert header["method"] == "form"
        for got, want in zip(back, self.entries(), strict=True):
            assert list(got) == list(want)
            assert got["index"] == want["index"]
            for key in list(want)[1:]:
                assert got[key].dtype == np.float64 and np.array_equal(got[key], want[key]), key

    def test_failed_write_leaves_the_file_as_it_was(self, tmp_path):
        """A refused value raises before the file is opened: a good file keeps its bytes, a fresh path gets none."""
        good, fresh = tmp_path / "s.ndjson", tmp_path / "new" / "s.ndjson"
        write_samples(good, self.HEADER, self.entries())
        before = good.read_bytes()
        bad = self.entries()
        bad[1]["endpoint"] = (np.nan, 0.0)
        for path in (good, fresh):
            with pytest.raises(NonFiniteError):
                write_samples(path, self.HEADER, bad)
        assert good.read_bytes() == before
        assert not fresh.parent.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("path", [0, 1, 2]), ("path", [[0, 1, 2], [3, 4, 5]]), ("path", 5), ("v0", "fast"), ("v0", [1.0, 2.0]),
         ("path", np.zeros((4, 2))), ("path", np.zeros((2, 2))), ("v0", np.zeros(3)), ("v0", np.array([np.inf, 0.0]))],
        ids=["list", "nested-list", "number", "word", "v0-list", "one-step-too-many", "one-step-short", "three-vector",
             "inf"],
    )
    def test_malformed_v0_or_path_rejected(self, tmp_path, key, value):
        """Written into a valid file's first line as JSON, arrays as base64 of their bytes."""
        path = tmp_path / "s.ndjson"
        write_samples(path, self.HEADER, self.entries())
        header, first, *rest = path.read_text().splitlines()
        if isinstance(value, np.ndarray):
            value = base64.b64encode(value.tobytes()).decode("ascii")
        path.write_text("\n".join([header, json.dumps(json.loads(first) | {key: value}), *rest]) + "\n")
        with pytest.raises(SchemaError, match=f"'{key}'"):
            read_samples(path)

    def test_path_needs_sampler_steps(self, tmp_path):
        path = tmp_path / "s.ndjson"
        write_samples(path, {"method": "form"}, self.entries())
        with pytest.raises(SchemaError, match="sampler_steps"):
            read_samples(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "s.ndjson"
        write_samples(path, self.HEADER, self.entries())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SchemaError, match="promises"):
            read_samples(path)

    def test_missing_endpoint(self, tmp_path):
        path = tmp_path / "s.ndjson"
        entries = self.entries()
        del entries[1]["endpoint"]
        write_samples(path, self.HEADER, entries)
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
        assert json.loads(path.read_text()) == report

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
# needs, the integers it checks, the lists whose length it checks, and the
# base64 arrays whose bytes it checks (a loss curve may have any length).
REQUIRED = {
    "dataset": (
        [("schema_version",), ("kind",), ("n_trajectories",), ("physics",), ("physics", "c"), ("physics", "m"),
         ("spec",), ("spec", "kind"), ("f_par",), ("f_perp",)],
        [("index",), ("x",), ("v",)],
    ),
    "samples": (
        [("schema_version",), ("kind",), ("n_samples",), ("sampler_steps",)],
        [("index",), ("x0",), ("endpoint",)],
    ),
    "checkpoint": (
        [("schema_version",), ("kind",), ("method",), ("duration",), ("physics",), ("train_config",),
         ("heads",), ("heads", "u1", "layer_dims"), ("heads", "u1", "weights"), ("heads", "u1", "biases")],
        [],
    ),
}
INTEGERS = {
    "dataset": ([("n_trajectories",), ("spec", "n_steps")], [("index",)]),
    "samples": ([("n_samples",), ("sampler_steps",)], [("index",)]),
    "checkpoint": ([("heads", "u1", "layer_dims", 1)], []),
}
LISTS = {
    "dataset": ([], []),
    "samples": ([], []),
    "checkpoint": ([("heads", "u1", "weights"), ("heads", "u1", "biases")], []),
}
ARRAYS = {
    "dataset": ([("f_par",), ("f_perp",)], [("x",), ("v",)]),
    "samples": ([], [("x0",), ("v0",), ("endpoint",), ("path",)]),
    "checkpoint": ([("heads", "u1", "weights", 0), ("heads", "u1", "biases", 1), ("loss_curve",)], []),
}
FREE_LENGTH = {("loss_curve",)}
WILD_VALUES = [True, None, "x", "", [], {}, -1, 0, 2.5, 3.0, [[1.0]], [1.0, 2.0], 10**400]
ALIEN_CHARS = ["!", " ", "-", "_", "\n", "é", "\x00"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Lines of one small valid file per kind, and a scratch directory to mutate them in."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = DatasetSpec(kind="onedot", n_points=2, n_steps=3, seed=1)
    records = generate(spec)
    write_dataset(root / "dataset", records, spec, DEFAULT_PHYSICS)
    path = np.array([[0.5, 1.0], [0.75, 1.5], [1.0, 1.75], [1.5, 2.0]])
    write_samples(root / "samples", {"method": "form", "sampler_steps": 3},
                  [{"index": 0, "x0": path[0], "v0": np.array([2.0, 3.0]), "endpoint": path[-1], "path": path}])
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


def _edit_bytes(draw, text: str) -> tuple[str, bool]:
    """A base64 array string with one fault, and whether it changes only the length by whole doubles."""
    op = draw(st.sampled_from(["drop-8", "add-8", "cut-char", "alien-char", "non-finite"]))
    if op == "cut-char":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1:], False
    if op == "alien-char":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(ALIEN_CHARS)) + text[at:], False
    if op == "non-finite":
        arr = np.frombuffer(base64.b64decode(text), "<f8").copy()
        arr[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return base64.b64encode(arr.tobytes()).decode("ascii"), False
    return _recode(text, (lambda b: b[:-8]) if op == "drop-8" else (lambda b: b + b[:8])), True


def _mutate(draw, kind, lines):
    """One mutated copy of ``lines`` and whether the reader must reject it."""
    row = draw(st.integers(0, len(lines) - 1))
    line, slot = lines[row], min(row, 1)
    op = draw(st.sampled_from(
        ["truncate", "drop-lines", "non-object", "nan", "drop-key", "bool", "length", "bytes", "wild"]
    ))
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
        targets = {"drop-key": REQUIRED, "bool": INTEGERS, "length": LISTS, "bytes": ARRAYS}[op][kind][slot]
        if not targets:
            return lines, False
        path = draw(st.sampled_from(targets))
        old = _get(obj, path)
        if op == "length":
            value = draw(st.sampled_from([old[:-1], [old], old + old[:1]]))
        elif op == "bytes":
            value, whole_doubles = _edit_bytes(draw, old)
            must_fail = not (whole_doubles and path in FREE_LENGTH)
        else:
            value = True
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
    @settings(max_examples=400, deadline=None)
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
