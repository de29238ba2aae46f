r"""Deterministic on-disk formats: NDJSON datasets/samples, JSON checkpoints/reports.

Every float64 array with at least one axis (dataset positions, velocities
and force schedules, checkpoint weights, biases and loss curves, sample
points and paths) is written as one JSON string: the base64 of its
little-endian ``<f8`` bytes in C order.  The bytes are the array's own, so
reading back is bit-exact, the sign of zero included, and re-writing what
was read reproduces the file.  The shape is not stored: the reader takes it
from what the file already says (``spec.n_steps``, ``layer_dims``,
``sampler_steps``; a loss curve is 1-D of whatever length its bytes give).

Scalars are written with 17 significant digits (``%.17g``), which is enough
for IEEE-754 doubles to round-trip bit-exactly through text; zero is
written as ``0`` whatever its sign bit.  Nothing time- or host-dependent
(timestamps, paths, hostnames) is ever written, so identical inputs give
identical files.

A dataset stores only what the simulator integrates: one force schedule
(``f_par``, ``f_perp``) in the header, and ``index``, ``x``, ``v`` per record.
The writer takes a :class:`~form_lab.dynamics.TrajectoryBatch` simulated
at the physics and handedness it writes, and the reader returns one, which
holds the same and derives ``f`` and ``a`` when they are read.  The reader
decodes each record's ``x`` and ``v`` bytes straight into the rows of its
``(N, K+1, 2)`` blocks, and refuses trajectories that cannot give ``f`` and
``a`` with :func:`~form_lab.dynamics.first_underivable`, which derives them
32 at a time, keeping nothing, and names the first one's line.

Every writer streams: each line is written as soon as it is serialized,
into a temp file beside the target that ``os.replace`` moves onto it after
the last line.  A write that fails at any line (a non-finite value, a full
disk, an interrupt) removes the temp file and the directories it created,
and leaves the file at the target as it was.

The NDJSON readers (datasets, samples) stream the open file in two passes.
The first counts the lines and checks that the file is UTF-8, not empty,
and holds as many lines as its header promises, all before anything is
sized from the header; the second decodes each line as it is reached, so
a read never holds the whole text (except of a pipe, which can be read
only once).  A line ends only at ``\n``, ``\r\n`` or ``\r``: the other
breaks of ``str.splitlines`` (``\x0b``, ``\x0c``, ``\x1c``-``\x1e``,
``\x85``, U+2028, U+2029) stay inside their line.  The writers never emit
them raw, since what they write is ASCII.

Readers validate structure eagerly and raise :class:`SchemaError` with the
offending line number: an array must be valid base64 of exactly the bytes
its shape needs, and every value must be finite (``NaN``/``Infinity``
tokens are rejected too).  A dataset's records are checked for finite
values once per block, after the last line, and the error names the first
line with a non-finite ``x`` or ``v``.  Files of another ``schema_version``
are rejected.
"""

from __future__ import annotations

import base64
import io
import itertools
import json
import math
import os
import secrets
import shutil
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec, require_positive
from .dynamics import BLOCKS, DEFAULT_UNITS, TrajectoryBatch, UnitSystem, first_underivable
from .errors import NonFiniteError, SchemaError
from .neural import MlpParams
from .ode import uniform_grid
from .relativity import PhysicsConfig
from .training import METHODS, TrainConfig, TrainedModel

SCHEMA_VERSION = 4

DATASET_KIND = "form-lab-dataset"
SAMPLES_KIND = "form-lab-samples"
CHECKPOINT_KIND = "form-lab-checkpoint"
REPORT_KIND = "form-lab-report"


def format_float(x) -> str:
    """Render one double with 17 significant digits (exact round-trip).

    Zero is canonicalized to ``"0"`` regardless of its sign bit: ``"-0"``
    would otherwise parse back as the integer 0 and break byte-identical
    rewrites.
    """
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteError(f"refusing to serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, ``%.17g`` scalars, base64 float64 arrays."""
    pieces: list[str] = []
    _write_json(obj, pieces)
    return "".join(pieces)


def _write_json(obj, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim:
        out.append(_float_array(obj))
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_array(arr: np.ndarray) -> str:
    """A float64 array (the bulk of every file) as a JSON string: base64 of its ``<f8`` bytes in C order."""
    finite = np.isfinite(arr)
    if not finite.all():
        format_float(arr[~finite][0])  # raises the scalar path's NonFiniteError for the first one
    return '"' + base64.b64encode(arr.astype("<f8", copy=False).tobytes()).decode("ascii") + '"'


def _reject_constant(token: str):
    raise SchemaError(f"non-finite JSON token {token!r} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)  # json.loads would build one per line


def _loads_line(line: str, line_no: int, path) -> dict:
    try:
        if line.startswith("\ufeff"):  # json.loads' own refusal, which the decoder leaves to its caller
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        obj = _DECODER.decode(line)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}:{line_no}: invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}:{line_no}: expected a JSON object")
    return obj


def _need(obj: dict, key: str, line_no: int, path):
    if key not in obj:
        raise SchemaError(f"{path}:{line_no}: missing required key {key!r}")
    return obj[key]


def _need_int(obj: dict, key: str, line_no: int, path) -> int:
    value = _need(obj, key, line_no, path)
    if type(value) is not int:
        raise SchemaError(f"{path}:{line_no}: {key} must be an integer, got {value!r}")
    return value


def _check_kind(header: dict, expected: str, path) -> None:
    version = _need(header, "schema_version", 1, path)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}:1: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    kind = _need(header, "kind", 1, path)
    if kind != expected:
        raise SchemaError(f"{path}:1: expected kind {expected!r}, got {kind!r}")


def _parse_array(raw, shape: tuple | None, line_no: int, path, name: str) -> np.ndarray:
    """A finite float64 array from the base64 of its ``<f8`` bytes: exactly ``shape``, or 1-D if ``shape`` is None."""
    data, shape = _array_bytes(raw, shape, line_no, path, name)
    arr = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise SchemaError(f"{path}:{line_no}: field {name!r} contains non-finite values")
    return arr


def _array_bytes(raw, shape: tuple | None, line_no: int, path, name: str) -> tuple[bytes, tuple]:
    """The ``<f8`` bytes and shape of an array field: valid base64 of exactly ``shape``'s doubles, or 1-D if None."""
    if not isinstance(raw, str):
        raise SchemaError(f"{path}:{line_no}: field {name!r} must be a base64 string of float64 bytes, "
                          f"got {type(raw).__name__}")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as e:  # binascii.Error for bad base64, ValueError for non-ASCII text
        raise SchemaError(f"{path}:{line_no}: field {name!r} is not valid base64 ({e})") from e
    if shape is None:
        shape = (len(data) // 8,)
    if len(data) != 8 * math.prod(shape):
        raise SchemaError(f"{path}:{line_no}: field {name!r} must hold {math.prod(shape)} doubles of shape {shape}, "
                          f"got {len(data)} bytes")
    return data, shape


def _not_utf8(path, e: UnicodeDecodeError) -> SchemaError:
    return SchemaError(f"{path}: not UTF-8 text ({e.reason})")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from e


def _json_lines(first: dict, rest=()):
    """``first``, then each object of ``rest``, as one line of deterministic JSON each, made as they are read."""
    return (dumps(obj) + "\n" for obj in itertools.chain([first], rest))


def write_text(path, parts) -> None:
    """Write each string of ``parts`` to ``path`` as soon as it is made, the one way every file here is written.

    The strings go into a temp file beside ``path`` that replaces ``path``
    only after the last one.  On any failure (a value that is not a string,
    say) the temp file and every directory this call created are removed,
    so a write that fails leaves whatever was at ``path`` untouched.  The
    file's mode is the one ``open(path, "w")`` gives.
    """
    path = Path(path)
    created = list(itertools.takewhile(lambda d: not d.exists(), path.parents))  # deepest first
    tmp, opened = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp"), False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:  # "x": a name another file holds is not ours
            opened = True
            if path.exists():
                shutil.copymode(path, tmp)
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if opened:
            tmp.unlink(missing_ok=True)
        for directory in created:
            with suppress(OSError):
                directory.rmdir()
        raise


@contextmanager
def _read_ndjson(path, kind: str, count_key: str):
    """The checked header, and an iterator over the (line number, object) of each line it promises.

    The file stays open for the ``with`` block.  It is read twice, a line at
    a time: the first pass only counts the lines, and the iterator is the
    second.  Only a file that cannot seek, such as a pipe, is held as text.
    """
    with open(path, encoding="utf-8") as file:
        try:
            fh = file if file.seekable() else io.StringIO(file.read())  # a pipe is read once: hold its text
            first = fh.readline()
            n_lines = bool(first) + sum(1 for _ in fh)
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from e
        if not n_lines:
            raise SchemaError(f"{path}:1: empty file")
        header = _loads_line(first.removesuffix("\n"), 1, path)
        _check_kind(header, kind, path)
        n = _need_int(header, count_key, 1, path)
        if n < 1 or n_lines - 1 != n:
            raise SchemaError(f"{path}: header promises {n} {count_key[2:]}, found {n_lines - 1}")
        fh.seek(0)
        fh.readline()
        yield header, ((no, _loads_line(line.removesuffix("\n"), no, path)) for no, line in enumerate(fh, start=2))


def _read_object(path, kind: str) -> dict:
    text = _read_text(path)
    try:
        payload = _loads_line(text, 1, path)
    except SchemaError:  # another kind's NDJSON, e.g. a dataset given as a checkpoint, fails past line 1: name its kind
        _check_kind(_loads_line(text.partition("\n")[0], 1, path), kind, path)
        raise
    _check_kind(payload, kind, path)
    return payload


def _positive(obj: dict, key: str) -> float:
    """``obj[key]`` as a float: a positive finite JSON number, not a string such as ``"10"`` and not ``true``."""
    require_positive(PhysicsConfig, key, obj[key])
    return float(obj[key])


def physics_from_header(header: dict) -> PhysicsConfig:
    """The ``physics`` of a dataset header or checkpoint; both keys are required, and each is a JSON number."""
    return PhysicsConfig(c=_positive(header["physics"], "c"), m=_positive(header["physics"], "m"))


# --- datasets ---------------------------------------------------------------


def write_dataset(
    path, batch: TrajectoryBatch, spec: DatasetSpec, physics: PhysicsConfig, units: UnitSystem = DEFAULT_UNITS
) -> None:
    """NDJSON: a header with the batch's ``f_par``/``f_perp``, then one ``{index, x, v}`` line per trajectory.

    The batch must hold exactly trajectories 0..N-1, in order, on the spec's
    time grid, because that is all the reader accepts.  It must have been
    simulated at ``physics`` and the spec's handedness, because the reader
    derives ``f`` and ``a`` at those.
    """
    if not len(batch):
        raise ValueError("refusing to write an empty dataset")
    if not np.array_equal(batch.index, np.arange(len(batch))):
        raise ValueError(f"record indices must be exactly 0..{len(batch) - 1}, in order")
    if not np.array_equal(batch.times, uniform_grid(spec.duration, spec.n_steps)[0]):
        raise ValueError(f"records are off the spec's grid ({spec.n_steps} steps, {spec.duration} s)")
    if (batch.physics, batch.handedness) != (physics, spec.handedness):
        raise ValueError(f"records simulated at {batch.physics}, handedness {batch.handedness} cannot be written at "
                         f"{physics}, handedness {spec.handedness}; write them with the physics they were generated at")
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": DATASET_KIND,
        "n_trajectories": len(batch),
        "physics": {"c": physics.c, "m": physics.m},
        "units": {"meters_per_du": units.meters_per_du},
        "spec": spec.to_dict(),
        "f_par": batch.f_par, "f_perp": batch.f_perp,
    }
    rows = ({"index": j, "x": x, "v": v} for j, (x, v) in enumerate(zip(batch.x, batch.v)))
    write_text(path, _json_lines(header, rows))


def read_dataset(path) -> tuple[dict, TrajectoryBatch]:
    """Parse and validate a dataset file; the batch is in index order, with ``times`` rebuilt."""
    with _read_ndjson(path, DATASET_KIND, "n_trajectories") as (header, lines):
        try:
            spec = DatasetSpec.from_dict(_need(header, "spec", 1, path))
            physics = physics_from_header(header)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise SchemaError(f"{path}:1: malformed header ({e!r})") from e

        n = header["n_trajectories"]
        scalar, vec = (spec.n_steps + 1,), (spec.n_steps + 1, 2)
        f_par, f_perp = (_parse_array(_need(header, k, 1, path), scalar, 1, path, k) for k in ("f_par", "f_perp"))
        try:  # each line's bytes land in its rows of the blocks as they are decoded
            blocks = {name: np.empty((n, *vec)) for name in BLOCKS}
        except MemoryError as e:  # sized from the header before any line is checked
            raise SchemaError(f"{path}:1: {n} trajectories of {spec.n_steps} steps do not fit in memory") from e
        block_bytes = {name: memoryview(block.view(np.uint8).reshape(-1)) for name, block in blocks.items()}
        row_bytes = 8 * math.prod(vec)
        line_of = [0] * n  # the line each index was read from; 0 until then
        for line_no, obj in lines:
            index = _need_int(obj, "index", line_no, path)
            if not 0 <= index < n:
                raise SchemaError(f"{path}:{line_no}: trajectory index {index} outside 0..{n - 1}")
            if line_of[index]:
                raise SchemaError(f"{path}:{line_no}: duplicate trajectory index {index}")
            line_of[index] = line_no
            for name, into in block_bytes.items():
                data, _ = _array_bytes(_need(obj, name, line_no, path), vec, line_no, path, name)
                into[index * row_bytes : (index + 1) * row_bytes] = data
    if not all(np.isfinite(block).all() for block in blocks.values()):
        line_no, _, name = min(
            (line_of[i], k, name)
            for k, (name, block) in enumerate(blocks.items())
            for i in np.flatnonzero(~np.isfinite(block).all(axis=(1, 2)))
        )
        raise SchemaError(f"{path}:{line_no}: field {name!r} contains non-finite values")

    times, _ = uniform_grid(spec.duration, spec.n_steps)
    batch = TrajectoryBatch(np.arange(n), times, *blocks.values(), f_par, f_perp, physics, spec.handedness)
    bad = first_underivable(batch)  # refuse now the rows whose f and a the batch could not derive
    if bad:
        row, e = bad
        raise SchemaError(f"{path}:{line_of[row]}: cannot rebuild the trajectories ({e})") from e
    return header, batch


# --- checkpoints -------------------------------------------------------------


def write_checkpoint(path, model: TrainedModel) -> None:
    """Single-object JSON checkpoint, including the full loss curve."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": CHECKPOINT_KIND,
        "method": model.method,
        "duration": model.duration,
        "physics": {"c": model.physics.c, "m": model.physics.m},
        "train_config": asdict(model.train_config) | {"hidden_dims": list(model.train_config.hidden_dims)},
        "dataset": model.dataset_info,
        "heads": {
            name: {"layer_dims": list(p.layer_dims), "weights": list(p.weights), "biases": list(p.biases)}
            for name, p in model.heads.items()
        },
        "loss_curve": model.loss_curve,
    }
    write_text(path, _json_lines(payload))


def _parse_head(path, name: str, head: dict) -> MlpParams:
    dims, weights, biases = head["layer_dims"], head["weights"], head["biases"]
    if not (len(dims) >= 2 and all(type(d) is int and d >= 1 for d in dims)):
        raise SchemaError(f"{path}: head {name!r} layer_dims must be two or more positive integers, got {dims!r}")
    if not len(weights) == len(biases) == len(dims) - 1:
        raise SchemaError(f"{path}: head {name!r} needs one weight and one bias array per layer of {dims}")
    at = f"of head {name!r} with layer_dims {dims}"
    return MlpParams(
        layer_dims=tuple(dims),
        weights=tuple(_parse_array(w, (dims[l + 1], dims[l]), 1, path, f"weights[{l}] {at}") for l, w in enumerate(weights)),
        biases=tuple(_parse_array(b, (dims[l + 1],), 1, path, f"biases[{l}] {at}") for l, b in enumerate(biases)),
    )


def read_checkpoint(path) -> TrainedModel:
    payload = _read_object(path, CHECKPOINT_KIND)
    try:
        cfg = payload["train_config"]
        train_config = TrainConfig(**{**cfg, "hidden_dims": tuple(cfg["hidden_dims"])})
        heads = payload["heads"]
        if not isinstance(heads, dict):
            raise SchemaError(f"{path}: heads must be an object, got {heads!r}")
        dataset_info = payload.get("dataset")
        if dataset_info is not None:
            DatasetSpec.from_dict(dataset_info)
        model = TrainedModel(
            method=payload["method"],
            heads={name: _parse_head(path, name, head) for name, head in heads.items()},
            duration=_positive(payload, "duration"),
            physics=physics_from_header(payload),
            train_config=train_config,
            dataset_info=dataset_info,
            loss_curve=_parse_array(payload.get("loss_curve", ""), None, 1, path, "loss_curve"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{path}: malformed checkpoint ({e!r})") from e
    if model.method not in METHODS:
        raise SchemaError(f"{path}: unknown method {model.method!r}")
    return model


# --- samples -----------------------------------------------------------------


def write_samples(path, header_extra: dict, entries: list[dict]) -> None:
    """NDJSON samples: header then {index, x0, v0?, endpoint, path?} lines; the points may be any float sequences."""
    if not entries:
        raise ValueError("refusing to write an empty samples file")
    header = {"schema_version": SCHEMA_VERSION, "kind": SAMPLES_KIND, "n_samples": len(entries), **header_extra}
    rows = ({k: v if k == "index" else np.asarray(v, dtype=np.float64) for k, v in e.items()} for e in entries)
    write_text(path, _json_lines(header, rows))


def read_samples(path) -> tuple[dict, list[dict]]:
    """Parse and validate a samples file; ``x0``, ``endpoint`` and, when present, ``v0`` and ``path`` come back as arrays."""
    entries = []
    with _read_ndjson(path, SAMPLES_KIND, "n_samples") as (header, lines):
        for line_no, obj in lines:
            _need_int(obj, "index", line_no, path)
            shapes = {"x0": (2,), "endpoint": (2,)}
            if "v0" in obj:
                shapes["v0"] = (2,)
            if "path" in obj:
                steps = _need_int(header, "sampler_steps", 1, path)
                if steps < 1:
                    raise SchemaError(f"{path}:1: sampler_steps must be at least 1, got {steps}")
                shapes["path"] = (steps + 1, 2)
            for key, shape in shapes.items():
                obj[key] = _parse_array(_need(obj, key, line_no, path), shape, line_no, path, key)
            entries.append(obj)
    return header, entries


# --- reports -----------------------------------------------------------------


def write_report(path, report: dict) -> None:
    if report.get("kind") != REPORT_KIND:
        raise ValueError(f"not a report dict (kind = {report.get('kind')!r})")
    write_text(path, _json_lines(report))
