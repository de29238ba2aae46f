"""Deterministic on-disk formats: NDJSON datasets/samples, JSON checkpoints/reports.

Floats are always written with 17 significant digits (``%.17g``), which is
enough for IEEE-754 doubles to round-trip bit-exactly through text; reading
a file back and re-writing it reproduces the original bytes.  Nothing
time- or host-dependent (timestamps, paths, hostnames) is ever written, so
identical inputs give identical files.

A dataset stores only what the simulator integrates (index, x, v, f_par,
f_perp); the reader rebuilds ``times`` from the spec, and ``f`` and ``a``
through :func:`form_lab.dynamics.trajectory_records`, as the simulator does.

Readers validate structure eagerly and raise :class:`SchemaError` with the
offending line number; numeric payloads must be finite (``NaN``/``Infinity``
tokens are rejected).  Files of another ``schema_version`` are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec
from .dynamics import TrajectoryRecord, UnitSystem, lab_force_and_acceleration, trajectory_records
from .errors import DegenerateVelocityError, NonFiniteError, SchemaError, SpeedLimitError
from .neural import MlpParams
from .ode import uniform_grid
from .relativity import PhysicsConfig
from .training import METHODS, TrainConfig, TrainedModel

SCHEMA_VERSION = 2

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
    """Deterministic JSON: insertion-ordered keys, ``%.17g`` floats."""
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
        out.append(_float_lists(obj.tolist()))
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


def _float_lists(values: list) -> str:
    """The nested float lists of a float64 array (the bulk of every file) as JSON."""
    if values and isinstance(values[0], list):
        return "[" + ",".join(map(_float_lists, values)) + "]"
    return "[" + ",".join(map(format_float, values)) + "]"


def _reject_constant(token: str):
    raise SchemaError(f"non-finite JSON token {token!r} is not allowed")


def _loads_line(line: str, line_no: int, path) -> dict:
    try:
        obj = json.loads(line, parse_constant=_reject_constant)
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


def _parse_array(raw, shape: tuple, line_no: int, path, name: str) -> np.ndarray:
    """A finite float64 array of exactly ``shape`` from parsed JSON numbers (not strings or bools)."""
    try:
        arr = np.asarray(raw)
    except ValueError as e:  # ragged nesting
        raise SchemaError(f"{path}:{line_no}: field {name!r} is not a numeric array ({e})") from e
    if arr.dtype.kind not in "iuf":
        raise SchemaError(f"{path}:{line_no}: field {name!r} must hold numbers only, got {arr.dtype} values")
    arr = arr.astype(np.float64, copy=False)
    if arr.shape != shape:
        raise SchemaError(f"{path}:{line_no}: field {name!r} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}:{line_no}: field {name!r} contains non-finite values")
    return arr


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text ({e.reason})") from e


def _write_json_lines(path, objects) -> None:
    """Write each object as one line of deterministic JSON, creating parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(dumps(obj) + "\n")


def _read_ndjson(path, kind: str, count_key: str):
    """The checked header, and an iterator over the (line number, object) of each line it promises."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise SchemaError(f"{path}:1: empty file")
    header = _loads_line(lines[0], 1, path)
    _check_kind(header, kind, path)
    n = _need_int(header, count_key, 1, path)
    if n < 1 or len(lines) - 1 != n:
        raise SchemaError(f"{path}: header promises {n} {count_key[2:]}, found {len(lines) - 1}")
    return header, ((line_no, _loads_line(line, line_no, path)) for line_no, line in enumerate(lines[1:], start=2))


def _read_object(path, kind: str) -> dict:
    payload = _loads_line(_read_text(path), 1, path)
    _check_kind(payload, kind, path)
    return payload


def physics_from_header(header: dict) -> PhysicsConfig:
    """The ``physics`` of a dataset header or checkpoint; both keys are required."""
    return PhysicsConfig(c=float(header["physics"]["c"]), m=float(header["physics"]["m"]))


# --- datasets ---------------------------------------------------------------


def write_dataset(
    path,
    records: list[TrajectoryRecord],
    spec: DatasetSpec,
    physics: PhysicsConfig,
    units: UnitSystem | None = None,
) -> None:
    """NDJSON: one header line, then one ``{index, x, v, f_par, f_perp}`` line per trajectory.

    Records are written in index order and must be exactly trajectories
    0..N-1 on the spec's time grid, because that is what the reader accepts.
    Their ``f`` and ``a`` must be the ones ``physics`` and the spec's
    handedness rebuild from ``v``, ``f_par`` and ``f_perp``, bit for bit,
    because the reader rebuilds them that way.
    """
    if not records:
        raise ValueError("refusing to write an empty dataset")
    records = sorted(records, key=lambda r: r.index)
    if [r.index for r in records] != list(range(len(records))):
        raise ValueError(f"record indices must be exactly 0..{len(records) - 1}, each once")
    times, _ = uniform_grid(spec.duration, spec.n_steps)
    off_grid = [r.index for r in records if not np.array_equal(r.times, times)]
    if off_grid:
        raise ValueError(f"records {off_grid[:5]} are off the spec's grid ({spec.n_steps} steps, {spec.duration} s)")
    _check_rebuilt(records, physics, spec.handedness)
    units = units if units is not None else UnitSystem()
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": DATASET_KIND,
        "n_trajectories": len(records),
        "physics": {"c": physics.c, "m": physics.m},
        "units": {"meters_per_du": units.meters_per_du},
        "spec": spec.to_dict(),
    }
    rows = [{"index": r.index, "x": r.x, "v": r.v, "f_par": r.f_par, "f_perp": r.f_perp} for r in records]
    _write_json_lines(path, [header, *rows])


_REBUILD_CHECK_CHUNK = 128  # records per vectorised writer check: a few MB of temporaries, not tens


def _check_rebuilt(records: list[TrajectoryRecord], physics: PhysicsConfig, handedness: int) -> None:
    """Raise ValueError unless each record's ``f`` and ``a`` are what :func:`read_dataset` will rebuild."""
    at = f"physics c={physics.c!r}, m={physics.m!r} and handedness {handedness}"
    for start in range(0, len(records), _REBUILD_CHECK_CHUNK):
        chunk = records[start : start + _REBUILD_CHECK_CHUNK]
        v, f_par, f_perp, f, a = (np.stack([getattr(r, k) for r in chunk]) for k in ("v", "f_par", "f_perp", "f", "a"))
        try:
            f_lab, accel = lab_force_and_acceleration(v, f_par, f_perp, physics, handedness)
        except (SpeedLimitError, DegenerateVelocityError) as e:
            raise ValueError(f"records cannot be rebuilt at {at}: {e}") from e
        for name, stored, rebuilt in (("f", f, f_lab), ("a", a, accel)):
            bad = np.flatnonzero(np.any(stored != rebuilt, axis=(1, 2)))
            if bad.size:
                raise ValueError(
                    f"records {[chunk[i].index for i in bad[:5]]} carry an {name} that {at} do not give; "
                    "write them with the physics they were generated at"
                )


def read_dataset(path) -> tuple[dict, list[TrajectoryRecord]]:
    """Parse and validate a dataset file; records come back in index order, ``times``, ``f``, ``a`` rebuilt."""
    header, lines = _read_ndjson(path, DATASET_KIND, "n_trajectories")
    try:
        spec = DatasetSpec.from_dict(_need(header, "spec", 1, path))
        physics = physics_from_header(header)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{path}:1: malformed header ({e!r})") from e

    n = header["n_trajectories"]
    vec, scalar = (spec.n_steps + 1, 2), (spec.n_steps + 1,)
    fields = (("x", vec), ("v", vec), ("f_par", scalar), ("f_perp", scalar))
    by_index: list[list[np.ndarray] | None] = [None] * n
    for line_no, obj in lines:
        index = _need_int(obj, "index", line_no, path)
        if not 0 <= index < n:
            raise SchemaError(f"{path}:{line_no}: trajectory index {index} outside 0..{n - 1}")
        if by_index[index] is not None:
            raise SchemaError(f"{path}:{line_no}: duplicate trajectory index {index}")
        by_index[index] = [_parse_array(_need(obj, k, line_no, path), s, line_no, path, k) for k, s in fields]

    x, v, f_par, f_perp = (np.stack(arrays, axis=1) for arrays in zip(*by_index))
    try:
        times, _ = uniform_grid(spec.duration, spec.n_steps)
        records = trajectory_records(range(n), times, x, v, f_par, f_perp, physics, spec.handedness)
    except (OverflowError, SpeedLimitError, DegenerateVelocityError, NonFiniteError) as e:
        raise SchemaError(f"{path}: cannot rebuild the trajectories ({e})") from e
    return header, records


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
    _write_json_lines(path, [payload])


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
        loss_curve = payload.get("loss_curve", [])
        model = TrainedModel(
            method=payload["method"],
            heads={name: _parse_head(path, name, head) for name, head in heads.items()},
            duration=float(payload["duration"]),
            physics=physics_from_header(payload),
            train_config=train_config,
            dataset_info=dataset_info,
            loss_curve=_parse_array(loss_curve, (len(loss_curve),), 1, path, "loss_curve"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{path}: malformed checkpoint ({e!r})") from e
    if model.method not in METHODS:
        raise SchemaError(f"{path}: unknown method {model.method!r}")
    return model


# --- samples -----------------------------------------------------------------


def write_samples(path, header_extra: dict, entries: list[dict]) -> None:
    """NDJSON samples: header then {index, x0, v0?, endpoint, path?} lines."""
    if not entries:
        raise ValueError("refusing to write an empty samples file")
    header = {"schema_version": SCHEMA_VERSION, "kind": SAMPLES_KIND, "n_samples": len(entries), **header_extra}
    _write_json_lines(path, [header, *entries])


def read_samples(path) -> tuple[dict, list[dict]]:
    header, lines = _read_ndjson(path, SAMPLES_KIND, "n_samples")
    entries = []
    for line_no, obj in lines:
        _need_int(obj, "index", line_no, path)
        for key in ("x0", "endpoint"):
            _parse_array(_need(obj, key, line_no, path), (2,), line_no, path, key)
        entries.append(obj)
    return header, entries


# --- reports -----------------------------------------------------------------


def write_report(path, report: dict) -> None:
    if report.get("kind") != REPORT_KIND:
        raise ValueError(f"not a report dict (kind = {report.get('kind')!r})")
    _write_json_lines(path, [report])


def read_report(path) -> dict:
    payload = _read_object(path, REPORT_KIND)
    _need(payload, "cells", 1, path)
    return payload
