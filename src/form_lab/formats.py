"""Deterministic on-disk formats: NDJSON datasets/samples, JSON checkpoints.

Floats are always written with 17 significant digits (``%.17g``), which is
enough for IEEE-754 doubles to round-trip bit-exactly through text; reading
a file back and re-writing it reproduces the original bytes.  Nothing
time- or host-dependent (timestamps, paths, hostnames) is ever written, so
identical inputs give identical files.

Readers validate structure eagerly and raise :class:`SchemaError` with the
offending line number; numeric payloads must be finite (``NaN``/``Infinity``
tokens are rejected).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec
from .dynamics import TrajectoryRecord, UnitSystem
from .errors import NonFiniteError, SchemaError
from .neural import MlpParams
from .relativity import PhysicsConfig
from .training import METHODS, TrainConfig, TrainedModel

SCHEMA_VERSION = 1

DATASET_KIND = "form-lab-dataset"
SAMPLES_KIND = "form-lab-samples"
CHECKPOINT_KIND = "form-lab-checkpoint"
REPORT_KIND = "form-lab-report"


def _open_for_write(path):
    """Open ``path`` for text writing, creating parent directories."""
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    return open(p, "w", encoding="utf-8", newline="\n")


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


def _check_kind(header: dict, expected: str, path) -> None:
    version = _need(header, "schema_version", 1, path)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}:1: unsupported schema_version {version!r}")
    kind = _need(header, "kind", 1, path)
    if kind != expected:
        raise SchemaError(f"{path}:1: expected kind {expected!r}, got {kind!r}")


def _floats_csv(values) -> str:
    return ",".join(format_float(v) for v in values)


def _vec_list(arr) -> str:
    return "[" + ",".join("[" + _floats_csv(row) + "]" for row in arr.tolist()) + "]"


def _parse_vec_array(raw, n_rows: int, line_no: int, path, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.shape != (n_rows, 2):
        raise SchemaError(f"{path}:{line_no}: field {name!r} must be {n_rows}x2, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}:{line_no}: field {name!r} contains non-finite values")
    return arr


def _parse_scalar_array(raw, n_rows: int, line_no: int, path, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.shape != (n_rows,):
        raise SchemaError(f"{path}:{line_no}: field {name!r} must have length {n_rows}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}:{line_no}: field {name!r} contains non-finite values")
    return arr


# --- datasets ---------------------------------------------------------------


def write_dataset(
    path,
    records: list[TrajectoryRecord],
    spec: DatasetSpec,
    physics: PhysicsConfig,
    units: UnitSystem | None = None,
) -> None:
    """NDJSON: one header line, then one line per trajectory (index order)."""
    if not records:
        raise ValueError("refusing to write an empty dataset")
    records = sorted(records, key=lambda r: r.index)
    units = units if units is not None else UnitSystem()
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": DATASET_KIND,
        "dataset": spec.kind,
        "n_trajectories": len(records),
        "n_steps": records[0].n_steps,
        "duration": spec.duration,
        "physics": {"c": physics.c, "m": physics.m},
        "units": {"meters_per_du": units.meters_per_du},
        "spec": spec.to_dict(),
        "fields": ["times", "x", "v", "a", "f", "f_par", "f_perp"],
    }
    with _open_for_write(path) as fh:
        fh.write(dumps(header) + "\n")
        for r in records:
            fh.write(
                "{"
                + f'"index":{int(r.index)}'
                + ',"times":[' + _floats_csv(r.times) + "]"
                + ',"x":' + _vec_list(r.x)
                + ',"v":' + _vec_list(r.v)
                + ',"a":' + _vec_list(r.a)
                + ',"f":' + _vec_list(r.f)
                + ',"f_par":[' + _floats_csv(r.f_par) + "]"
                + ',"f_perp":[' + _floats_csv(r.f_perp) + "]"
                + "}\n"
            )


def read_dataset(path) -> tuple[dict, list[TrajectoryRecord]]:
    """Parse and validate a dataset file; records come back in index order."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}:1: empty file")
    header = _loads_line(lines[0], 1, path)
    _check_kind(header, DATASET_KIND, path)
    n_traj = _need(header, "n_trajectories", 1, path)
    n_steps = _need(header, "n_steps", 1, path)
    for key in ("dataset", "duration", "physics", "spec"):
        _need(header, key, 1, path)
    if len(lines) - 1 != n_traj:
        raise SchemaError(f"{path}: header promises {n_traj} trajectories, found {len(lines) - 1}")

    n_rows = n_steps + 1
    records: list[TrajectoryRecord] = []
    seen: set[int] = set()
    for offset, line in enumerate(lines[1:], start=2):
        obj = _loads_line(line, offset, path)
        index = _need(obj, "index", offset, path)
        if not isinstance(index, int) or isinstance(index, bool):
            raise SchemaError(f"{path}:{offset}: index must be an integer, got {index!r}")
        if index in seen:
            raise SchemaError(f"{path}:{offset}: duplicate trajectory index {index}")
        seen.add(index)
        records.append(
            TrajectoryRecord(
                index=index,
                times=_parse_scalar_array(_need(obj, "times", offset, path), n_rows, offset, path, "times"),
                x=_parse_vec_array(_need(obj, "x", offset, path), n_rows, offset, path, "x"),
                v=_parse_vec_array(_need(obj, "v", offset, path), n_rows, offset, path, "v"),
                a=_parse_vec_array(_need(obj, "a", offset, path), n_rows, offset, path, "a"),
                f=_parse_vec_array(_need(obj, "f", offset, path), n_rows, offset, path, "f"),
                f_par=_parse_scalar_array(_need(obj, "f_par", offset, path), n_rows, offset, path, "f_par"),
                f_perp=_parse_scalar_array(_need(obj, "f_perp", offset, path), n_rows, offset, path, "f_perp"),
            )
        )
    if seen != set(range(n_traj)):
        missing = sorted(set(range(n_traj)) - seen)[:5]
        raise SchemaError(f"{path}: trajectory indices must cover 0..{n_traj - 1} (missing {missing})")
    records.sort(key=lambda r: r.index)
    return header, records


def physics_from_header(header: dict) -> PhysicsConfig:
    return PhysicsConfig(c=float(header["physics"]["c"]), m=float(header["physics"]["m"]))


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
            name: {
                "layer_dims": list(p.layer_dims),
                "weights": [w.tolist() for w in p.weights],
                "biases": [b.tolist() for b in p.biases],
            }
            for name, p in model.heads.items()
        },
        "loss_curve": model.loss_curve,
    }
    with _open_for_write(path) as fh:
        fh.write(dumps(payload) + "\n")


def read_checkpoint(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = _loads_line(fh.read(), 1, path)
    _check_kind(payload, CHECKPOINT_KIND, path)
    try:
        train_config = TrainConfig(
            **{
                **payload["train_config"],
                "hidden_dims": tuple(payload["train_config"]["hidden_dims"]),
            }
        )
        physics = PhysicsConfig(**payload["physics"])
        heads: dict[str, MlpParams] = {}
        for name, head in payload["heads"].items():
            dims = tuple(int(d) for d in head["layer_dims"])
            weights = tuple(np.asarray(w, dtype=np.float64) for w in head["weights"])
            biases = tuple(np.asarray(b, dtype=np.float64) for b in head["biases"])
            for l, (w, b) in enumerate(zip(weights, biases)):
                if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                    raise SchemaError(
                        f"{path}: head {name!r} layer {l} shapes {w.shape}/{b.shape} "
                        f"inconsistent with layer_dims {dims}"
                    )
            heads[name] = MlpParams(layer_dims=dims, weights=weights, biases=biases)
        model = TrainedModel(
            method=payload["method"],
            heads=heads,
            duration=float(payload["duration"]),
            physics=physics,
            train_config=train_config,
            dataset_info=payload.get("dataset"),
            loss_curve=np.asarray(payload.get("loss_curve", []), dtype=np.float64),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"{path}: malformed checkpoint ({e})") from e
    if model.method not in METHODS:
        raise SchemaError(f"{path}: unknown method {model.method!r}")
    return model


# --- samples -----------------------------------------------------------------


def write_samples(path, header_extra: dict, entries: list[dict]) -> None:
    """NDJSON samples: header then {index, x0, v0?, endpoint, path?} lines."""
    if not entries:
        raise ValueError("refusing to write an empty samples file")
    header = {"schema_version": SCHEMA_VERSION, "kind": SAMPLES_KIND, "n_samples": len(entries)}
    header.update(header_extra)
    with _open_for_write(path) as fh:
        fh.write(dumps(header) + "\n")
        for entry in entries:
            fh.write(dumps(entry) + "\n")


def read_samples(path) -> tuple[dict, list[dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}:1: empty file")
    header = _loads_line(lines[0], 1, path)
    _check_kind(header, SAMPLES_KIND, path)
    n = _need(header, "n_samples", 1, path)
    if len(lines) - 1 != n:
        raise SchemaError(f"{path}: header promises {n} samples, found {len(lines) - 1}")
    entries = []
    for offset, line in enumerate(lines[1:], start=2):
        obj = _loads_line(line, offset, path)
        for key in ("index", "x0", "endpoint"):
            _need(obj, key, offset, path)
        entries.append(obj)
    return header, entries


# --- reports -----------------------------------------------------------------


def write_report(path, report: dict) -> None:
    if report.get("kind") != REPORT_KIND:
        raise ValueError(f"not a report dict (kind = {report.get('kind')!r})")
    with _open_for_write(path) as fh:
        fh.write(dumps(report) + "\n")


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = _loads_line(fh.read(), 1, path)
    _check_kind(payload, REPORT_KIND, path)
    _need(payload, "cells", 1, path)
    return payload
