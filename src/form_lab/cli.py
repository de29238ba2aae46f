"""Command-line interface: gen-data / train / sample / eval / plot.

Option precedence per subcommand: explicit flags beat the optional JSON
config file (``--config``), which beats built-in defaults.  The config file
maps option names (with underscores) to values, e.g. ``{"steps": 500}``.
Each value is converted and checked by its flag's type and choices (an
option without a type takes only a JSON string), and ``null`` leaves the
option unset.  An option that maps onto a dataclass field is passed on
only when set, so the dataclass default is the default.

Each subcommand calls the ``form_lab.pipeline`` stage that ``run_table`` calls for its step; the rule
pairing a model with its held-out rows is ``pipeline.heldout_for``, the split ``datasets.holdout_split``.
One flag per setting: ``sample --init-velocity`` takes ``dataset``, ``zero`` or the vector ``vx,vy``,
and ``gen-data --threads`` is the only thread cap (default: the affinity mask's usable CPUs).

Exit codes: 0 success; 2 usage, validation, or file-format problems;
3 numerical failures (speed-limit, degenerate velocity, non-finite values).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import pipeline
from .datasets import HOLDOUT_FRACTION, KINDS, DatasetSpec, holdout_split, source_points
from .errors import (
    DegenerateVelocityError,
    NonFiniteError,
    SchemaError,
    ShapeError,
    SpeedLimitError,
)
from .evaluate import (
    EVAL_MODES,
    SamplerConfig,
    config_digest,
    evaluate_model,
    make_report,
    render_table,
    sample_model,
)
from .figures import scatter_svg, write_svg
from .formats import (
    read_checkpoint,
    read_dataset,
    read_samples,
    write_report,
    write_samples,
)
from .relativity import PhysicsConfig, speed
from .sampling import VELOCITY_UPDATES
from .training import FORM_INPUT_MODES, METHODS, O1O2_COUPLINGS, TrainConfig, steps_for_epochs

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 2, 3

HANDEDNESS = {"ccw": 1, "cw": -1}

# Options that name a run's inputs and outputs; --config may set any other.
NOT_IN_CONFIG = {"help", "config", "data", "dataset", "method", "model", "out", "report", "samples"}

# Option name -> dataclass field, where the public flag name differs.
FIELD_NAMES = {
    DatasetSpec: {
        "dataset": "kind",
        "n": "n_points",
        "steps": "n_steps",
        "variance": "source_variance",
        "perp_handedness": "handedness",
    },
    PhysicsConfig: {"mass": "m"},
    TrainConfig: {"lr": "learning_rate", "hidden": "hidden_dims"},
    SamplerConfig: {"sampler_steps": "n_steps", "update": "velocity_update"},
}


def _from_options(cls, args: argparse.Namespace):
    """Build ``cls`` from the options a flag or the config set; ``cls`` defaults the rest."""
    names = {f.name for f in fields(cls)}
    given = {FIELD_NAMES[cls].get(k, k): v for k, v in vars(args).items() if v is not None}
    return cls(**{k: v for k, v in given.items() if k in names})


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The --config file's options, each converted and checked as its flag would be."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in NOT_IN_CONFIG}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ValueError(f"config file has unknown keys: {sorted(unknown)}")
    return {key: _config_value(actions[key], key, value) for key, value in cfg.items() if value is not None}


def _config_value(action: argparse.Action, key: str, value):
    if isinstance(action, argparse.BooleanOptionalAction):
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    if action.type is None and not isinstance(value, str):
        raise ValueError(f"config key {key!r} must be a string, got {text}")
    try:
        value = action.type(text) if action.type is not None else text
    except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
        raise ValueError(f"config key {key!r}: {e}") from e
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r} must be one of {list(action.choices)}, got {text!r}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from e


def _init_velocity(text: str) -> str | np.ndarray:
    """``dataset`` or ``zero`` as the rule's name, a finite ``vx,vy`` as a vector."""
    if text in ("dataset", "zero"):
        return text
    try:
        vec = np.array([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError:
        vec = None
    if vec is None or vec.shape != (2,):
        raise argparse.ArgumentTypeError(f"expected 'dataset', 'zero' or 'vx,vy', got {text!r}")
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"expected finite components, got {text!r}")
    return vec


# --- subcommands -------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.perp_handedness is not None:
        args.perp_handedness = HANDEDNESS[args.perp_handedness]
    spec = _from_options(DatasetSpec, args)
    physics = _from_options(PhysicsConfig, args)
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    batch = pipeline.make_dataset(args.out, spec, physics, args.threads)
    max_speed = float(np.max(speed(batch.v)))
    print(
        f"wrote {args.out}: {len(batch)} x {spec.n_steps} step "
        f"{spec.kind} trajectories, duration {spec.duration} s"
    )
    print(f"max speed {max_speed:.6g} du/s ({max_speed / physics.c:.6g} c)")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    if args.steps is not None and args.epochs is not None:
        raise ValueError("--steps and --epochs are mutually exclusive")
    if not 0.0 <= args.holdout_fraction < 1.0:
        raise ValueError(f"--holdout-fraction must be in [0, 1) (0 trains on all), got {args.holdout_fraction}")
    config = _from_options(TrainConfig, args)  # checked before the dataset is read
    header, batch = read_dataset(args.data)
    batch, _ = holdout_split(batch, args.holdout_fraction)
    if args.epochs is not None:
        try:
            config = replace(config, steps=steps_for_epochs(args.epochs, len(batch), config.batch_size))
        except ValueError as e:
            raise ValueError(f"--epochs {args.epochs!r}: {e}") from e
    model = pipeline.fit(args.out, batch, config, header["spec"])
    print(
        f"trained {config.method} on {len(batch)} trajectories "
        f"({config.steps} steps, batch {config.batch_size}): final loss {model.final_loss:.6g}"
    )
    return EXIT_OK


def _check_velocity_flags(args: argparse.Namespace, model, sampler: SamplerConfig) -> None:
    """Refuse force-sampler flags that the model's sampler would ignore, and an initial velocity at or above c."""
    init = args.init_velocity
    if model.method != "form":
        ignored = []
        if isinstance(init, np.ndarray) or init != "dataset":
            ignored.append(f"--init-velocity {init if isinstance(init, str) else ','.join(map(repr, init.tolist()))}")
        if sampler.velocity_update != SamplerConfig().velocity_update:
            ignored.append(f"--update {sampler.velocity_update}")
        if ignored:
            raise ValueError(f"{', '.join(ignored)}: only form models have a force sampler, not {model.method}")
    elif isinstance(init, np.ndarray):
        v0_speed = float(np.hypot(*init))
        if v0_speed >= model.physics.c:
            raise ValueError(f"--init-velocity speed {v0_speed!r} is not below c = {model.physics.c!r}")


def cmd_sample(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    model = read_checkpoint(args.model)
    sampler = _from_options(SamplerConfig, args)
    _check_velocity_flags(args, model, sampler)

    if args.source == "heldout":
        if args.data is None:
            raise ValueError("--source heldout needs --data to supply held-out source points")
        header, batch = read_dataset(args.data)
        _, heldout = pipeline.heldout_for(model, {header["spec"]["kind"]: holdout_split(batch)[1]}, args.model)
        if args.n is not None and args.n > len(heldout):
            raise ValueError(f"--n {args.n} is more than the {len(heldout)} held-out trajectories of {args.data}")
        heldout = heldout[: args.n]
        indices, x0 = heldout.index, heldout.x0
    else:  # fresh draws from the model's source distribution
        if model.dataset_info is None:
            raise ValueError("--source noise needs a model trained with dataset info")
        n = args.n if args.n is not None else 100
        spec = replace(DatasetSpec.from_dict(model.dataset_info), seed=args.seed, n_points=n)
        indices = np.arange(n)
        x0 = source_points(spec, indices, model.physics)

    # None is the dataset-matched rule; _check_velocity_flags refused any other on a flow model
    init = args.init_velocity
    v0 = {"dataset": None, "zero": np.zeros_like(x0)}[init] if isinstance(init, str) else init
    path = sample_model(model, x0, sampler, v0=v0)

    entries = []
    for row, index in enumerate(indices):
        entry: dict = {"index": int(index), "x0": x0[row]}
        if path.v is not None:
            entry["v0"] = path.v[0, row]
        entry["endpoint"] = path.x[-1, row]
        if args.paths:
            entry["path"] = path.x[:, row]
        entries.append(entry)
    header_extra = {
        "method": model.method,
        "dataset": (model.dataset_info or {}).get("kind"),
        "source": args.source,
        "seed": args.seed if args.source == "noise" else None,
        "sampler_steps": sampler.n_steps,
        "duration": model.duration,
        "init_velocity": (init if isinstance(init, str) else "explicit") if model.method == "form" else None,
        "velocity_update": sampler.velocity_update if model.method == "form" else None,
    }
    write_samples(args.out, header_extra, entries)
    print(f"wrote {args.out}: {len(entries)} {model.method} endpoints ({sampler.n_steps} steps)")
    if path.v is not None:
        max_speed = float(np.max(speed(path.v)))
        print(f"max sampled speed {max_speed:.6g} du/s ({max_speed / model.physics.c:.6g} c)")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    headers, heldouts = {}, {}
    for path in args.data:
        header, batch = read_dataset(path)
        kind = header["spec"]["kind"]
        if kind in headers:
            raise ValueError(f"two datasets of kind {kind!r} given; one per kind, please")
        headers[kind], heldouts[kind] = header, holdout_split(batch)[1]

    sampler = _from_options(SamplerConfig, args)
    cells = []
    for model_path in args.model:
        model = read_checkpoint(model_path)
        kind, heldout = pipeline.heldout_for(model, heldouts, model_path)
        cells.append(evaluate_model(model, heldout, sampler, mode=args.mode, dataset_name=kind))

    metadata = {
        "sampler_steps": sampler.n_steps,
        "mode": args.mode,
        "datasets": {
            kind: {
                "n_points": header["n_trajectories"],
                "n_heldout": len(heldouts[kind]),
                "seed": header["spec"]["seed"],
            }
            for kind, header in headers.items()
        },
        "config_digest": config_digest({"sampler_steps": sampler.n_steps, "mode": args.mode}),
    }
    report = make_report(cells, metadata)
    write_report(args.report, report)
    table = render_table(report, include_reference=args.reference)
    print(table, end="")
    print(f"wrote {args.report}")
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    n_traj = args.trajectories
    if n_traj < 0:
        raise ValueError(f"--trajectories must be >= 0, got {n_traj}")
    if args.data is not None:
        header, batch = read_dataset(args.data)
        source, target = batch.x0, batch.endpoint
        trajectories = list(batch.x[:n_traj])
        title = args.title if args.title is not None else header["spec"]["kind"]
    else:
        header, entries = read_samples(args.samples)
        source = np.stack([e["x0"] for e in entries])
        target = np.stack([e["endpoint"] for e in entries])
        trajectories = [e["path"] for e in entries if "path" in e][:n_traj]
        default_title = f"{header.get('method', '?')} samples ({header.get('dataset') or 'custom'})"
        title = args.title if args.title is not None else default_title
    write_svg(args.out, scatter_svg(source, target, trajectories, title=title))
    print(f"wrote {args.out}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="form-lab",
        description="Relativistic force matching: generate data, train, sample, evaluate, plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    btrue = argparse.BooleanOptionalAction

    g = sub.add_parser("gen-data", help="simulate a toy dataset and write NDJSON")
    g.add_argument("--dataset", required=True, choices=KINDS)
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--steps", type=int)
    g.add_argument("--duration", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--variance", type=float, help="source Gaussian variance (onedot, halfmoons)")
    g.add_argument("--velocity-scale", type=float)
    g.add_argument("--initial-speed", type=float)
    g.add_argument("--core-speed", type=float)
    g.add_argument("--ring-speed", type=float)
    g.add_argument("--disc-radius", type=float)
    g.add_argument("--force-scale", type=float)
    g.add_argument("--perp-handedness", choices=sorted(HANDEDNESS))
    g.add_argument("--c", type=float, help="speed of light (du/s)")
    g.add_argument("--mass", type=float)
    g.add_argument("--threads", type=int, help="most worker threads, one per 4096 points (default: usable CPUs)")
    g.add_argument("--config")
    g.set_defaults(func=cmd_gen_data, parser=g)

    t = sub.add_parser("train", help="train o1 / o1o2 / form on a dataset file")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--method", required=True, choices=METHODS)
    t.add_argument("--steps", type=int)
    t.add_argument("--epochs", type=float, help="alternative budget; steps = ceil(epochs*N/batch)")
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--hidden", type=_int_list, help="comma-separated hidden widths, e.g. 64,64")
    t.add_argument("--form-input-mode", choices=FORM_INPUT_MODES)
    t.add_argument("--o1o2-coupling", choices=O1O2_COUPLINGS)
    t.add_argument(
        "--holdout-fraction",
        type=float,
        default=HOLDOUT_FRACTION,
        help="fraction of trailing indices reserved for eval (0 trains on all)",
    )
    t.add_argument("--config")
    t.set_defaults(func=cmd_train, parser=t)

    s = sub.add_parser("sample", help="run a trained model's sampler and write endpoints")
    s.add_argument("--model", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--data", help="dataset file for held-out source points")
    s.add_argument("--n", type=int)
    s.add_argument("--sampler-steps", "--M", type=int)
    s.add_argument("--seed", type=int, default=0, help="seed for --source noise draws")
    s.add_argument("--source", choices=("heldout", "noise"), default="heldout")
    s.add_argument("--init-velocity", type=_init_velocity, default="dataset", help="dataset, zero or 'vx,vy'")
    s.add_argument("--paths", action=btrue, default=False, help="store full paths, not just endpoints")
    s.add_argument("--update", choices=VELOCITY_UPDATES, help="force-sampler velocity update")
    s.add_argument("--config")
    s.set_defaults(func=cmd_sample, parser=s)

    e = sub.add_parser("eval", help="score models on held-out endpoints and write a report")
    e.add_argument("--model", required=True, action="append", help="checkpoint (repeatable)")
    e.add_argument("--data", required=True, action="append", help="dataset file (repeatable)")
    e.add_argument("--report", required=True)
    e.add_argument("--sampler-steps", "--M", type=int)
    e.add_argument("--mode", choices=EVAL_MODES, default="paired")
    e.add_argument("--reference", action=btrue, default=False, help="append previously reported losses")
    e.add_argument("--config")
    e.set_defaults(func=cmd_eval, parser=e)

    p = sub.add_parser("plot", help="render a dataset or samples file as an SVG scatter")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data")
    src.add_argument("--samples")
    p.add_argument("--out", required=True)
    p.add_argument("--trajectories", type=int, default=0, help="draw the first K paths")
    p.add_argument("--title")
    p.add_argument("--config")
    p.set_defaults(func=cmd_plot, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values become the subcommand's defaults, so explicit flags still win
            args.parser.set_defaults(**_config_defaults(args.parser, args.config))
            args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # the finite checks report an overflow once, as a numerical failure
            return args.func(args)
    except (SpeedLimitError, DegenerateVelocityError, NonFiniteError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SchemaError, ShapeError, ValueError, OSError, json.JSONDecodeError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
