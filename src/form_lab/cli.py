"""Command-line interface: gen-data / train / sample / eval / plot / table / stress.

Option precedence per subcommand: explicit flags beat the optional JSON
config file (``--config``), which beats built-in defaults.  The config file
maps option names (with underscores) to values, e.g. ``{"steps": 500}``.
Each value is converted and checked by its flag's type and choices (an
option without a type takes only a JSON string), and ``null`` leaves the
option unset.  An option that maps onto a dataclass field is passed on
only when set, so the dataclass default is the default.  Every refusal names
the option as it was given: the flag as typed (``--M``, not ``--sampler-steps``),
or ``config key '<key>'``.  ``_from_options`` names a dataclass's ``FieldError``
so; an option that is no dataclass field is range-checked by its ``type=``
converter, whose refusal argparse names.

Each subcommand calls the ``form_lab.pipeline`` stage that ``run_table`` calls for its step; the rule
pairing a model with its held-out rows is ``pipeline.heldout_for``, the split ``datasets.holdout_split``.
One flag per setting: ``sample --init-velocity`` takes ``dataset``, ``zero`` or the vector ``vx,vy``,
``sample --seed`` seeds ``--source noise`` draws only (default 0), and ``gen-data --threads`` is the
only thread cap (default: the affinity mask's usable CPUs).
``table`` runs ``pipeline.run_table`` itself, the whole 3 x 3 experiment into ``--outdir``, and
renders ``<outdir>/table.txt``; ``stress`` prints the speed-limit stress report.  ``scripts/run_table.py``
and ``scripts/stress_speed_limit.py`` are these two subcommands run from a checkout.

Exit codes: 0 success; 2 usage, validation, or file-format problems, argparse's refusals included;
3 numerical failures (speed-limit, degenerate velocity, non-finite values).  ``main`` maps each failure
to its exit code and one ``error:`` or ``numerical failure:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import pipeline
from .datasets import (
    HOLDOUT_FRACTION, KINDS, STRESS_FACTOR, DatasetSpec, force_schedule_for, generate, holdout_split, initial_velocity,
    source_points,
)
from .errors import DegenerateVelocityError, FieldError, NonFiniteError, SchemaError, ShapeError, SpeedLimitError
from .evaluate import EVAL_MODES, SamplerConfig, config_digest, evaluate_model, make_report, render_table, sample_model
from .figures import scatter_svg, write_svg
from .formats import read_checkpoint, read_dataset, read_samples, write_report, write_samples, write_text
from .neural import MlpParams, mlp_init
from .relativity import DEFAULT_PHYSICS, PhysicsConfig, speed
from .sampling import VELOCITY_UPDATES, force_path, sample_form
from .training import FORM_INPUT_MODES, METHODS, O1O2_COUPLINGS, TrainConfig, TrainedModel, steps_for_epochs

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 2, 3

HANDEDNESS = {"ccw": 1, "cw": -1}

# Options that name a run's inputs and outputs; --config may set any other.
NOT_IN_CONFIG = {"help", "config", "data", "dataset", "method", "model", "out", "outdir", "report", "samples"}

# Option name -> dataclass field, where the public flag name differs.
FIELD_NAMES = {
    DatasetSpec: {"dataset": "kind", "n": "n_points", "points": "n_points", "steps": "n_steps",
                  "variance": "source_variance", "factor": "force_scale", "perp_handedness": "handedness"},
    PhysicsConfig: {"mass": "m"},
    TrainConfig: {"lr": "learning_rate", "hidden": "hidden_dims"},
    SamplerConfig: {"sampler_steps": "n_steps", "update": "velocity_update"},
}


def _from_options(cls, args: argparse.Namespace, **fixed):
    """Build ``cls`` from ``fixed`` and the options a flag or the config set, which win; ``cls`` defaults the rest.
    A field that ``cls`` refuses is named by the option that set it, as :func:`_given_as` names it."""
    names = {f.name for f in fields(cls)}
    options = {FIELD_NAMES[cls].get(k, k): k for k, v in vars(args).items() if v is not None}
    options = {field: option for field, option in options.items() if field in names}
    try:
        return cls(**{**fixed, **{field: getattr(args, option) for field, option in options.items()}})
    except FieldError as e:
        if e.owner is not cls or e.field not in options:
            raise
        raise ValueError(f"{_given_as(args, options[e.field])}: {e}") from e


def _given_as(args: argparse.Namespace, option: str) -> str:
    """How ``option`` was given: the flag as typed, ``config key '<option>'``, or (a default) its flag."""
    return getattr(args, "given", {}).get(option, "--" + option.replace("_", "-"))


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


class _Parser(argparse.ArgumentParser):
    """Raise each refusal as a ``ValueError``, which ``main`` reports as one line and exit 2 (subparsers inherit it),
    and store each value by :class:`_NamedBy` unless an option names another action."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _NamedBy)

    def error(self, message):
        raise ValueError(message)


class _NamedBy(argparse.Action):
    """Store the value, and in ``given[dest]`` the spelling it was typed as, so a refusal names the flag as typed."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {**getattr(namespace, "given", {}), self.dest: option_string}


def _ranged(kind, low, high=None):
    """A ``type=`` converter: ``kind(text)``, refused below ``low`` or at and above ``high``."""

    def convert(text: str):
        value = kind(text)
        if low <= value and (high is None or value < high):
            return value
        rule = f">= {low}" if high is None else f"in [{low}, {high})"
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")

    convert.__name__ = kind.__name__  # argparse names a text that kind() refuses by it: "invalid int value"
    return convert


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
    config = _from_options(TrainConfig, args)  # checked before the dataset is read
    header, batch = read_dataset(args.data)
    batch, _ = holdout_split(batch, args.holdout_fraction)
    if args.epochs is not None:
        try:
            config = replace(config, steps=steps_for_epochs(args.epochs, len(batch), config.batch_size))
        except ValueError as e:
            raise ValueError(f"{_given_as(args, 'epochs')} {args.epochs!r}: {e}") from e
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
            shown = init if isinstance(init, str) else ",".join(map(repr, init.tolist()))
            ignored.append(f"{_given_as(args, 'init_velocity')} {shown}")
        if sampler.velocity_update != SamplerConfig().velocity_update:
            ignored.append(f"{_given_as(args, 'update')} {sampler.velocity_update}")
        if ignored:
            raise ValueError(f"{', '.join(ignored)}: only form models have a force sampler, not {model.method}")
    elif isinstance(init, np.ndarray):
        v0_speed = float(np.hypot(*init))
        if v0_speed >= model.physics.c:
            raise ValueError(f"{_given_as(args, 'init_velocity')} speed {v0_speed!r} is not below "
                             f"c = {model.physics.c!r}")


def cmd_sample(args: argparse.Namespace) -> int:
    if args.source == "heldout" and args.seed is not None:
        raise ValueError(f"{_given_as(args, 'seed')}: held-out source points are read, not drawn; "
                         "only --source noise takes a seed")
    model = read_checkpoint(args.model)
    sampler = _from_options(SamplerConfig, args)
    _check_velocity_flags(args, model, sampler)

    if args.source == "heldout":
        if args.data is None:
            raise ValueError("--source heldout needs --data to supply held-out source points")
        header, batch = read_dataset(args.data)
        _, heldout = pipeline.heldout_for(model, {header["spec"]["kind"]: holdout_split(batch)[1]}, args.model)
        if args.n is not None and args.n > len(heldout):
            raise ValueError(f"{_given_as(args, 'n')} {args.n} is more than the {len(heldout)} held-out trajectories "
                             f"of {args.data}")
        heldout = heldout[: args.n]
        indices, x0, seed = heldout.index, heldout.x0, None
    else:  # fresh draws from the model's source distribution: --n (default 100) points at --seed (default 0)
        if model.dataset_info is None:
            raise ValueError("--source noise needs a model trained with dataset info")
        spec = _from_options(DatasetSpec, args, **{**DatasetSpec.from_dict(model.dataset_info).to_dict(),
                                                    "n_points": 100, "seed": 0})
        indices, seed = np.arange(spec.n_points), spec.seed
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
        "seed": seed,
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
    if args.data is not None:
        header, batch = read_dataset(args.data)
        source, target = batch.x0, batch.endpoint
        trajectories = list(batch.x[: args.trajectories])
        title = args.title if args.title is not None else header["spec"]["kind"]
    else:
        header, entries = read_samples(args.samples)
        source = np.stack([e["x0"] for e in entries])
        target = np.stack([e["endpoint"] for e in entries])
        trajectories = [e["path"] for e in entries if "path" in e][: args.trajectories]
        default_title = f"{header.get('method', '?')} samples ({header.get('dataset') or 'custom'})"
        title = args.title if args.title is not None else default_title
    write_svg(args.out, scatter_svg(source, target, trajectories, title=title))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    # --seed and --steps are checked as a training config, which checks a seed as a dataset spec does
    config = _from_options(TrainConfig, args, method=METHODS[0])
    sampler = _from_options(SamplerConfig, args)
    run = pipeline.run_table(args.outdir, config.seed, args.steps, sampler.n_steps, args.quick)
    table = render_table(run["report"], include_reference=args.reference)
    write_text(args.outdir / "table.txt", [table + "\n"])
    print(table)
    print(f"\nwrote {args.outdir}/report.json and {args.outdir}/table.txt in {time.monotonic() - t0:.0f}s")
    return EXIT_OK


def cmd_stress(args: argparse.Namespace) -> int:
    """Speed-limit stress report: the worst |v|/c of three families of extreme runs.

    The simulator runs every dataset kind with its forces scaled by ``--factor``; the force sampler drives
    the same schedules at 10, 100 and 1000 steps (coarse grids are the hard case); untrained force heads with
    outputs scaled by ``--factor`` go through ``sample_form``, where braking through zero celerity is a hard
    error by design, so those runs count as "braked".  The integrators keep every ratio below 1 structurally
    (celerity coordinates), not by clipping; a run at or above c raises ``SpeedLimitError`` after the report.
    """
    spec = _from_options(DatasetSpec, args, kind=KINDS[0])  # --points trajectories, forces x --factor
    c = DEFAULT_PHYSICS.c
    resolutions = (10, 100, 1000)
    worst = 0.0

    print(f"== simulator, forces x{args.factor:g} ==")
    stressed = {kind: replace(spec, kind=kind) for kind in KINDS}
    for kind, sspec in stressed.items():
        m = float(np.max(speed(generate(sspec).v)))
        worst = max(worst, m / c)
        print(f"  {kind:<10} max |v|/c = {m / c:.8f}")

    print(f"\n== force sampler, forces x{args.factor:g} ==")
    for kind, sspec in stressed.items():
        schedule = force_schedule_for(sspec)
        x0 = source_points(sspec, list(range(min(16, args.points))))
        v0 = initial_velocity(sspec, x0)

        def components(x, t, schedule=schedule):
            return schedule.f_par(t), schedule.f_perp(t)

        ratios = []
        for n_steps in resolutions:
            path = force_path(components, x0, v0, sspec.duration, n_steps, handedness=sspec.handedness)
            ratios.append(float(np.max(speed(path.v))) / c)
        worst = max(worst, *ratios)
        cols = "  ".join(f"M={m}: {r:.8f}" for m, r in zip(resolutions, ratios))
        print(f"  {kind:<10} max |v|/c  {cols}")

    print(f"\n== random force heads, outputs x{args.factor:g} ==")
    onedot = DatasetSpec(kind="onedot", n_points=min(16, args.points))
    x0 = source_points(onedot, list(range(onedot.n_points)))
    braked, random_max = 0, 0.0
    for seed in range(args.seeds):
        head = mlp_init((1, 64, 64, 2), seed=seed)
        head = MlpParams(head.layer_dims, (*head.weights[:-1], head.weights[-1] * args.factor), head.biases)
        model = TrainedModel(method="form", heads={"F": head}, duration=1.0, physics=DEFAULT_PHYSICS,
                             train_config=TrainConfig(method="form"), dataset_info=onedot.to_dict())
        for n_steps in resolutions:
            try:
                path = sample_form(model, x0, SamplerConfig(n_steps=n_steps))
            except DegenerateVelocityError:
                braked += 1
                continue
            random_max = max(random_max, float(np.max(speed(path.v))) / c)
    worst = max(worst, random_max)
    completed = args.seeds * len(resolutions) - braked
    print(f"  {completed} runs completed (max |v|/c = {random_max:.8f}), {braked} braked to rest")

    print(f"\nworst observed |v|/c = {worst:.8f}")
    if worst >= 1.0:
        raise SpeedLimitError(f"speed limit violated: worst observed |v|/c = {worst:.8f}")
    print("speed limit held in every run")
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="form-lab",
        description="Relativistic force matching: generate data, train, sample, evaluate, plot, run the table, "
        "stress the speed limit.",
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
    g.add_argument("--threads", type=_ranged(int, 1),
                   help="most worker threads, one per 4096 points (default: usable CPUs)")
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
    t.add_argument("--holdout-fraction", type=_ranged(float, 0, 1), default=HOLDOUT_FRACTION,
                   help="fraction of trailing indices reserved for eval (0 trains on all)")
    t.add_argument("--config")
    t.set_defaults(func=cmd_train, parser=t)

    s = sub.add_parser("sample", help="run a trained model's sampler and write endpoints")
    s.add_argument("--model", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--data", help="dataset file for held-out source points")
    s.add_argument("--n", type=_ranged(int, 1))
    s.add_argument("--sampler-steps", "--M", type=int)
    s.add_argument("--seed", type=int, help="seed for --source noise draws (default 0)")
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
    p.add_argument("--trajectories", type=_ranged(int, 0), default=0, help="draw the first K paths")
    p.add_argument("--title")
    p.add_argument("--config")
    p.set_defaults(func=cmd_plot, parser=p)

    r = sub.add_parser("table", help="the whole experiment: 3 datasets x 3 methods, one loss table")
    r.add_argument("--outdir", type=Path, default=Path("results"))
    r.add_argument("--seed", type=int, default=0, help="dataset and training seed")
    r.add_argument("--steps", type=int, help=f"training steps (default: {pipeline.QUICK_TRAIN['steps']} with "
                   f"--quick, else {TrainConfig.steps})")
    r.add_argument("--sampler-steps", "--M", type=int, default=SamplerConfig.n_steps, help="sampler steps")
    r.add_argument("--quick", action=btrue, default=False, help="tiny datasets and short training, for smoke testing")
    r.add_argument("--reference", action=btrue, default=True, help="append previously reported losses")
    r.add_argument("--config")
    r.set_defaults(func=cmd_table, parser=r)

    st = sub.add_parser("stress", help="speed-limit stress report: the worst |v|/c of extreme runs")
    st.add_argument("--factor", type=float, default=STRESS_FACTOR, help="force and head-output scale factor")
    st.add_argument("--points", type=int, default=48, help="trajectories per simulator run (samplers: at most 16)")
    st.add_argument("--seeds", type=_ranged(int, 0), default=6, help="random force heads to try")
    st.add_argument("--config")
    st.set_defaults(func=cmd_stress, parser=st)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # config values become the subcommand's defaults, so explicit flags still win
            config = _config_defaults(args.parser, args.config)
            args.parser.set_defaults(**config)
            args = parser.parse_args(argv)
            args.given = {**{key: f"config key {key!r}" for key in config}, **getattr(args, "given", {})}
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
