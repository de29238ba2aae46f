"""The form-lab workloads, the call sites the traced run wraps, and layer probes.

Every input derives from the run seed: ``DatasetSpec.seed`` and
``TrainConfig.seed`` are the seed itself, and the random force heads of the
stress family are spawned from it.  The program only ever receives the specs,
records and models built here.  Public functions are always called through
their module (``training.train``, not a local alias), so the wrappers the
traced run installs at those attributes see every call.

Workloads, and why each exists:

* ``table`` - scripts/run_table.py's 9-cell experiment, same calls in the
  same order, with a fixed training budget of ``TRAIN_STEPS`` steps per model
  (run_table.py's default is 20000, which would not fit the run time).  Loads
  ``formats`` (dataset writes) and ``training``/``neural``; sampling,
  evaluation and figures are a few percent.
* ``dataset-io`` - what ``form-lab gen-data`` does (generate, write) and what
  every train/sample/eval invocation pays first (read, stack), plus a
  checkpoint round trip of the 9 models built in set-up.  Writes and reads
  are timed apart because a format change can trade one for the other.
* ``sample-sweep`` - the 9 models from set-up sampled at M in {10, 100, 1000}
  from every source point, plus the speed-limit stress families of
  scripts/stress_speed_limit.py.  Only sampling and the ``neural`` forward run
  here, at shapes training never uses (one row per step for the time-only F
  head, 200-1000 rows for u1/u2).
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from form_lab import datasets, evaluate, figures, formats, neural, sampling, training
from form_lab.datasets import KINDS, DatasetSpec
from form_lab.dynamics import DEFAULT_UNITS
from form_lab.errors import DegenerateVelocityError
from form_lab.relativity import DEFAULT_PHYSICS
from form_lab.sampling import SamplerConfig
from form_lab.training import METHODS, TrainConfig, TrainedModel

import tracing

TRAIN_STEPS = 300  # per model, every workload; the ranking gate holds with a wide margin here
BATCH_SIZE = 128
DATASET_STEPS = 200
EVAL_M = 100
SWEEP_M = (10, 100, 1000)
STRESS_FACTOR = 100.0
STRESS_POINTS = 16  # as scripts/stress_speed_limit.py
RANDOM_HEADS = 6
SAMPLER_NAMES = {"o1": "sample_o1", "o1o2": "sample_o1o2", "form": "sample_form"}
C = DEFAULT_PHYSICS.c


def _train_label(records, config, *args, **kwargs) -> str:
    return f"training.train.{config.method}"


# (module, attribute, span name): every import site the pipeline calls through.
TRACE_SITES = (
    ("form_lab.datasets", "generate", "datasets.generate"),
    ("form_lab.datasets", "simulate_batch", "dynamics.simulate_batch"),
    ("form_lab.dynamics", "integrate_fixed_grid", "ode.integrate_fixed_grid"),
    ("form_lab.formats", "write_dataset", "formats.write_dataset"),
    ("form_lab.formats", "read_dataset", "formats.read_dataset"),
    ("form_lab.formats", "write_checkpoint", "formats.write_checkpoint"),
    ("form_lab.formats", "read_checkpoint", "formats.read_checkpoint"),
    ("form_lab.training", "stack_records", "training.stack_records"),
    ("form_lab.training", "train", _train_label),
    ("form_lab.training", "mlp_forward", "neural.mlp_forward.train"),
    ("form_lab.training", "mlp_backward", "neural.mlp_backward"),
    ("form_lab.training", "adam_step", "neural.adam_step"),
    ("form_lab.sampling", "mlp_forward", "neural.mlp_forward.sample"),
    ("form_lab.sampling", "sample_o1", "sampling.sample_o1"),
    ("form_lab.sampling", "sample_o1o2", "sampling.sample_o1o2"),
    ("form_lab.sampling", "sample_form", "sampling.sample_form"),
    ("form_lab.sampling", "force_path", "sampling.force_path"),
    ("form_lab.evaluate", "sample_o1", "sampling.sample_o1"),
    ("form_lab.evaluate", "sample_o1o2", "sampling.sample_o1o2"),
    ("form_lab.evaluate", "sample_form", "sampling.sample_form"),
    ("form_lab.evaluate", "evaluate_model", "evaluate.evaluate_model"),
    ("form_lab.figures", "scatter_svg", "figures.scatter_svg"),
)


def file_digests(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of the bytes, for every file under ``root``."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[path.relative_to(root).as_posix()] = h.hexdigest()
    return out


def records_equal(a, b) -> bool:
    fields = ("times", "x", "v", "a", "f", "f_par", "f_perp")
    return len(a) == len(b) and all(
        ra.index == rb.index and all(np.array_equal(getattr(ra, f), getattr(rb, f)) for f in fields)
        for ra, rb in zip(a, b)
    )


def models_equal(a: TrainedModel, b: TrainedModel) -> bool:
    return (
        a.heads.keys() == b.heads.keys()
        and all(
            np.array_equal(p, q)
            for name in a.heads
            for p, q in zip(a.heads[name].weights + a.heads[name].biases, b.heads[name].weights + b.heads[name].biases)
        )
        and np.array_equal(a.loss_curve, b.loss_curve)
    )


def default_specs(seed: int) -> list[DatasetSpec]:
    return [DatasetSpec(kind=kind, n_steps=DATASET_STEPS, seed=seed) for kind in KINDS]


def train_config(method: str, seed: int, steps: int = TRAIN_STEPS) -> TrainConfig:
    return TrainConfig(method=method, steps=steps, batch_size=BATCH_SIZE, seed=seed)


def warm_up(workdir: Path, seed: int, workers: int) -> None:
    """Call each public function once on tiny inputs, so thread pools and lazy set-up are not timed."""
    spec = DatasetSpec(kind="onedot", n_points=24, n_steps=20, seed=seed)
    records = datasets.generate(spec, max_workers=workers)
    path = workdir / "warmup" / "onedot.ndjson"
    formats.write_dataset(path, records, spec, DEFAULT_PHYSICS, DEFAULT_UNITS)
    _, loaded = formats.read_dataset(path)
    training.stack_records(loaded)
    train_records, heldout = datasets.holdout_split(loaded)
    for method in METHODS:
        model = training.train(train_records, train_config(method, seed, steps=20), dataset_info=spec.to_dict())
        formats.write_checkpoint(path.with_name(f"{method}.ndjson"), model)
        formats.read_checkpoint(path.with_name(f"{method}.ndjson"))
        evaluate.evaluate_model(model, heldout, sampler=SamplerConfig(n_steps=10))
    figures.scatter_svg(np.stack([r.x0 for r in records]), np.stack([r.endpoint for r in records]), [records[0].x])
    shutil.rmtree(path.parent)


def train_models(specs, seed: int, workers: int):
    """Generate each dataset and train the three methods on its training split.

    Returns ([(kind, method, model)], {kind: every source point of the dataset}).
    """
    models, sources = [], {}
    for spec in specs:
        records = datasets.generate(spec, max_workers=workers)
        train_records, _ = datasets.holdout_split(records)
        sources[spec.kind] = np.stack([r.x0 for r in records])
        for method in METHODS:
            model = training.train(train_records, train_config(method, seed), dataset_info=spec.to_dict())
            models.append((spec.kind, method, model))
    return models, sources


class Workload:
    """One workload: set-up, a pass over the program, its rates, outputs and gates.

    ``pass_label`` and ``rate_labels`` name what ``pass_s``, ``primary_per_s``
    and ``secondary_per_s`` measure on this workload.
    """

    name = ""
    pass_label = "pass_s"
    rate_labels = ("", "")

    def __init__(self, seed: int, workdir: Path, workers: int) -> None:
        self.seed, self.workdir, self.workers = seed, workdir, workers

    def setup(self) -> None:
        pass

    def run_pass(self, rec) -> None:
        raise NotImplementedError

    def rates(self, rec) -> tuple[float, float]:
        """(primary, secondary) work per second, from one pass's recorded calls and work counts."""
        raise NotImplementedError

    def output_digests(self, rec) -> dict[str, str]:
        """sha256 of each output of the pass just run."""
        return file_digests(self.workdir / "out")

    def final_gates(self, rec) -> None:
        pass


class Table(Workload):
    name = "table"
    pass_label = "table_s"
    rate_labels = ("train_steps_per_s", "gen_traj_per_s")

    def setup(self) -> None:
        self.specs = default_specs(self.seed)
        self.configs = [train_config(method, self.seed) for method in METHODS]
        self.sampler = SamplerConfig(n_steps=EVAL_M)
        # exactly the metadata scripts/run_table.py --seed S --steps TRAIN_STEPS records
        self.metadata = {
            "seed": self.seed,
            "train_steps": TRAIN_STEPS,
            "batch_size": BATCH_SIZE,
            "sampler_steps": EVAL_M,
            "dataset_steps": DATASET_STEPS,
            "quick": False,
        }
        self.metadata["digest"] = evaluate.config_digest(self.metadata)

    def run_pass(self, rec) -> None:
        out = self.workdir / "out"
        cells = []
        for spec in self.specs:
            kind = spec.kind
            records = rec.call("generate", datasets.generate, spec, max_workers=self.workers)
            path = out / "datasets" / f"{kind}.ndjson"
            rec.call("write_dataset", formats.write_dataset, path, records, spec, DEFAULT_PHYSICS, DEFAULT_UNITS)
            rec.work["traj"] += len(records)
            rec.work["dataset_bytes"] += path.stat().st_size
            train_records, heldout = rec.call("holdout_split", datasets.holdout_split, records)

            shown = records[:: max(1, len(records) // 12)][:12]
            svg = rec.call(
                "scatter_svg",
                figures.scatter_svg,
                np.stack([r.x0 for r in records]),
                np.stack([r.endpoint for r in records]),
                [r.x for r in shown],
                title=f"{kind} trajectories",
            )
            rec.call("write_svg", figures.write_svg, out / "figures" / f"{kind}-data.svg", svg)

            x0 = np.stack([r.x0 for r in heldout])
            heldout_targets = np.stack([r.endpoint for r in heldout])
            for config in self.configs:
                method = config.method
                model = rec.call("train", training.train, train_records, config, dataset_info=spec.to_dict())
                rec.work["train_steps"] += config.steps
                rec.work[f"train_steps.{method}"] += config.steps
                ckpt = out / "checkpoints" / f"{kind}-{method}.ndjson"
                rec.call("write_checkpoint", formats.write_checkpoint, ckpt, model)
                rec.work["checkpoint_bytes"] += ckpt.stat().st_size
                cells.append(
                    rec.call(
                        "evaluate_model", evaluate.evaluate_model, model, heldout, sampler=self.sampler, dataset_name=kind
                    )
                )
                samples = rec.call(method, getattr(sampling, SAMPLER_NAMES[method]), model, x0, self.sampler)
                shown_paths = [samples.x[:, i, :] for i in range(0, x0.shape[0], max(1, x0.shape[0] // 8))][:8]
                svg = rec.call(
                    "scatter_svg",
                    figures.scatter_svg,
                    samples.endpoint,
                    heldout_targets,
                    shown_paths,
                    title=f"{kind}: {method} samples",
                )
                rec.call("write_svg", figures.write_svg, out / "figures" / f"{kind}-{method}.svg", svg)

        report = rec.call("make_report", evaluate.make_report, cells, metadata=self.metadata)
        rec.call("write_report", formats.write_report, out / "report.json", report)
        table = rec.call("render_table", evaluate.render_table, report, include_reference=True)
        (out / "table.txt").write_text(table + "\n", encoding="utf-8")

        loss = {(c.dataset, c.method): c.loss for c in cells}
        for kind in KINDS:
            form, o1o2, o1 = loss[(kind, "form")], loss[(kind, "o1o2")], loss[(kind, "o1")]
            rec.gate(
                f"ranking:{kind}",
                form < o1o2 and form < 0.5 * o1,
                f"ForM {form!r} vs O1+O2 {o1o2!r}, O1 {o1!r}",
            )

    def rates(self, rec) -> tuple[float, float]:
        return (
            rec.work["train_steps"] / rec.seconds("train"),
            rec.work["traj"] / rec.seconds("generate", "write_dataset"),
        )


class DatasetIO(Workload):
    name = "dataset-io"
    rate_labels = ("gen_traj_per_s", "load_traj_per_s")

    def setup(self) -> None:
        self.specs = default_specs(self.seed)
        self.models, _ = train_models(self.specs, self.seed, self.workers)

    def _dataset_path(self, spec: DatasetSpec) -> Path:
        return self.workdir / "out" / "datasets" / f"{spec.kind}.ndjson"

    def run_pass(self, rec) -> None:
        for spec in self.specs:
            records = rec.call("generate", datasets.generate, spec, max_workers=self.workers)
            path = self._dataset_path(spec)
            rec.call("write_dataset", formats.write_dataset, path, records, spec, DEFAULT_PHYSICS, DEFAULT_UNITS)
            rec.work["traj"] += len(records)
            rec.work["dataset_bytes"] += path.stat().st_size
            _, loaded = rec.call("read_dataset", formats.read_dataset, path)
            rec.call("stack_records", training.stack_records, loaded)
            rec.work["traj_loaded"] += len(loaded)
            rec.gate(f"read-back:{spec.kind}", records_equal(records, loaded), "records read back differ from generate()'s")
        for kind, method, model in self.models:
            path = self.workdir / "out" / "checkpoints" / f"{kind}-{method}.ndjson"
            rec.call("write_checkpoint", formats.write_checkpoint, path, model)
            rec.work["checkpoint_bytes"] += path.stat().st_size
            loaded = rec.call("read_checkpoint", formats.read_checkpoint, path)
            rec.gate(f"checkpoint:{kind}-{method}", models_equal(model, loaded), "checkpoint read back differs")

    def final_gates(self, rec) -> None:
        """Rewriting the records read back reproduces the file byte for byte.

        Checked once per run on the smallest dataset (about 1 s); doing it for
        all three would add about 11 s to every run.  Every pass already checks
        that the records read back are bit-equal to generate()'s, for every kind.
        """
        spec = self.specs[KINDS.index("onedot")]
        path = self._dataset_path(spec)
        rewrite = path.with_name(f"{spec.kind}.rewrite.ndjson")
        _, loaded = rec.call("read_dataset", formats.read_dataset, path)
        rec.call("write_dataset", formats.write_dataset, rewrite, loaded, spec, DEFAULT_PHYSICS, DEFAULT_UNITS)
        rec.gate(f"rewrite:{spec.kind}", rewrite.read_bytes() == path.read_bytes(), "rewrite is not byte-identical")
        rewrite.unlink()

    def rates(self, rec) -> tuple[float, float]:
        return (
            rec.work["traj"] / rec.seconds("generate", "write_dataset"),
            rec.work["traj_loaded"] / rec.seconds("read_dataset", "stack_records"),
        )


class SampleSweep(Workload):
    name = "sample-sweep"
    rate_labels = ("sample_point_steps_per_s", "force_point_steps_per_s")

    def setup(self) -> None:
        self.models, self.sources = train_models(default_specs(self.seed), self.seed, self.workers)
        self.stress = []
        for kind in KINDS:
            sspec = datasets.stress_spec(DatasetSpec(kind=kind, n_points=48, seed=self.seed), factor=STRESS_FACTOR)
            schedule = datasets.force_schedule_for(sspec)
            x0 = datasets.source_points(sspec, list(range(STRESS_POINTS)))

            def components(x, t, schedule=schedule):
                return schedule.f_par(t), schedule.f_perp(t)

            self.stress.append((kind, sspec, components, x0, datasets.initial_velocity(sspec, x0)))

        onedot = DatasetSpec(kind="onedot", n_points=STRESS_POINTS, seed=self.seed)
        self.random_x0 = datasets.source_points(onedot, list(range(STRESS_POINTS)))
        self.random_heads = []
        for head_seed in np.random.SeedSequence(self.seed).spawn(RANDOM_HEADS):
            head = neural.mlp_init((1, 64, 64, 2), seed=head_seed)
            weights = head.weights[:-1] + (head.weights[-1] * STRESS_FACTOR,)
            self.random_heads.append(
                TrainedModel(
                    method="form",
                    heads={"F": neural.MlpParams(head.layer_dims, weights, head.biases)},
                    duration=1.0,
                    physics=DEFAULT_PHYSICS,
                    train_config=TrainConfig(method="form"),
                    dataset_info=onedot.to_dict(),
                )
            )

    @staticmethod
    def _check(rec, label: str, path) -> float:
        """Gate: the path is finite and, for force samplers, every speed is below c; returns max |v|/c."""
        finite = bool(np.all(np.isfinite(path.x))) and (path.v is None or bool(np.all(np.isfinite(path.v))))
        ratio = 0.0 if path.v is None else float(np.sqrt(np.max(np.sum(path.v * path.v, axis=-1)))) / C
        rec.gate(label, finite and ratio < 1.0, f"finite={finite}, max |v|/c = {ratio!r}")
        rec.hasher.update(path.endpoint.tobytes())
        return ratio

    def run_pass(self, rec) -> None:
        for kind, method, model in self.models:
            x0 = self.sources[kind]
            for m in SWEEP_M:
                path = rec.call(method, getattr(sampling, SAMPLER_NAMES[method]), model, x0, SamplerConfig(n_steps=m))
                rec.work["sweep_point_steps"] += len(x0) * m
                if method == "form":
                    rec.work["force_point_steps"] += len(x0) * m
                self._check(rec, f"{kind}-{method}-M{m}", path)

        stress_max = 0.0
        for kind, sspec, components, x0, v0 in self.stress:
            for m in SWEEP_M:
                path = rec.call(
                    "force_path", sampling.force_path, components, x0, v0, sspec.duration, m, handedness=sspec.handedness
                )
                rec.work["force_point_steps"] += len(x0) * m
                stress_max = max(stress_max, self._check(rec, f"stress:{kind}-M{m}", path))
        rec.gate("stress-near-c", stress_max > 0.99, f"100x stress peaked at {stress_max!r} c")

        for i, model in enumerate(self.random_heads):
            for m in SWEEP_M:
                try:
                    path = rec.call("random_head", sampling.sample_form, model, self.random_x0, SamplerConfig(n_steps=m))
                except DegenerateVelocityError:  # braking through rest is the documented outcome
                    rec.work["braked"] += 1
                    rec.hasher.update(b"braked")
                    continue
                self._check(rec, f"random-head:{i}-M{m}", path)

    def output_digests(self, rec) -> dict[str, str]:
        return {"sampled-endpoints": rec.hasher.hexdigest()}

    def rates(self, rec) -> tuple[float, float]:
        return (
            rec.work["sweep_point_steps"] / rec.seconds("o1", "o1o2", "form"),
            rec.work["force_point_steps"] / rec.seconds("form", "force_path"),
        )


WORKLOADS = {w.name: w for w in (Table, DatasetIO, SampleSweep)}

# --- layer probes ------------------------------------------------------------

HEADS = {"u1": (3, 64, 64, 2), "u2": (5, 64, 64, 2), "F": (1, 64, 64, 2)}
PROBE_BATCH = 128


def flop_per_step(dims, batch: int = PROBE_BATCH) -> int:
    """Arithmetic of one training step of a head: matmuls and Adam.

    The forward pass costs 2*B*sum(in*out); ``mlp_backward`` repeats it and
    adds weight and input gradients of the same size, so a step is four
    times that, plus 14 operations per parameter for Adam.
    """
    matmul = 2 * batch * sum(i * o for i, o in zip(dims[:-1], dims[1:]))
    params = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
    return 4 * matmul + 14 * params


def _per_call_us(fn, calls: int = 40, blocks: int = 5) -> float:
    means = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - start) / calls)
    return sorted(means)[blocks // 2] * 1e6


def head_probe(seed: int) -> dict[str, float]:
    """Per-call time of forward, backward and Adam at batch 128 for each head shape."""
    out = {}
    for index, (name, dims) in enumerate(HEADS.items()):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        params = neural.mlp_init(dims, rng)
        x = rng.normal(size=(PROBE_BATCH, dims[0]))
        grad_out = rng.normal(size=(PROBE_BATCH, dims[-1]))
        grads, _ = neural.mlp_backward(params, x, grad_out)
        state = neural.adam_init(params)
        out[f"neural.{name}.forward_us"] = _per_call_us(lambda: neural.mlp_forward(params, x))
        out[f"neural.{name}.backward_us"] = _per_call_us(lambda: neural.mlp_backward(params, x, grad_out))
        out[f"neural.{name}.adam_us"] = _per_call_us(lambda: neural.adam_step(params, grads, state))
        out[f"neural.{name}.flop_per_step"] = flop_per_step(dims)
    return out


MODULES = (
    "cli", "datasets", "dynamics", "errors", "evaluate", "figures", "formats",
    "interpolants", "neural", "ode", "relativity", "sampling", "training",
)


def src_lines(package_dir: Path) -> dict[str, int]:
    """Non-blank source lines per form_lab module (0 if gone) and for the whole package."""
    def count(path: Path) -> int:
        return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())

    out = {f"{m}.src_lines": count(package_dir / f"{m}.py") if (package_dir / f"{m}.py").exists() else 0 for m in MODULES}
    out["form_lab.src_lines"] = sum(count(p) for p in package_dir.glob("*.py"))
    return out


# --- per-layer metrics of the traced run ---------------------------------------

GEN = "primary_per_s (gen_traj_per_s) on dataset-io; setup_s everywhere; ~3% of pass_s (table_s) on table"
WRITE = "primary_per_s (gen_traj_per_s) on dataset-io; pass_s (table_s) on table"
READ = "secondary_per_s (load_traj_per_s) and peak_rss_mb on dataset-io"
CKPT = "pass_s (table_s) on table; pass_s on dataset-io"
STACK = "secondary_per_s (load_traj_per_s) on dataset-io"
TRAIN = "primary_per_s (train_steps_per_s) and pass_s (table_s) on table"
SAMPLE = "primary_per_s and secondary_per_s on sample-sweep; no change to pass_s (table_s) on table"
TABLE = "pass_s (table_s) on table"
NOT_GATED = "none; recorded beside the end-to-end metrics"
SAMPLING = ("sample_o1", "sample_o1o2", "sample_form", "force_path")

# (name, unit, better, which end-to-end metric it should move, on which workload)
PER_LAYER = (
    ("datasets.generate.busy_s", "s", "lower", GEN),
    ("datasets.generate.traj", "count", "higher", GEN),
    ("dynamics.simulate_batch.busy_s", "s", "lower", GEN),
    ("ode.integrate_fixed_grid.busy_s", "s", "lower", GEN),
    ("formats.write_dataset.busy_s", "s", "lower", WRITE),
    ("formats.write_dataset.bytes", "bytes", "lower", WRITE),
    ("formats.dataset.bytes_per_traj", "bytes", "lower", WRITE),
    ("formats.read_dataset.busy_s", "s", "lower", READ),
    ("formats.write_checkpoint.busy_s", "s", "lower", CKPT),
    ("formats.write_checkpoint.bytes", "bytes", "lower", CKPT),
    ("formats.read_checkpoint.busy_s", "s", "lower", CKPT),
    ("training.stack_records.busy_s", "s", "lower", STACK),
    *((f"training.train.{m}.us_per_step", "us", "lower", TRAIN) for m in METHODS),
    ("training.train.self_s", "s", "lower", TRAIN),
    ("neural.mlp_forward.train.busy_s", "s", "lower", TRAIN),
    ("neural.mlp_forward.train.calls", "count", "lower", TRAIN),
    ("neural.mlp_backward.busy_s", "s", "lower", TRAIN),
    ("neural.mlp_backward.calls", "count", "lower", TRAIN),
    ("neural.adam_step.busy_s", "s", "lower", TRAIN),
    ("neural.adam_step.calls", "count", "lower", TRAIN),
    ("neural.mlp_forward.sample.busy_s", "s", "lower", SAMPLE),
    ("neural.mlp_forward.sample.calls", "count", "lower", SAMPLE),
    *((f"sampling.{f}.{k}", "s", "lower", SAMPLE) for f in SAMPLING for k in ("busy_s", "self_s")),
    ("evaluate.evaluate_model.busy_s", "s", "lower", TABLE),
    ("figures.scatter_svg.busy_s", "s", "lower", TABLE),
    ("process.cpu_s", "s", "lower", "pass_s on every workload: CPU time beside wall time"),
    ("trace.overhead_s", "s", "lower", NOT_GATED),
    ("trace.overhead_share", "ratio", "lower", NOT_GATED),
    ("trace.unattributed_s", "s", "lower", NOT_GATED),
    *((f"neural.{h}.{k}", unit, "lower", "primary_per_s (train_steps_per_s) on table")
      for h in HEADS for k, unit in (("forward_us", "us"), ("backward_us", "us"), ("adam_us", "us"), ("flop_per_step", "count"))),
    *((f"{m}.src_lines", "lines", "lower", NOT_GATED) for m in (*MODULES, "form_lab")),
)


def layer_metrics(workload: Workload, results, package_dir: Path) -> dict[str, float]:
    """Per-pass means over the traced passes, plus overhead against the untraced ones and the probes."""
    traced = [r for r in results if r.ok and r.traced]
    plain = [r for r in results if r.ok and not r.traced]
    n = len(traced)
    layers = tracing.aggregate([s for r in traced for s in r.spans])
    work: Counter = Counter()
    for r in traced:
        work.update(r.rec.work)

    def per_pass(name: str, key: str = "busy_s") -> float:
        return layers.get(name, {}).get(key, 0) / n

    values: dict[str, float] = {}
    for name in (
        "datasets.generate", "dynamics.simulate_batch", "ode.integrate_fixed_grid",
        "formats.write_dataset", "formats.read_dataset", "formats.write_checkpoint", "formats.read_checkpoint",
        "training.stack_records", "neural.mlp_forward.train", "neural.mlp_backward", "neural.adam_step",
        "neural.mlp_forward.sample", "evaluate.evaluate_model", "figures.scatter_svg",
    ):
        values[f"{name}.busy_s"] = per_pass(name)
        values[f"{name}.calls"] = per_pass(name, "calls")
    for f in SAMPLING:
        values[f"sampling.{f}.busy_s"] = per_pass(f"sampling.{f}")
        values[f"sampling.{f}.self_s"] = per_pass(f"sampling.{f}", "self_s")
    for m in METHODS:
        steps = work[f"train_steps.{m}"]
        values[f"training.train.{m}.us_per_step"] = 1e6 * layers.get(f"training.train.{m}", {}).get("busy_s", 0) / steps if steps else 0.0
    values["training.train.self_s"] = sum(per_pass(f"training.train.{m}", "self_s") for m in METHODS)
    values["datasets.generate.traj"] = work["traj"] / n
    values["formats.write_dataset.bytes"] = work["dataset_bytes"] / n
    values["formats.dataset.bytes_per_traj"] = work["dataset_bytes"] / work["traj"] if work["traj"] else 0.0
    values["formats.write_checkpoint.bytes"] = work["checkpoint_bytes"] / n

    plain_wall = statistics.median(r.wall for r in plain)
    values["process.cpu_s"] = statistics.median(r.cpu for r in plain)
    values["trace.overhead_s"] = statistics.median(r.wall for r in traced) - plain_wall
    values["trace.overhead_share"] = values["trace.overhead_s"] / plain_wall
    values["trace.unattributed_s"] = per_pass("pass", "self_s")
    values.update(head_probe(workload.seed))
    values.update(src_lines(package_dir))
    return {name: values[name] for name, *_ in PER_LAYER}
