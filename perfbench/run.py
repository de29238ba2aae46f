#!/usr/bin/env python3
"""form-lab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Workloads are ``table``, ``dataset-io`` and ``sample-sweep`` (see
workloads.py for what each does and why).  A run imports ``form_lab`` from
``src/``, sets up its inputs several times (``setup_s`` is the import time
plus the median set-up), runs one untimed warm-up, then repeats whole passes
until ``--seconds`` would be exceeded, never fewer than two.  With
``--trace 1`` passes alternate untraced and traced; the traced ones wrap the
program's public functions (workloads.TRACE_SITES) and give the per-layer
metrics, and the untraced ones give the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Working files go to ``.perfbench_out/`` in the repository and are removed at
exit; a JSON summary of the run (machine record, per-operation timings,
output digests and, when traced, every span) is left there.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 2

# name -> (unit, better); what each rate counts depends on the workload (Workload.rate_labels)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "primary_per_s": ("1/s", "higher"),
    "secondary_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
}


class Recorder:
    """Times and counts the operations of one pass, and the correctness gates it checks.

    A raised error and a failed gate each count as one failed operation.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.work: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hasher = hashlib.sha256()

    def call(self, op: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.samples[op].append(time.perf_counter() - start)

    def gate(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"gate {name} failed: {detail}")
        return ok

    def error(self, exc: BaseException) -> None:
        self.failed += 1
        self.problems.append(f"{type(exc).__name__}: {exc}")

    def seconds(self, *ops: str) -> float:
        return sum(sum(self.samples.get(op, ())) for op in ops)


def median_pass(recs: list[Recorder]) -> Recorder:
    """One pass made of each call's median duration over ``recs``.

    Every pass makes the same calls in the same order, so the i-th sample of
    an operation is the same call in each pass.  Taking medians call by call
    keeps a transient stall in one pass from moving a rate.
    """
    merged = Recorder()
    merged.work = recs[0].work
    for op in recs[0].samples:
        merged.samples[op] = [statistics.median(d) for d in zip(*(r.samples[op] for r in recs))]
    return merged


@dataclass
class PassResult:
    rec: Recorder
    wall: float
    cpu: float
    traced: bool
    ok: bool
    digests: dict[str, str] | None = None
    spans: list = field(default_factory=list)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def run_pass(workload, pass_id: int, sites=None) -> PassResult:
    """One pass; traced when ``sites`` is given.  An exception fails the pass, not the run."""
    rec = Recorder()
    tracer = None
    if sites is not None:
        tracer = tracing.Tracer()
        tracer.pass_id = pass_id
        tracer.install(sites)
    try:
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                workload.run_pass(rec)
            else:
                with tracer.span("pass"):
                    workload.run_pass(rec)
            ok = True
        except Exception as exc:  # counted as a failed operation; the remaining passes still run
            rec.error(exc)
            ok = False
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    result = PassResult(rec, wall, cpu, traced=tracer is not None, ok=ok, spans=tracer.spans if tracer else [])
    if ok:
        result.digests = workload.output_digests(rec)
    return result


def measure(workload, seconds: float, sites=None) -> list[PassResult]:
    """Passes until the next one would end after ``seconds``; alternate untraced/traced if ``sites``."""
    results: list[PassResult] = []
    begin = time.perf_counter()
    while True:
        traced = sites is not None and len(results) % 2 == 1
        results.append(run_pass(workload, len(results), sites if traced else None))
        elapsed = time.perf_counter() - begin
        if len(results) >= MIN_PASSES and elapsed + statistics.median(r.wall for r in results) > seconds:
            return results


def usable_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def machine_record(workers: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode; the record is informational
        blas = "unknown"
    return {
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "FORM_LAB_THREADS": os.environ.get("FORM_LAB_THREADS"),
        "generate_workers": workers,
        "platform": platform.platform(),
    }


def _tail_text(summary: dict) -> str:
    tail = summary["tail"]
    return "none (fewer than 20 samples)" if tail is None else f"p{tail['p']:g} {tail['value']:.6f} s"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the form_lab package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    nproc = usable_cpus()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, nproc)
        setup_times = []
        try:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
            workloads.warm_up(workdir, args.seed, nproc)
        except Exception as exc:  # nothing can be measured; report why and give no result
            traceback.print_exc()
            print(f"perfbench: set-up failed at seed {args.seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        results = measure(workload, args.seconds, workloads.TRACE_SITES if args.trace else None)
        final = Recorder()
        workload.final_gates(final)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for r in results if r.ok and r.traced == bool(args.trace)]
    untimed_ok = [r for r in results if r.ok and not r.traced]
    if not timed or (args.trace and not untimed_ok):
        for r in results:
            for problem in r.rec.problems:
                print(f"perfbench: {problem}", file=sys.stderr)
        print("perfbench: no pass completed; no result", file=sys.stderr)
        return 1

    distinct = {json.dumps(r.digests, sort_keys=True) for r in results if r.ok}
    final.gate("digests-agree", len(distinct) == 1, f"outputs differ between passes ({len(distinct)} variants)")
    attempted = final.attempted + sum(r.rec.attempted for r in results)
    failed = final.failed + sum(r.rec.failed for r in results)
    problems = final.problems + [p for r in results for p in r.rec.problems]

    if args.trace:
        metrics = workloads.layer_metrics(workload, results, ROOT / "src" / "form_lab")
        units = {name: unit for name, unit, _, _ in workloads.PER_LAYER}
        notes = {name: moves for name, _, _, moves in workloads.PER_LAYER}
    else:
        primary, secondary = workload.rates(median_pass([r.rec for r in timed]))
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "pass_s": statistics.median(r.wall for r in timed),
            "primary_per_s": primary,
            "secondary_per_s": secondary,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "success_rate": (attempted - failed) / attempted,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        aliases = {"pass_s": workload.pass_label, "primary_per_s": workload.rate_labels[0],
                   "secondary_per_s": workload.rate_labels[1]}
        notes = {name: f"= {alias}" for name, alias in aliases.items()}

    ops = defaultdict(list)
    for r in timed:
        for op, samples in r.rec.samples.items():
            ops[op].extend(samples)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(nproc),
        "settings": {name: getattr(workloads, name) for name in ("TRAIN_STEPS", "BATCH_SIZE", "EVAL_M", "SWEEP_M")},
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "passes": [
            {"wall_s": r.wall, "cpu_s": r.cpu, "traced": r.traced, "ok": r.ok, "work": dict(r.rec.work)}
            for r in results
        ],
        "digests": timed[-1].digests,
        "ops": {op: stats.summarize(samples) for op, samples in sorted(ops.items())},
        "pass_wall": stats.summarize(r.wall for r in timed),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(summary["machine"], sort_keys=True))
    print(f"setup import {import_s:.4f} s, {SETUP_REPEATS} set-ups " + " ".join(f"{t:.4f}" for t in setup_times) + " s")
    for i, r in enumerate(results):
        kind = "traced" if r.traced else "untraced"
        print(f"pass {i} {kind} wall {r.wall:.4f} s cpu {r.cpu:.4f} s {'ok' if r.ok else 'FAILED'}")
    wall = summary["pass_wall"]
    print(f"pass wall median {wall['median']:.4f} s, tail {_tail_text(wall)}, n={wall['n']}")
    for name, digest in timed[-1].digests.items():
        print(f"sha256 {digest} {name}")
    for op, s in summary["ops"].items():
        print(f"op {op} median {s['median']:.6f} s, tail {_tail_text(s)}, n={s['n']}")
    for problem in problems:
        print(f"problem {problem}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted operations and gates)")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]} {notes.get(name, '')}".rstrip())

    OUT.mkdir(exist_ok=True)
    if args.trace:
        summary["spans"] = [
            [s.id, s.name, s.start, s.end, s.parent, s.pass_id] for r in results for s in r.spans
        ]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
