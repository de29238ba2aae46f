#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload table --seeds 1 2 3 4 5 6 7 8 9 10

Runs one after another, with BENCHMARK.json's ``run_seconds``.  For each
metric it prints the median, the quartile spread (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, and the metric's bound.
Raw values are saved to ``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result, {result['failed']} failed", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) >= 2 else float("nan")
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{name}: median {statistics.median(vals):.6g} spread {spread:.4f} bound {bounds[name]} ({flag} vs bound/3)")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps({"seeds": args.seeds, "values": values}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
