#!/usr/bin/env python3
"""End-to-end experiment driver: datasets -> models -> loss table + figures.

Runs ``form_lab.pipeline.run_table`` into ``--outdir`` (datasets,
checkpoints, figures and ``report.json``; see its docstring) and renders the
comparison table into ``<outdir>/table.txt``.

The full run (defaults) takes about 100 s on a 2-CPU machine; pass --quick
for a small smoke-test configuration that finishes in about 2 s.

Exit codes are ``form-lab``'s: 2 for a bad flag, a file problem or a size
beyond memory, 3 for a numerical failure, each with one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from form_lab.datasets import KINDS, DatasetSpec
from form_lab.errors import DegenerateVelocityError, NonFiniteError, SpeedLimitError
from form_lab.evaluate import render_table
from form_lab.formats import write_text
from form_lab.pipeline import QUICK_TRAIN, run_table
from form_lab.sampling import SamplerConfig
from form_lab.training import METHODS, TrainConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=0, help="dataset and training seed")
    parser.add_argument(
        "--steps",
        type=int,
        help=f"training steps per model (default: {QUICK_TRAIN['steps']} with --quick, else {TrainConfig.steps})",
    )
    parser.add_argument("--M", type=int, default=SamplerConfig.n_steps, help="sampler steps at evaluation time")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny datasets and short training, for smoke testing the pipeline",
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="omit the previously reported reference losses from the rendered table",
    )
    args = parser.parse_args(argv)
    t0 = time.monotonic()

    # Each flag's own dataclass checks it first, so a bad value is named by its flag.
    flag_checks = {
        "--seed": lambda: DatasetSpec(kind=KINDS[0], seed=args.seed),
        "--steps": lambda: args.steps is None or TrainConfig(method=METHODS[0], steps=args.steps),
        "--M": lambda: SamplerConfig(n_steps=args.M),
    }
    for flag, check in flag_checks.items():
        try:
            check()
        except ValueError as e:
            parser.error(f"{flag}: {e}")

    try:  # run_table builds every config before it writes, so its ValueError comes with nothing written
        run = run_table(args.outdir, seed=args.seed, train_steps=args.steps, sampler_steps=args.M, quick=args.quick)
        table = render_table(run["report"], include_reference=not args.no_reference)
        write_text(args.outdir / "table.txt", [table + "\n"])
    except ValueError as e:
        parser.error(str(e))
    except (OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpeedLimitError, DegenerateVelocityError, NonFiniteError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    print(table)
    print(f"\nwrote {args.outdir}/report.json and {args.outdir}/table.txt in {time.monotonic() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
