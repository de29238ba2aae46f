#!/usr/bin/env python3
"""End-to-end experiment driver: ``form-lab table`` run from a checkout.

Runs ``form_lab.pipeline.run_table`` into ``--outdir`` (datasets,
checkpoints, figures and ``report.json``; see its docstring) and renders the
comparison table into ``<outdir>/table.txt``.  Every flag, ``--config`` and
the exit codes are those of ``form-lab table``.

The full run (defaults) takes about 100 s on a 2-CPU machine; pass --quick
for a small smoke-test configuration that finishes in about 2 s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from form_lab import cli

if __name__ == "__main__":
    sys.exit(cli.main(["table", *sys.argv[1:]]))
