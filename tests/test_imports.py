"""The modules the benchmark imports load no command-line code: ``table``'s
``setup_s`` is almost all import time, so CLI code there would be paid on
every benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import form_lab

SRC = str(Path(form_lab.__file__).resolve().parents[1])
BENCHMARK_IMPORTS = ("datasets", "evaluate", "figures", "formats", "neural", "sampling", "training")


def test_benchmark_modules_import_no_cli_code():
    code = (
        "import sys\n"
        f"from form_lab import {', '.join(BENCHMARK_IMPORTS)}\n"
        "print(sorted({'argparse', 'form_lab.cli', 'form_lab.pipeline'} & set(sys.modules)))\n"
    )
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")
