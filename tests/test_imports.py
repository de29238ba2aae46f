"""The modules the benchmark imports load no command-line code, and the
package itself loads no module: ``table``'s ``setup_s`` is almost all import
time, so code there would be paid on every benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import form_lab

SRC = str(Path(form_lab.__file__).resolve().parents[1])
BENCHMARK_IMPORTS = ("datasets", "evaluate", "figures", "formats", "neural", "sampling", "training")


def _run(code: str) -> tuple[int, str, str]:
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    return done.returncode, done.stderr, done.stdout


def test_benchmark_modules_import_no_cli_code():
    code = (
        "import sys\n"
        f"from form_lab import {', '.join(BENCHMARK_IMPORTS)}\n"
        "print(sorted({'argparse', 'form_lab.cli', 'form_lab.pipeline'} & set(sys.modules)))\n"
    )
    assert _run(code) == (0, "", "[]\n")


def test_the_package_loads_no_submodule():
    """``import form_lab`` used to load most of the package, numpy too, to re-export 18 names that nothing imported."""
    code = ("import sys\nimport form_lab\n"
            "print(sorted(m for m in sys.modules if m.startswith('form_lab.') or m == 'numpy'))\n")
    assert _run(code) == (0, "", "[]\n")


def test_the_pipeline_loads_no_cli_code():
    """``pipeline`` is the package layer that ``cli`` prints; it may never come to depend on the command line."""
    code = "import sys\nimport form_lab.pipeline\nprint(sorted({'argparse', 'form_lab.cli'} & set(sys.modules)))\n"
    assert _run(code) == (0, "", "[]\n")
