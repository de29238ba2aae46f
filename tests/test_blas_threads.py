"""Training and sampling bytes do not depend on the OpenBLAS thread count.

Byte-identical outputs are a promise of this package, and a BLAS library is
free to split a matrix product differently with more threads.  On the builds
this package is tested with it does not, for the shapes training and sampling
use; this test says so if a build ever does.  Each thread count runs in its
own child process, because OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when
it loads; the variable is set only in the children's environment.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# gen-data, train o1/o1o2/form at the default batch and widths, then sample the form model
CHILD = """
import sys
from form_lab.cli import main

out = sys.argv[1]
data = f"{out}/halfmoons.ndjson"
commands = [["gen-data", "--dataset", "halfmoons", "--out", data, "--n", "64", "--steps", "40"]]
for method in ("o1", "o1o2", "form"):
    commands.append(["train", "--data", data, "--out", f"{out}/{method}.json", "--method", method, "--steps", "60"])
commands.append(["sample", "--model", f"{out}/form.json", "--data", data, "--out", f"{out}/samples.ndjson", "--paths"])
for argv in commands:
    if main(argv) != 0:
        sys.exit(f"form-lab {argv[0]} failed")
"""


def run_child(out: Path, threads: str) -> dict[str, bytes]:
    out.mkdir()
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(out)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_outputs_equal_at_one_and_two_blas_threads(tmp_path):
    one = run_child(tmp_path / "one", "1")
    two = run_child(tmp_path / "two", "2")
    assert sorted(one) == ["form.json", "halfmoons.ndjson", "o1.json", "o1o2.json", "samples.ndjson"]
    assert sorted(two) == sorted(one)
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, f"bytes differ between 1 and 2 BLAS threads: {differ}"
