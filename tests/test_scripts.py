"""The two scripts under ``scripts/``, run as a user runs them: in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from form_lab.datasets import KINDS
from form_lab.training import METHODS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)], capture_output=True, text=True, timeout=300
    )


def run_module(*args) -> subprocess.CompletedProcess:
    """``python -m form_lab.cli ARGS`` with this checkout's package first on the path."""
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "form_lab.cli", *map(str, args)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": pythonpath},
    )


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRunTable:
    def test_quick_is_deterministic_and_ranks_form_first(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for outdir in (a, b):
            done = run_script("run_table.py", "--quick", "--outdir", outdir)
            assert done.returncode == 0, done.stderr
        files = tree(a)
        assert files == tree(b)
        assert set(files) == {  # its 26 files, and no temp file of a write
            "report.json", "table.txt",
            *(f"datasets/{kind}.ndjson" for kind in KINDS),
            *(f"checkpoints/{kind}-{method}.ndjson" for kind in KINDS for method in METHODS),
            *(f"figures/{kind}-{name}.svg" for kind in KINDS for name in ("data", *METHODS)),
        }
        ranking = json.loads(files["report.json"])["ranking"]
        assert {kind: ranking[kind][0] for kind in KINDS} == {kind: "form" for kind in KINDS}

    def test_script_is_the_table_subcommand(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        done = run_module("table", "--quick", "--outdir", a)
        assert done.returncode == 0, done.stderr
        done = run_script("run_table.py", "--quick", "--outdir", b)
        assert done.returncode == 0, done.stderr
        assert tree(a) == tree(b)

    def test_explicit_steps_win_over_quick(self, tmp_path):
        done = run_script("run_table.py", "--quick", "--steps", 5, "--outdir", tmp_path)
        assert done.returncode == 0, done.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metadata"]["train_steps"] == 5
        checkpoint = json.loads((tmp_path / "checkpoints" / "onedot-o1.ndjson").read_text())
        assert checkpoint["train_config"]["steps"] == 5

    @pytest.mark.parametrize(
        "flags",
        [("--quick", "--M", 0), ("--steps", 0), ("--quick", "--seed", -1)],
        ids=["M", "steps", "seed"],
    )
    def test_bad_flag_is_usage_error_before_any_write(self, tmp_path, flags):
        outdir = tmp_path / "out"
        done = run_script("run_table.py", *flags, "--outdir", outdir)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        flag = next(f for f in flags if f != "--quick")
        (line,) = done.stderr.splitlines()
        assert line.startswith(f"error: {flag}: ")
        assert not outdir.exists()

    def test_outdir_that_is_a_file_is_usage_error(self, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        done = run_script("run_table.py", "--quick", "--outdir", afile)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and str(afile) in line
        assert afile.read_text() == "kept\n"

    def test_size_beyond_memory_is_usage_error(self, tmp_path):
        """10^18 training steps cannot be allocated (no address space holds 8e18 bytes), so nothing is."""
        done = run_script("run_table.py", "--quick", "--steps", 10**18, "--outdir", tmp_path / "out")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ")


def test_stress_speed_limit_holds():
    """The script is ``form-lab stress``: the same report, and nothing on stderr."""
    done = run_script("stress_speed_limit.py", "--points", 8, "--seeds", 2)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "speed limit held in every run" in done.stdout
    module = run_module("stress", "--points", 8, "--seeds", 2)
    assert module.returncode == 0 and module.stdout == done.stdout
    assert module.stderr == done.stderr == ""


@pytest.mark.parametrize("flag, value", [("--points", 0), ("--factor", "nan"), ("--seeds", -1), ("--seeds", 1.5)])
def test_stress_bad_flag_is_one_error_line(flag, value):
    """``--points 0`` and ``--factor nan`` ended in a traceback with exit 1, and ``--seeds -1`` ran."""
    done = run_script("stress_speed_limit.py", flag, value)
    assert (done.returncode, done.stdout) == (2, "")
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and flag in line
