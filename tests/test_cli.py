"""CLI: end-to-end pipeline on tiny inputs, precedence rules, exit codes."""

import base64
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from form_lab import cli, pipeline, training
from form_lab.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from form_lab.datasets import DatasetSpec
from form_lab.formats import read_checkpoint, read_dataset, read_samples, write_samples
from form_lab.training import TrainConfig

SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny generated dataset plus one checkpoint per method."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "onedot.ndjson"
    assert (
        main(
            ["gen-data", "--dataset", "onedot", "--out", str(data), "--n", "10", "--steps", "20"]
        )
        == EXIT_OK
    )
    models = {}
    for method in ("o1", "o1o2", "form"):
        out = root / f"{method}.json"
        code = main(
            [
                "train",
                "--data", str(data),
                "--out", str(out),
                "--method", method,
                "--steps", "40",
                "--batch-size", "8",
                "--hidden", "8,8",
            ]
        )
        assert code == EXIT_OK
        models[method] = out
    return {"root": root, "data": data, "models": models}


class TestGenData:
    def test_writes_valid_dataset(self, workdir):
        header, records = read_dataset(workdir["data"])
        assert header["spec"]["kind"] == "onedot"
        assert len(records) == 10
        assert records[0].n_steps == 20

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        args = ["gen-data", "--dataset", "spiral", "--n", "6", "--steps", "15"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_reports_max_speed(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        main(["gen-data", "--dataset", "onedot", "--out", str(out), "--n", "4", "--steps", "10"])
        stdout = capsys.readouterr().out
        assert "max speed" in stdout and " c)" in stdout

    def test_superluminal_initial_speed_is_numeric_failure(self, tmp_path):
        code = main(
            [
                "gen-data",
                "--dataset", "onedot",
                "--out", str(tmp_path / "d.ndjson"),
                "--n", "8",
                "--steps", "10",
                "--velocity-scale", "100",
            ]
        )
        assert code == EXIT_NUMERIC

    def test_speed_that_rounds_to_c_is_numeric_failure_with_nothing_written(self, tmp_path, capsys):
        """float64 rounds this run's derived speed to c: gen-data exited 0 ("max speed 10 du/s (1 c)") and
        wrote a dataset that train then refused with exit 2."""
        out = tmp_path / "d.ndjson"
        argv = ["gen-data", "--dataset", "onedot", "--n", "20", "--steps", "20", "--force-scale", "1e8"]
        assert main([*argv, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numerical failure: a simulated speed rounds to c = 10.0")
        assert not out.exists()

    def test_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        """``--threads`` is the only thread cap; ``FORM_LAB_THREADS`` used to be a second one."""
        argv = ["gen-data", "--dataset", "onedot", "--n", "3", "--steps", "5"]
        assert main([*argv, "--out", str(tmp_path / "a.ndjson")]) == EXIT_OK
        monkeypatch.setenv("FORM_LAB_THREADS", "abc")
        assert main([*argv, "--out", str(tmp_path / "b.ndjson")]) == EXIT_OK
        assert (tmp_path / "a.ndjson").read_bytes() == (tmp_path / "b.ndjson").read_bytes()

    @pytest.mark.parametrize("source, named", [("flag", "argument --threads"), ("config", "config key 'threads'")])
    def test_zero_threads_names_the_flag(self, tmp_path, capsys, source, named):
        out = tmp_path / "d.ndjson"
        argv = ["gen-data", "--dataset", "onedot", "--out", str(out), "--n", "3", "--steps", "5"]
        if source == "flag":
            argv += ["--threads", "0"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"threads": 0}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {named}: must be >= 1, got 0\n"
        assert not out.exists()

    def test_bad_variance_is_usage_error(self, tmp_path):
        code = main(
            [
                "gen-data",
                "--dataset", "onedot",
                "--out", str(tmp_path / "d.ndjson"),
                "--variance", "-1",
            ]
        )
        assert code == EXIT_USAGE


class TestTrain:
    def test_zero_steps_is_usage_error(self, workdir, tmp_path):
        code = main(
            [
                "train",
                "--data", str(workdir["data"]),
                "--out", str(tmp_path / "m.json"),
                "--method", "o1",
                "--steps", "0",
            ]
        )
        assert code == EXIT_USAGE

    def test_missing_data_file_is_usage_error(self, tmp_path):
        code = main(
            [
                "train",
                "--data", str(tmp_path / "nope.ndjson"),
                "--out", str(tmp_path / "m.json"),
                "--method", "o1",
            ]
        )
        assert code == EXIT_USAGE

    def test_integral_float_step_count_is_usage_error(self, workdir, tmp_path, capsys):
        """A header whose spec says n_steps 20.0 is malformed: exit 2 with the field named, no traceback."""
        header, *rows = workdir["data"].read_text().splitlines()
        header = json.loads(header)
        header["spec"]["n_steps"] = 20.0
        data = tmp_path / "d.ndjson"
        data.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--method", "o1"])
        assert code == EXIT_USAGE
        assert "n_steps must be an integer, got 20.0" in capsys.readouterr().err

    def test_steps_and_epochs_exclusive(self, workdir, tmp_path):
        code = main(
            [
                "train",
                "--data", str(workdir["data"]),
                "--out", str(tmp_path / "m.json"),
                "--method", "o1",
                "--steps", "5",
                "--epochs", "1",
            ]
        )
        assert code == EXIT_USAGE

    def test_epochs_budget(self, workdir, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data", str(workdir["data"]),
                "--out", str(tmp_path / "m.json"),
                "--method", "o1",
                "--epochs", "2",
                "--batch-size", "8",
                "--hidden", "4",
            ]
        )
        assert code == EXIT_OK
        # 10 trajectories, holdout 0.2 -> 8 for training; ceil(2*8/8) = 2 steps
        assert "(2 steps" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("epochs", ["inf", "nan"])
    def test_non_finite_epochs_is_usage_error(self, workdir, tmp_path, capsys, source, epochs):
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(workdir["data"]), "--out", str(out), "--method", "o1"]
        budget = ["--epochs", epochs] if source == "flag" else _write_config(tmp_path, {"epochs": epochs})
        assert main(argv + budget) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epochs" in err and "Traceback" not in err
        assert not out.exists()

    def test_epochs_beyond_a_loss_curve_is_usage_error(self, workdir, tmp_path, capsys):
        """numpy's "Maximum allowed dimension exceeded" was the whole message, naming no flag."""
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(workdir["data"]), "--out", str(out), "--method", "o1", "--epochs", "1e300"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --epochs 1e+300: steps must be at most") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_is_usage_error_before_the_dataset_is_read(self, tmp_path, capsys):
        """The dataset was read first, then numpy's "expected non-negative integer" ended the run."""
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(tmp_path / "missing.ndjson"), "--out", str(out), "--method", "o1"]
        assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --seed: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["-0.5", "-0.001", "1", "nan"])
    def test_holdout_fraction_out_of_range_is_usage_error(self, workdir, tmp_path, capsys, fraction):
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(workdir["data"]), "--out", str(out), "--method", "o1", "--steps", "2"]
        assert main([*argv, "--holdout-fraction", fraction]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--holdout-fraction" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--batch-size", "--hidden"])
    def test_size_beyond_memory_is_usage_error(self, workdir, tmp_path, capsys, flag):
        """Buffers sized by these flags are allocated before the first step; an
        allocation no machine can serve ends in exit 2, not a traceback."""
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(workdir["data"]), "--out", str(out), "--method", "o1", "--steps", "2"]
        assert main([*argv, flag, "1000000000000"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Unable to allocate" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_holdout_fraction_trains_on_all(self, workdir, tmp_path, capsys):
        argv = ["train", "--data", str(workdir["data"]), "--out", str(tmp_path / "m.json"), "--method", "o1"]
        assert main([*argv, "--steps", "2", "--hidden", "4", "--holdout-fraction", "0"]) == EXIT_OK
        assert "on 10 trajectories" in capsys.readouterr().out

    def test_config_file_and_flag_precedence(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "hidden": "4"}))
        base = [
            "train",
            "--data", str(workdir["data"]),
            "--out", str(tmp_path / "m.json"),
            "--method", "o1",
            "--config", str(cfg),
        ]
        assert main(base) == EXIT_OK
        assert "(3 steps" in capsys.readouterr().out
        assert main(base + ["--steps", "5"]) == EXIT_OK
        assert "(5 steps" in capsys.readouterr().out

    def test_unknown_config_key_is_usage_error(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(
            [
                "train",
                "--data", str(workdir["data"]),
                "--out", str(tmp_path / "m.json"),
                "--method", "o1",
                "--config", str(cfg),
            ]
        )
        assert code == EXIT_USAGE


class TestSample:
    def test_heldout_endpoints(self, workdir, tmp_path):
        out = tmp_path / "s.ndjson"
        code = main(
            [
                "sample",
                "--model", str(workdir["models"]["form"]),
                "--data", str(workdir["data"]),
                "--out", str(out),
                "--sampler-steps", "10",
            ]
        )
        assert code == EXIT_OK
        header, entries = read_samples(out)
        assert header["method"] == "form"
        assert header["n_samples"] == 2  # holdout of 10 points
        assert all("v0" in e for e in entries)

    def test_noise_source(self, workdir, tmp_path):
        out = tmp_path / "s.ndjson"
        code = main(
            [
                "sample",
                "--model", str(workdir["models"]["o1"]),
                "--out", str(out),
                "--source", "noise",
                "--n", "6",
                "--seed", "3",
                "--sampler-steps", "10",
            ]
        )
        assert code == EXIT_OK
        header, entries = read_samples(out)
        assert header["n_samples"] == 6
        assert [e["index"] for e in entries] == list(range(6))
        assert all("v0" not in e for e in entries)  # flow sampler has no velocity

    def test_noise_count_beyond_memory_is_usage_error(self, workdir, tmp_path, capsys):
        """The index list of 10**14 draws raised a MemoryError without a message: an empty ``error:`` line."""
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"]["o1"]), "--out", str(out), "--source", "noise"]
        assert main([*argv, "--n", "100000000000000"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_paths_flag(self, workdir, tmp_path):
        out = tmp_path / "s.ndjson"
        code = main(
            [
                "sample",
                "--model", str(workdir["models"]["o1o2"]),
                "--data", str(workdir["data"]),
                "--out", str(out),
                "--sampler-steps", "7",
                "--paths",
            ]
        )
        assert code == EXIT_OK
        _, entries = read_samples(out)
        assert all(e["path"].shape == (8, 2) for e in entries)
        for e in entries:
            assert np.array_equal(e["path"][0], e["x0"]) and np.array_equal(e["path"][-1], e["endpoint"])

    def test_explicit_v0(self, workdir, tmp_path):
        out = tmp_path / "s.ndjson"
        code = main(
            [
                "sample",
                "--model", str(workdir["models"]["form"]),
                "--data", str(workdir["data"]),
                "--out", str(out),
                "--sampler-steps", "5",
                "--init-velocity", "1.0,2.0",
            ]
        )
        assert code == EXIT_OK
        _, entries = read_samples(out)
        assert all(np.array_equal(e["v0"], [1.0, 2.0]) for e in entries)

    def test_zero_v0_with_nonzero_force_is_numeric_failure(self, workdir, tmp_path):
        code = main(
            [
                "sample",
                "--model", str(workdir["models"]["form"]),
                "--data", str(workdir["data"]),
                "--out", str(tmp_path / "s.ndjson"),
                "--init-velocity", "zero",
            ]
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("source", ["heldout", "noise"])
    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_n_below_one_is_usage_error(self, workdir, tmp_path, capsys, source, n):
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"]["o1"]), "--data", str(workdir["data"]), "--out", str(out)]
        assert main([*argv, "--source", source, "--n", n, "--sampler-steps", "10"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--n" in err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["3", "50"])
    def test_n_above_heldout_count_is_usage_error(self, workdir, tmp_path, capsys, n):
        """The 10-trajectory dataset holds out 2; asking for more used to write 2 with exit 0."""
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"]["o1"]), "--data", str(workdir["data"]), "--out", str(out)]
        assert main([*argv, "--n", n, "--sampler-steps", "10"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"--n {n}" in err and "2 held-out" in err
        assert not out.exists()
        assert main([*argv, "--n", "2", "--sampler-steps", "10"]) == EXIT_OK
        assert read_samples(out)[0]["n_samples"] == 2

    @pytest.mark.parametrize("v0", ["nan,0", "0,inf", "-inf,1", "1,2,3", "a,b", "explicit"])
    def test_malformed_v0_is_refused_at_parse_time(self, workdir, tmp_path, capsys, v0):
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"]["form"]), "--data", str(workdir["data"]), "--out", str(out)]
        assert main([*argv, f"--init-velocity={v0}"]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: argument --init-velocity: ") and v0 in line
        assert not out.exists()

    @pytest.mark.parametrize("v0", ["10,0", "6,-8", "20,0", "0,1e300"])
    def test_v0_at_or_above_c_is_usage_error(self, workdir, tmp_path, capsys, v0):
        """The model's c is 10; such a v0 used to end in a numerical failure (exit 3)."""
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"]["form"]), "--data", str(workdir["data"]), "--out", str(out)]
        assert main([*argv, f"--init-velocity={v0}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--init-velocity" in err and "c = 10.0" in err
        assert not out.exists()
        assert main([*argv, "--init-velocity=9.5,0"]) == EXIT_OK

    def test_v0_flag_and_key_are_gone(self, workdir, tmp_path, capsys):
        """``--init-velocity`` takes the vector; ``--v0`` and its config key used to be a second channel."""
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"]["form"]), "--data", str(workdir["data"]), "--out", str(out)]
        assert main([*argv, "--v0", "1,0"]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "unrecognized arguments: --v0" in line
        assert main(argv + _write_config(tmp_path, {"v0": "1,0"})) == EXIT_USAGE
        assert "unknown keys: ['v0']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["o1", "o1o2"])
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--init-velocity", "1,0"], "--init-velocity 1.0,0.0"),
            (["--init-velocity", "zero"], "--init-velocity zero"),
            (["--init-velocity", "zero", "--update", "euler"], "--init-velocity zero, --update euler"),
            (["--update", "euler"], "--update euler"),
        ],
        ids=["v0", "zero", "zero-euler", "euler"],
    )
    def test_force_sampler_flags_on_flow_model_are_usage_errors(self, workdir, tmp_path, capsys, method, flags, named):
        """A flow model has no force sampler; these flags used to be ignored with exit 0."""
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"][method]), "--data", str(workdir["data"]), "--out", str(out)]
        assert main([*argv, *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and method in err
        assert not out.exists()
        assert main([*argv, "--init-velocity", "dataset", "--update", "momentum-exact"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_dataset_of_another_kind_is_usage_error(self, workdir, tmp_path, capsys, command):
        """As in eval: held-out points must come from the kind of dataset the model was trained on."""
        data = tmp_path / "halfmoons.ndjson"
        assert main(["gen-data", "--dataset", "halfmoons", "--out", str(data), "--n", "10", "--steps", "20"]) == EXIT_OK
        out = tmp_path / "s.ndjson"
        model = str(workdir["models"]["form"])
        argv = ["sample", "--model", model, "--data", str(data), "--out", str(out)]
        if command == "eval":
            argv = ["eval", "--model", model, "--data", str(data), "--report", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'onedot'" in err and "'halfmoons'" in err
        assert not out.exists()

    def test_heldout_without_data_is_usage_error(self, workdir, tmp_path):
        code = main(
            [
                "sample",
                "--model", str(workdir["models"]["o1"]),
                "--out", str(tmp_path / "s.ndjson"),
            ]
        )
        assert code == EXIT_USAGE


class TestEval:
    def test_report_and_table(self, workdir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        argv = ["eval", "--report", str(report_path), "--data", str(workdir["data"])]
        for m in workdir["models"].values():
            argv += ["--model", str(m)]
        assert main(argv + ["--sampler-steps", "10"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "ForM" in stdout and "O1+O2" in stdout and "**" in stdout
        report = json.loads(report_path.read_text())
        assert len(report["cells"]) == 3
        assert set(report["ranking"]["onedot"]) == {"o1", "o1o2", "form"}
        assert report["metadata"]["sampler_steps"] == 10

    def test_reference_rows(self, workdir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        argv = [
            "eval",
            "--report", str(report_path),
            "--data", str(workdir["data"]),
            "--model", str(workdir["models"]["o1"]),
            "--sampler-steps", "10",
            "--reference",
        ]
        assert main(argv) == EXIT_OK
        assert "ref ForM" in capsys.readouterr().out

    def test_duplicate_dataset_kind_is_usage_error(self, workdir, tmp_path):
        code = main(
            [
                "eval",
                "--report", str(tmp_path / "r.json"),
                "--data", str(workdir["data"]),
                "--data", str(workdir["data"]),
                "--model", str(workdir["models"]["o1"]),
            ]
        )
        assert code == EXIT_USAGE


class TestPlot:
    def test_dataset_figure(self, workdir, tmp_path):
        out = tmp_path / "fig.svg"
        code = main(
            ["plot", "--data", str(workdir["data"]), "--out", str(out), "--trajectories", "3"]
        )
        assert code == EXIT_OK
        svg = out.read_text()
        assert svg.count("<circle") == 20  # 10 sources + 10 endpoints
        assert svg.count("<polyline") == 3
        assert ">onedot<" in svg

    def test_samples_figure(self, workdir, tmp_path):
        samples = tmp_path / "s.ndjson"
        main(
            [
                "sample",
                "--model", str(workdir["models"]["o1"]),
                "--data", str(workdir["data"]),
                "--out", str(samples),
                "--sampler-steps", "6",
                "--paths",
            ]
        )
        out = tmp_path / "fig.svg"
        code = main(["plot", "--samples", str(samples), "--out", str(out), "--trajectories", "2"])
        assert code == EXIT_OK
        svg = out.read_text()
        assert svg.count("<circle") == 4  # 2 held-out sources + endpoints
        assert svg.count("<polyline") == 2

    @pytest.mark.parametrize(
        "source, named", [("flag", "argument --trajectories"), ("config", "config key 'trajectories'")]
    )
    def test_negative_trajectories_names_the_flag(self, workdir, tmp_path, capsys, source, named):
        """A negative count drew nothing and exited 0."""
        out = tmp_path / "fig.svg"
        argv = ["plot", "--data", str(workdir["data"]), "--out", str(out)]
        if source == "flag":
            argv += ["--trajectories", "-3"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"trajectories": -3}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {named}: must be >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("path", [0, 1, 2]), ("path", [[0, 1, 2], [3, 4, 5]]), ("path", 5), ("v0", "fast"),
         ("path", "AAAAAAAAAAA=")],
        ids=["path-list", "path-nested-list", "path-number", "v0-word", "path-one-double"],
    )
    def test_malformed_samples_are_usage_errors(self, workdir, tmp_path, capsys, key, value):
        """Each of these plotted with exit 0 when read_samples did not check v0 and path."""
        samples = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(workdir["models"]["form"]), "--data", str(workdir["data"])]
        assert main([*argv, "--out", str(samples), "--sampler-steps", "6", "--paths"]) == EXIT_OK
        header, *lines = samples.read_text().splitlines()
        lines[0] = json.dumps(json.loads(lines[0]) | {key: value})
        samples.write_text("\n".join([header, *lines]) + "\n")
        capsys.readouterr()
        out = tmp_path / "fig.svg"
        assert main(["plot", "--samples", str(samples), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and f"'{key}'" in err
        assert not out.exists()

    def test_custom_title(self, workdir, tmp_path):
        out = tmp_path / "fig.svg"
        main(["plot", "--data", str(workdir["data"]), "--out", str(out), "--title", "hello"])
        assert ">hello<" in out.read_text()


class TestTable:
    """Each bad step count or seed ends in exit 2 before anything is written, with one line naming
    the flag: argparse's refusal of a non-integer, the flag's dataclass refusal of the rest."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", v) for v in ("-1", "nan", "1.5", "x")]
        + [(f, v) for f in ("--steps", "--sampler-steps", "--M") for v in ("0", "-1", "nan", "1.5", "x")],
    )
    def test_bad_flag_is_usage_error_before_any_write(self, tmp_path, capsys, flag, value):
        assert main(["table", "--quick", "--outdir", str(tmp_path), flag, value]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: argument " if value in ("nan", "1.5", "x") else f"error: {flag}: ")
        assert flag in line
        assert not any(tmp_path.iterdir())


class TestStress:
    @pytest.mark.parametrize(
        "flag, value",
        [("--points", v) for v in ("0", "-1")]
        + [("--factor", v) for v in ("0", "-1", "nan", "inf", "x")]
        + [("--seeds", v) for v in ("-1", "1.5")],
    )
    def test_bad_flag_is_usage_error_before_any_output(self, capsys, flag, value):
        """The script this replaced ended the first three kinds in a traceback and ran ``--seeds -1``."""
        assert main(["stress", flag, value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert line.startswith("error: ") and flag in line
        assert out == ""

    def test_a_speed_at_c_is_a_numerical_failure(self, monkeypatch, capsys):
        """One run that reports |v| = c ends the report in exit 3 (the script this replaced exited 1)."""
        real_speed, calls = pipeline.speed, []

        def speed_at_c_once(v):
            calls.append(v)
            s = real_speed(v)
            return np.full_like(s, pipeline.DEFAULT_PHYSICS.c) if len(calls) == 1 else s

        monkeypatch.setattr(pipeline, "speed", speed_at_c_once)
        assert main(["stress", "--points", "1", "--seeds", "0"]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert err == "numerical failure: speed limit violated: worst observed |v|/c = 1.00000000\n"
        assert "worst observed |v|/c = 1.00000000" in out and "speed limit held" not in out

    def test_a_refused_simulation_is_a_line_of_the_report(self, capsys):
        """A kind whose speed float64 rounds to c is refused by ``generate``: the report names the refusal, runs on
        through every family and ends in exit 3 (it used to end at the simulator header)."""
        assert main(["stress", "--factor", "1e8", "--points", "8", "--seeds", "1"]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        headers = [line for line in out.splitlines() if line.startswith("== ")]
        assert [h.split(",")[0] for h in headers] == ["== simulator", "== force sampler", "== random force heads"]
        assert "  onedot     refused: a simulated speed rounds to c" in out
        assert out.endswith("worst observed |v|/c = 1.00000000\n")
        assert err == "numerical failure: speed limit violated: worst observed |v|/c = 1.00000000\n"

    def test_a_refused_sampler_run_is_a_line_of_the_report(self, capsys):
        """``force_path`` wrote velocities that float64 rounds to c, which the report printed as 1.00000000; the
        sampler row now shows its first refused grid, and the other rows and families are unchanged."""
        assert main(["stress", "--factor", "1e8", "--points", "8", "--seeds", "1"]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        sampler = out.split("== force sampler, forces x1e+08 ==\n")[1].split("\n\n")[0].splitlines()
        refusal = "refused: a sampled speed rounds to c = 10.0 in float64 (gamma beyond about 1e7)"
        assert sampler[0] == f"  onedot     M=1000: {refusal}"
        assert [line.split()[1:3] for line in sampler[1:]] == [["max", "|v|/c"]] * 2
        assert "  0 runs completed (max |v|/c = 0.00000000), 3 braked to rest\n" in out
        assert err == "numerical failure: speed limit violated: worst observed |v|/c = 1.00000000\n"

    def test_every_family_shows_a_refusal_and_a_brake(self, monkeypatch, capsys):
        """``pipeline.stress`` gives each run as a ratio, a refusal message or None (a brake); the report shows
        them the same way in every family."""
        runs = {"simulator": {"onedot": 0.5, "halfmoons": "no", "spiral": None},
                "sampler": {"onedot": [0.25, None, "no"], "halfmoons": [0.5, "no", 0.75], "spiral": [0.5, 0.5, 0.5]},
                "random": [0.125, "no", None, 0.25]}
        monkeypatch.setattr(pipeline, "stress", lambda spec, seeds: (runs, 1.0))
        assert main(["stress", "--points", "1", "--seeds", "1"]) == EXIT_NUMERIC
        assert capsys.readouterr().out.splitlines() == [
            "== simulator, forces x100 ==",
            "  onedot     max |v|/c = 0.50000000", "  halfmoons  refused: no", "  spiral     braked to rest",
            "", "== force sampler, forces x100 ==",
            "  onedot     M=100: braked to rest", "  halfmoons  M=100: refused: no",
            "  spiral     max |v|/c  M=10: 0.50000000  M=100: 0.50000000  M=1000: 0.50000000",
            "", "== random force heads, outputs x100 ==",
            "  refused: no", "  2 runs completed (max |v|/c = 0.25000000), 1 braked to rest",
            "", "worst observed |v|/c = 1.00000000",
        ]


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["train", "--steps", "1.5"], "argument --steps: invalid int value: '1.5'"),
        (["sample", "--M", "x"], "argument --sampler-steps/--M: invalid int value: 'x'"),
        (["stress", "--bogus"], "unrecognized arguments: --bogus"),
        (["eval"], "required: --model, --data, --report"),
        (["gen-data", "--dataset", "cube", "--out", "o"], "argument --dataset: invalid choice: 'cube'"),
        (["plot", "--data", "d", "--samples", "s", "--out", "o"], "--samples: not allowed with argument --data"),
        (["stress", "--points"], "argument --points: expected one argument"),
    ],
    ids=["no-command", "bad-command", "non-integer", "alias", "unknown-flag", "missing-flag", "bad-choice", "exclusive",
         "no-value"],
)
def test_argparse_refusal_is_one_error_line(capsys, argv, named):
    """argparse used to print its usage block and exit through ``SystemExit(2)``, past ``main``'s mapping."""
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("command", ["stress", "table"])
def test_help_still_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: form-lab {command} ")


# Every key --config accepts, per subcommand, each set to its default.
DEFAULT_CONFIGS = {
    "gen-data": {
        "n": None, "steps": 200, "duration": 1.0, "seed": 0, "variance": 0.3,
        "velocity_scale": 4.0, "initial_speed": 4.0, "core_speed": 2.0, "ring_speed": 6.0,
        "disc_radius": 1.0, "force_scale": 1.0, "perp_handedness": "ccw", "c": 10.0,
        "mass": 1.0, "threads": None,
    },
    "train": {
        "steps": 20000, "epochs": None, "batch_size": 128, "lr": 1e-3, "seed": 0,
        "hidden": "64,64", "form_input_mode": "time", "o1o2_coupling": "detached",
        "holdout_fraction": 0.2,
    },
    "sample": {
        "n": None, "sampler_steps": 100, "seed": None, "source": "heldout",
        "init_velocity": "dataset", "paths": False, "update": "momentum-exact",
    },
    "eval": {"sampler_steps": 100, "mode": "paired", "reference": False},
    "plot": {"trajectories": 0, "title": None},
    "table": {"seed": 0, "steps": None, "sampler_steps": 100, "quick": False, "reference": True},
    "stress": {"factor": 100.0, "points": 48, "seeds": 6},
}


def _argv(command, workdir, out):
    """``command`` with its required arguments only."""
    data, models = str(workdir["data"]), workdir["models"]
    return {
        "gen-data": ["gen-data", "--dataset", "onedot", "--out", out],
        "train": ["train", "--data", data, "--out", out, "--method", "o1o2"],
        "sample": ["sample", "--model", str(models["form"]), "--data", data, "--out", out],
        "eval": ["eval", "--model", str(models["form"]), "--data", data, "--report", out],
        "plot": ["plot", "--data", data, "--out", out],
        "table": ["table", "--outdir", out],
        "stress": ["stress"],
    }[command]


# Flags that keep each run small; they override the config's budget keys.
SMALL_RUN = {
    "gen-data": ["--n", "6", "--steps", "8"],
    "train": ["--steps", "5", "--batch-size", "4", "--hidden", "4"],
    "sample": ["--sampler-steps", "6"],
    "eval": ["--sampler-steps", "6"],
    "plot": [],
    "table": ["--quick", "--steps", "5", "--sampler-steps", "6"],
    "stress": ["--points", "1", "--seeds", "0"],
}


# Each --config key is set to each of these in turn: wrong JSON types, edge numbers, non-finite spellings.
CONFIG_FUZZ_VALUES = ([], {}, True, False, "abc", "nan", "inf", -1, 0, 1.5, float("inf"), None, "1,2")


def _contents(path: Path):
    """A file's bytes, or a directory's as ``{relative path: bytes}`` over its whole tree."""
    if path.is_dir():
        return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}
    return path.read_bytes()


def _without(argv, dropped):
    """``argv`` without each flag in ``dropped`` and the values that follow it."""
    kept, keep = [], True
    for part in argv:
        if part.startswith("--"):
            keep = part not in dropped
        if keep:
            kept.append(part)
    return kept


def _write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["--config", str(path)]


class TestConfig:
    @pytest.mark.parametrize("command", sorted(DEFAULT_CONFIGS))
    def test_every_key_at_its_default_changes_nothing(self, workdir, tmp_path, capsys, command):
        results, cfg = [], _write_config(tmp_path, DEFAULT_CONFIGS[command])
        for out, config in ((tmp_path / "plain", []), (tmp_path / "configured", cfg)):
            assert main(_argv(command, workdir, str(out)) + SMALL_RUN[command] + config) == EXIT_OK
            stdout = capsys.readouterr().out
            results.append(stdout if command == "stress" else _contents(out))  # stress writes only its report
        assert results[0] == results[1]

    @pytest.mark.parametrize("command", sorted(DEFAULT_CONFIGS))
    def test_input_and_output_keys_are_rejected(self, workdir, tmp_path, command, capsys):
        key = "outdir" if command == "table" else "out"
        argv = _argv(command, workdir, str(tmp_path / "o")) + _write_config(tmp_path, {key: "x"})
        assert main(argv) == EXIT_USAGE
        assert f"unknown keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("gen-data", {"perp_handedness": "up"}),
            ("gen-data", {"threads": "x"}),
            ("train", {"batch_size": [1]}),
            ("train", {"steps": 5, "epochs": 1}),
            ("sample", {"source": "bogus"}),
            ("sample", {"init_velocity": "bogus"}),
            ("sample", {"paths": "false"}),
            ("eval", {"reference": "no"}),
        ],
        ids=lambda v: "+".join(v) if isinstance(v, dict) else v,
    )
    def test_malformed_value_is_usage_error(self, workdir, tmp_path, capsys, command, cfg):
        out = tmp_path / "o"
        assert main(_argv(command, workdir, str(out)) + _write_config(tmp_path, cfg)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(key in err for key in cfg)
        assert not out.exists()

    @pytest.mark.parametrize("value, shown", [([], "[]"), ({}, "{}"), (1.5, "1.5"), (True, "true")])
    def test_text_option_refuses_other_json_types(self, workdir, tmp_path, capsys, value, shown):
        out = tmp_path / "o.svg"
        assert main(_argv("plot", workdir, str(out)) + _write_config(tmp_path, {"title": value})) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: config key 'title' must be a string, got {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("gen-data", "n", 0),
            ("train", "lr", 0),
            ("sample", "sampler_steps", 0),
            ("eval", "sampler_steps", -1),
            ("plot", "trajectories", -1),
            ("table", "steps", 0),
            ("stress", "points", 0),
        ],
    )
    def test_value_out_of_range_names_its_config_key(self, workdir, tmp_path, capsys, command, key, value):
        """A dataclass refusal named the field (``n_points``) or the flag that was not typed (``--steps``)."""
        out = tmp_path / "o"
        assert main(_argv(command, workdir, str(out)) + _write_config(tmp_path, {key: value})) == EXIT_USAGE
        stdout, err = capsys.readouterr()
        assert err.startswith(f"error: config key {key!r}: ") and err.count("\n") == 1
        assert stdout == "" and not out.exists()

    def test_steps_and_epochs_exclusive_across_sources(self, workdir, tmp_path):
        argv = ["train", "--data", str(workdir["data"]), "--out", str(tmp_path / "m.json"), "--method", "o1"]
        assert main(argv + ["--epochs", "1"] + _write_config(tmp_path, {"steps": 5})) == EXIT_USAGE

    @pytest.mark.parametrize("command", sorted(DEFAULT_CONFIGS))
    def test_every_key_at_every_fuzz_value_ends_in_one_line_or_none(self, workdir, tmp_path, capsys, command):
        """Each case exits 0 with nothing on stderr, or 2 or 3 with one ``error:`` or
        ``numerical failure:`` line: no traceback and no warning.  The small-run flags
        stay, except the one that would override the key under test (and ``--steps``
        under ``epochs``, which it excludes).  No value is a large size."""
        parser = cli.build_parser().parse_args(_argv(command, workdir, "o")).parser
        keys = [a.dest for a in parser._actions if a.dest not in cli.NOT_IN_CONFIG]
        out, bad, codes = str(tmp_path / "o"), [], []
        for key in keys:
            dropped = {"--" + key.replace("_", "-"), *(["--steps"] if key == "epochs" else [])}
            small = _without(SMALL_RUN[command], dropped)
            for value in CONFIG_FUZZ_VALUES:
                cfg = _write_config(tmp_path, {key: value})
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(_argv(command, workdir, out) + small + cfg)
                codes.append(code)
                lines = capsys.readouterr().err.splitlines()
                prefix = {EXIT_USAGE: "error: ", EXIT_NUMERIC: "numerical failure: "}.get(code)
                if code == EXIT_OK:
                    ok = not lines
                else:
                    ok = prefix is not None and len(lines) == 1 and lines[0].startswith(prefix)
                if not ok or caught:
                    bad.append((key, value, code, lines, [str(w.message) for w in caught]))
        assert not bad, bad[:3]
        assert EXIT_OK in codes and EXIT_USAGE in codes


@pytest.mark.parametrize(
    "argv, field",
    [
        (["gen-data", "--dataset", "onedot", "--force-scale", "inf"], "force_scale"),
        (["gen-data", "--dataset", "halfmoons", "--velocity-scale", "inf"], "velocity_scale"),
        (["gen-data", "--dataset", "onedot", "--velocity-scale=-inf"], "velocity_scale"),
        (["gen-data", "--dataset", "halfmoons", "--variance", "inf"], "source_variance"),
        (["gen-data", "--dataset", "halfmoons", "--initial-speed", "inf"], "initial_speed"),
        (["gen-data", "--dataset", "spiral", "--core-speed", "inf"], "core_speed"),
        (["gen-data", "--dataset", "spiral", "--ring-speed", "inf"], "ring_speed"),
        (["gen-data", "--dataset", "spiral", "--disc-radius", "inf"], "disc_radius"),
        (["gen-data", "--dataset", "onedot", "--duration", "inf"], "duration"),
        (["train", "--method", "o1", "--lr", "inf"], "learning_rate"),
        (["train", "--method", "form", "--lr", "nan"], "learning_rate"),
    ],
    ids=lambda v: " ".join(v[:1] + v[3:]) if isinstance(v, list) else v,
)
def test_non_finite_field_is_usage_error(workdir, tmp_path, capsys, argv, field):
    out = tmp_path / "o"
    inputs = ["--data", str(workdir["data"])] if argv[0] == "train" else []
    assert main([*argv, *inputs, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


class TestDefaults:
    """With no optional flag, each dataclass default is what the files record."""

    def test_gen_data_spec(self, tmp_path):
        out = tmp_path / "d.ndjson"
        assert main(["gen-data", "--dataset", "onedot", "--out", str(out)]) == EXIT_OK
        header, _ = read_dataset(out)
        assert header["spec"] == DatasetSpec(kind="onedot").to_dict()

    def test_train_config(self, workdir, tmp_path, monkeypatch):
        real_train = training.train

        def one_step_train(records, config, **kwargs):
            """Train one step, but keep the configuration the CLI asked for."""
            model = real_train(records, replace(config, steps=1), **kwargs)
            model.train_config = config
            return model

        monkeypatch.setattr(training, "train", one_step_train)
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(workdir["data"]), "--out", str(out), "--method", "form"]
        assert main(argv) == EXIT_OK
        assert asdict(read_checkpoint(out).train_config) == asdict(TrainConfig(method="form"))


def _with_header(src, dst, mutate):
    """Copy a file, passing its first line's JSON object through ``mutate``."""
    first, *rest = src.read_text().splitlines()
    header = json.loads(first)
    mutate(header)
    dst.write_text("\n".join([json.dumps(header), *rest]) + "\n")
    return dst


# Each gave a traceback (exit 1), trained anyway (exit 0) or a self-contradicting message at v1.
HEADER_PROBES = {
    "spec-not-object": lambda h: h.update(spec=3),
    "physics-without-m": lambda h: h.update(physics={"c": 10.0}),
    "physics-not-numbers": lambda h: h.update(physics={"c": "10", "m": True}),
    "grid-size-string": lambda h: h["spec"].update(n_steps="10"),
    "unknown-kind": lambda h: h["spec"].update(kind="bogus"),
    "count-string": lambda h: h.update(n_trajectories="6"),
}


class TestFileValidation:
    @pytest.mark.parametrize("probe", sorted(HEADER_PROBES))
    def test_malformed_dataset_header_is_usage_error(self, workdir, tmp_path, capsys, probe):
        data = _with_header(workdir["data"], tmp_path / "d.ndjson", HEADER_PROBES[probe])
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(data), "--out", str(out), "--method", "o1", "--steps", "1"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("steps", 20.0), ("steps", True), ("batch_size", 8.5), ("hidden_dims", [8.0, 8])],
        ids=["steps-float", "steps-bool", "batch-size-float", "hidden-dims-float"],
    )
    def test_non_integer_train_config_is_usage_error(self, workdir, tmp_path, capsys, key, value):
        """A checkpoint whose train_config.steps was 20.0 and batch_size 8.5 loaded, and sampled with exit 0."""
        model = _with_header(workdir["models"]["o1"], tmp_path / "m.json", lambda h: h["train_config"].update({key: value}))
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(model), "--out", str(out), "--source", "noise", "--n", "3", "--M", "4"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: malformed checkpoint") and "must be an integer" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("physics", {"c": "10", "m": True}), ("physics", {"c": True, "m": 1.0}), ("duration", "1.0"),
         ("duration", True)],
        ids=["physics-string-and-bool", "c-bool", "duration-string", "duration-bool"],
    )
    def test_physics_or_duration_that_is_not_a_number_is_usage_error(self, workdir, tmp_path, capsys, key, value):
        """``{"c": "10", "m": true}`` sampled with exit 0; ``{"c": true}`` was read as c = 1 and ended in exit 3."""
        model = _with_header(workdir["models"]["form"], tmp_path / "m.json", lambda h: h.update({key: value}))
        out = tmp_path / "s.ndjson"
        assert main(["sample", "--model", str(model), "--data", str(workdir["data"]), "--out", str(out)]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {model}: malformed checkpoint") and "must be positive and finite" in line
        assert not out.exists()

    def test_bool_learning_rate_is_usage_error(self, workdir, tmp_path, capsys):
        """A checkpoint whose train_config.learning_rate was true loaded, and evaluated with exit 0."""
        model = _with_header(
            workdir["models"]["o1"], tmp_path / "m.json", lambda h: h["train_config"].update(learning_rate=True)
        )
        out = tmp_path / "r.json"
        argv = ["eval", "--model", str(model), "--data", str(workdir["data"]), "--report", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: malformed checkpoint") and "learning_rate must be positive" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "version, command",
        [pytest.param(v, c, id=c if v == 1 else f"{c}-v{v}") for v in (1, 2, 3) for c in ("train", "sample", "plot")],
    )
    def test_v1_file_names_schema_version(self, workdir, tmp_path, capsys, version, command):
        def old(header):
            header["schema_version"] = version

        out = str(tmp_path / "o")
        if command == "train":
            data = _as_text_arrays(_with_header(workdir["data"], tmp_path / "d.ndjson", old))
            if version == 2:
                data = _as_v2_dataset(data)
            argv = ["train", "--data", str(data), "--out", out, "--method", "o1", "--steps", "1"]
        elif command == "sample":
            model = _as_text_arrays(_with_header(workdir["models"]["o1"], tmp_path / "m.json", old))
            argv = ["sample", "--model", str(model), "--data", str(workdir["data"]), "--out", out]
        else:
            samples = tmp_path / "s.ndjson"
            write_samples(samples, {}, [{"index": 0, "x0": [0.5, 1.0], "endpoint": [1.5, 2.0]}])
            argv = ["plot", "--samples", str(_with_header(samples, samples, old)), "--out", out]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and f"schema_version {version}" in err
        assert not Path(out).exists()

    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_dataset_given_as_model_names_its_kind(self, workdir, tmp_path, capsys, command):
        """The dataset's second line made this an invalid-JSON error ("Extra data")."""
        out = tmp_path / "o"
        data = str(workdir["data"])
        argv = {
            "sample": ["sample", "--model", data, "--data", data, "--out", str(out)],
            "eval": ["eval", "--model", data, "--data", data, "--report", str(out)],
        }[command]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {data}:1: expected kind 'form-lab-checkpoint', got 'form-lab-dataset'\n"
        assert not out.exists()


class TestOverflowingSpeedOfLight:
    """A finite ``c`` whose square overflows gave an OverflowError traceback (exit 1) at ``physics.c**2``."""

    def test_gen_data_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        argv = ["gen-data", "--dataset", "halfmoons", "--out", str(out), "--n", "5", "--steps", "4", "--c", "1e200"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --c: speed of light c ") and err.count("\n") == 1
        assert not out.exists()

    def test_sample_from_such_a_checkpoint_is_usage_error(self, workdir, tmp_path, capsys):
        model = _with_header(workdir["models"]["form"], tmp_path / "m.json", lambda h: h["physics"].update(c=1e200))
        out = tmp_path / "s.ndjson"
        argv = ["sample", "--model", str(model), "--out", str(out), "--source", "noise", "--n", "3", "--M", "4"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "speed of light c " in err
        assert not out.exists()


def _as_text_arrays(path):
    """Rewrite a dataset or checkpoint in place with each array as a flat JSON list (versions 1-3 wrote numbers)."""
    def to_lists(value, key=None):
        if isinstance(value, dict):
            return {k: to_lists(v, k) for k, v in value.items()}
        if isinstance(value, list):
            return [to_lists(v, key) for v in value]
        if isinstance(value, str) and key in ("x", "v", "f_par", "f_perp", "weights", "biases", "loss_curve"):
            return np.frombuffer(base64.b64decode(value), "<f8").tolist()
        return value

    objects = [to_lists(json.loads(line)) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objects))
    return path


def _as_v2_dataset(path):
    """Rewrite a dataset in place in the v2 layout: the header's f_par/f_perp copied into every record."""
    header, *records = map(json.loads, path.read_text().splitlines())
    schedule = {k: header.pop(k) for k in ("f_par", "f_perp")}
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *[r | schedule for r in records]]))
    return path


def _run_module(*args, warnings=None):
    """``python -m form_lab.cli ARGS`` with this checkout's package first on the path (and ``-W warnings``)."""
    pythonpath = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *(["-W", warnings] if warnings else []), "-m", "form_lab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


class TestProcessBoundary:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "d.ndjson"
        proc = _run_module("gen-data", "--dataset", "onedot", "--out", str(out), "--n", "3", "--steps", "5")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["gen-data", "--dataset", "onedot", "--n", "4", "--steps", "10", "--variance", "1e308"],
         ["train", "--method", "o1", "--steps", "2", "--hidden", "4", "--lr", "1e308"]],
        ids=["gen-data-variance", "train-lr"],
    )
    def test_overflow_is_one_numerical_failure_line(self, workdir, tmp_path, argv):
        """Each printed numpy RuntimeWarnings, with their source lines, before its exit-3 message."""
        inputs = ["--data", str(workdir["data"])] if argv[0] == "train" else []
        proc = _run_module(*argv, *inputs, "--out", str(tmp_path / "o"), warnings="error::RuntimeWarning")
        assert proc.returncode == EXIT_NUMERIC
        (line,) = proc.stderr.splitlines()
        assert line.startswith("numerical failure:")

    @pytest.mark.parametrize("sampler_steps", ["1", "5"])
    def test_overflowing_celerity_is_one_numerical_failure_line(self, tmp_path, sampler_steps):
        """A particle of mass 1e-300 overflows |w|^2 in the first sampler step:
        exit 3 naming the overflow, not v = 0 (1 step) or "celerity must be finite" (5)."""
        data, model = tmp_path / "d.ndjson", tmp_path / "m.ndjson"
        gen = ["gen-data", "--dataset", "onedot", "--n", "30", "--steps", "10", "--mass", "1e-300", "--out", str(data)]
        assert main(gen) == EXIT_OK
        assert main(["train", "--data", str(data), "--method", "form", "--steps", "50", "--out", str(model)]) == EXIT_OK
        proc = _run_module(
            "sample", "--model", str(model), "--data", str(data), "--sampler-steps", sampler_steps,
            "--out", str(tmp_path / "s.ndjson"), warnings="error::RuntimeWarning",
        )
        assert proc.returncode == EXIT_NUMERIC
        (line,) = proc.stderr.splitlines()
        assert line.startswith("numerical failure: celerity overflows")

    def test_overflowing_simulation_names_the_overflow(self, tmp_path):
        """A step of 1e308 s overflows the celerity in the first stage, not a speed of 0 that a force cannot push."""
        proc = _run_module(
            "gen-data", "--dataset", "onedot", "--duration", "1e308", "--out", str(tmp_path / "d.ndjson"),
            warnings="error::RuntimeWarning",
        )
        assert proc.returncode == EXIT_NUMERIC
        (line,) = proc.stderr.splitlines()
        assert line.startswith("numerical failure: celerity overflows")

    def test_usage_exit_code_through_process(self, tmp_path):
        proc = _run_module(
            "train", "--data", str(tmp_path / "nope.ndjson"), "--out", str(tmp_path / "m.json"), "--method", "o1"
        )
        assert proc.returncode == EXIT_USAGE
