"""Every integer and float flag of `gen-data`, `train`, `sample`, `eval`, `plot`
and `stress`, given on the command line at 0, -1, `nan`, `inf` and `x`: each
case ends in exit 0 with nothing on stderr, or in exit 2 or 3 with one
`error:` or `numerical failure:` line, never a traceback or a warning.  An
`error:` line names the flag as it was typed: `--M` when `--M` was typed.

The `--config` values have `tests/test_cli.py::TestConfig`'s fuzz, and
`table`'s flags `TestTable`.  The inputs are tiny (10 points at most), so no
case reaches the generator's thread pool, and no value is a large size."""

import re
import threading
import warnings
from pathlib import Path

import pytest

from form_lab import cli
from form_lab.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

VALUES = ("0", "-1", "nan", "inf", "x")
COMMANDS = ("gen-data", "train", "sample", "eval", "plot", "stress")

# A flag that the flag under test excludes, dropped with its value from the small run.
EXCLUDED_BY = {"--epochs": "--steps"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flag-fuzz")
    data, model = root / "d.ndjson", root / "m.json"
    assert main(["gen-data", "--dataset", "onedot", "--out", str(data), "--n", "10", "--steps", "10"]) == EXIT_OK
    argv = ["train", "--data", str(data), "--out", str(model), "--method", "form", "--steps", "5", "--hidden", "4"]
    assert main(argv) == EXIT_OK
    return root, str(data), str(model)


def _small_run(command, root, data, model):
    """``command`` with its required arguments and the flags that keep its run small."""
    out = str(root / "out")
    return {
        "gen-data": ["gen-data", "--dataset", "onedot", "--out", out, "--n", "6", "--steps", "8"],
        "train": ["train", "--data", data, "--out", out, "--method", "o1o2", "--steps", "5", "--batch-size", "4",
                  "--hidden", "4"],
        "sample": ["sample", "--model", model, "--data", data, "--out", out, "--n", "2", "--sampler-steps", "6"],
        "eval": ["eval", "--model", model, "--data", data, "--report", out, "--sampler-steps", "6"],
        "plot": ["plot", "--data", data, "--out", out],
        "stress": ["stress", "--points", "1", "--seeds", "0"],
    }[command]


def _numeric_flags(argv):
    """Each spelling of each ``int`` or ``float`` option of the subcommand that ``argv`` runs, range-checked
    converters included: argparse names those by ``int`` or ``float`` too."""
    parser = cli.build_parser().parse_args(argv).parser
    numeric = [a for a in parser._actions if getattr(a.type, "__name__", None) in ("int", "float")]
    return [flag for action in numeric for flag in action.option_strings]


def _names(line, flag):
    """Whether ``line`` holds ``flag`` as typed, not as the start of a longer flag."""
    return re.search(re.escape(flag) + r"(?![\w-])", line) is not None


def test_every_numeric_flag_is_fuzzed():
    """A flag whose type became a range-checked converter must not drop out of the cases."""
    flags = [_numeric_flags(_small_run(command, Path("root"), "d", "m")) for command in COMMANDS]
    assert len(VALUES) * sum(map(len, flags)) >= 150


def _without(argv, flag):
    """``argv`` without ``flag`` and the value that follows it."""
    if flag not in argv:
        return argv
    at = argv.index(flag)
    return argv[:at] + argv[at + 2 :]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_numeric_flag_at_every_edge_value_ends_in_one_line_or_none(inputs, capsys, command):
    """The flag under test comes last, so its value wins over the small run's value for the same option."""
    small = _small_run(command, *inputs)
    threads, bad, codes = threading.active_count(), [], []
    for flag in _numeric_flags(small):
        for value in VALUES:
            argv = [*_without(small, EXCLUDED_BY.get(flag)), flag, value]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            codes.append(code)
            lines = capsys.readouterr().err.splitlines()
            prefix = {EXIT_USAGE: "error: ", EXIT_NUMERIC: "numerical failure: "}.get(code)
            if code == EXIT_OK:
                ok = not lines
            else:
                ok = prefix is not None and len(lines) == 1 and lines[0].startswith(prefix)
                ok = ok and (code != EXIT_USAGE or _names(lines[0], flag))
            if not ok or caught:
                bad.append((flag, value, code, lines, [str(w.message) for w in caught]))
    assert not bad, bad[:3]
    assert EXIT_USAGE in codes
    assert threading.active_count() == threads
