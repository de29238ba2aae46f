"""`sample` over the whole matrix of its force-sampler flags, for every kind of
checkpoint: each case ends in exit 0 with nothing on stderr, or in exit 2 or 3
with one `error:` or `numerical failure:` line, never a traceback or a warning.
The initial velocity is one flag, `--init-velocity dataset|zero|vx,vy`."""

import contextlib
import io
import itertools
import json
import warnings

import pytest

from form_lab.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

CHECKPOINTS = {
    "o1": ["--method", "o1"],
    "o1o2-detached": ["--method", "o1o2"],
    "o1o2-joint": ["--method", "o1o2", "--o1o2-coupling", "joint"],
    "form-time": ["--method", "form"],
    "form-time-position": ["--method", "form", "--form-input-mode", "time-position"],
}
INIT_VELOCITIES = (
    [], ["--init-velocity", "dataset"], ["--init-velocity", "zero"],
    *([f"--init-velocity={v0}"] for v0 in ("0,0", "1,0.5", "9.999,0", "10,0", "-3,4", "1e-300,0")),
)
UPDATES = ([], ["--update", "momentum-exact"], ["--update", "euler"])
SOURCES = ("heldout", "noise")


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("sample-flags")
    data = root / "onedot.ndjson"
    assert main(["gen-data", "--dataset", "onedot", "--out", str(data), "--n", "10", "--steps", "10"]) == EXIT_OK
    models = {}
    for name, flags in CHECKPOINTS.items():
        models[name] = root / f"{name}.json"
        argv = ["train", "--data", str(data), "--out", str(models[name]), "--steps", "20", "--hidden", "8,8", *flags]
        assert main(argv) == EXIT_OK
    return root, data, models


def _run(argv):
    """Exit code, stderr and warnings of one in-process ``main`` call; an exception escapes as a traceback would."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    return code, stderr.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("checkpoint", CHECKPOINTS)
def test_every_flag_combination_ends_in_one_line_or_none(checkpoints, checkpoint):
    root, data, models = checkpoints
    base = ["sample", "--model", str(models[checkpoint]), "--out", str(root / "s.json"), "--n", "2", "--sampler-steps", "3"]
    bad, codes = [], []
    for init, update, source in itertools.product(INIT_VELOCITIES, UPDATES, SOURCES):
        flags = [*init, *update, "--source", source, *(["--data", str(data)] if source == "heldout" else [])]
        code, stderr, caught = _run(base + flags)
        codes.append(code)
        lines = stderr.splitlines()
        if code == EXIT_OK:
            ok = not lines
        else:
            prefix = "numerical failure: " if code == EXIT_NUMERIC else "error: "
            ok = code in (EXIT_USAGE, EXIT_NUMERIC) and len(lines) == 1 and lines[0].startswith(prefix)
        if not ok or caught:
            bad.append((flags, code, stderr, caught))
    assert not bad, bad[:3]
    assert EXIT_OK in codes  # the matrix reaches the sampler, not only the flag checks
    flow = not checkpoint.startswith("form")
    assert (codes.count(EXIT_OK), codes.count(EXIT_NUMERIC)) == ((8, 0) if flow else (30, 18))


@pytest.mark.parametrize(
    "seed, named", [(["--seed", "0"], "--seed"), (["--seed=-1"], "--seed"), ({"seed": 3}, "config key 'seed'")]
)
def test_heldout_source_refuses_a_seed(checkpoints, seed, named):
    """Held-out points are read, not drawn: a seed there was ignored, exit 0 with ``"seed": null``."""
    root, data, models = checkpoints
    out = root / "heldout-seed.json"
    if isinstance(seed, dict):
        config = root / "seed.json"
        config.write_text(json.dumps(seed))
        seed = ["--config", str(config)]
    argv = ["sample", "--model", str(models["form-time"]), "--out", str(out), "--data", str(data), *seed]
    code, stderr, caught = _run(argv)
    assert (code, caught) == (EXIT_USAGE, [])
    assert stderr.startswith(f"error: {named}: ") and stderr.count("\n") == 1
    assert not out.exists()


def test_noise_source_seed_defaults_to_0(checkpoints):
    root, _, models = checkpoints
    written = []
    for seed in ([], ["--seed", "0"]):
        out = root / f"noise{len(seed)}.json"
        argv = ["sample", "--model", str(models["form-time"]), "--out", str(out), "--source", "noise", "--n", "3", *seed]
        assert _run(argv) == (EXIT_OK, "", [])
        written.append(out.read_bytes())
    assert written[0] == written[1] and b'"seed":0' in written[0].replace(b" ", b"")
