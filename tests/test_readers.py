"""The NDJSON readers stream their file: they close it on every exit path,
check the header's count before sizing anything from it, and split lines
only at ``\\n``, ``\\r\\n`` and ``\\r``."""

import gc
import json
import os
import warnings

import numpy as np
import pytest

from form_lab.cli import EXIT_USAGE, main
from form_lab.datasets import DatasetSpec, generate
from form_lab.errors import SchemaError
from form_lab.formats import read_dataset, read_samples, write_dataset, write_samples
from form_lab.relativity import DEFAULT_PHYSICS

READERS = {"dataset": read_dataset, "samples": read_samples}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid four-line file per reader."""
    root = tmp_path_factory.mktemp("readers")
    spec = DatasetSpec(kind="onedot", n_points=3, n_steps=3, seed=1)
    write_dataset(root / "dataset", generate(spec), spec, DEFAULT_PHYSICS)
    path = np.array([[0.5, 1.0], [0.75, 1.5], [1.0, 1.75], [1.5, 2.0]])
    entries = [{"index": i, "x0": path[0], "endpoint": path[-1], "path": path} for i in range(3)]
    write_samples(root / "samples", {"method": "o1", "sampler_steps": 3}, entries)
    return {kind: (root / kind).read_bytes() for kind in READERS}


def _lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")[:-1]


# each case: the file's bytes from a valid file's, and the message it must raise (None: it reads)
CASES = {
    "valid": (lambda d: d, None),
    "malformed-line-3": (lambda d: b"\n".join([*_lines(d)[:2], b"{", *_lines(d)[3:]]) + b"\n", ":3: invalid JSON"),
    "count-mismatch": (lambda d: b"\n".join(_lines(d)[:-1]) + b"\n", "header promises 3"),
    "bad-utf8-last-line": (lambda d: d[:-2] + b"\xff" + d[-2:], "not UTF-8 text"),
    "bom": (lambda d: b"\xef\xbb\xbf" + d, ":1: invalid JSON (Unexpected UTF-8 BOM"),
}


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_closes_its_file_on_every_exit_path(valid, tmp_path, kind, case):
    mutate, message = CASES[case]
    path = tmp_path / kind
    path.write_bytes(mutate(valid[kind]))
    gc.collect()
    before = _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if message is None:
            READERS[kind](path)
        else:
            with pytest.raises(SchemaError, match=message.replace("(", r"\(")):
                READERS[kind](path)
        assert _open_fds() == before  # closed before the error is handled, not when it is collected
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.fixture
def overpromising(valid, tmp_path):
    """A three-line dataset whose header promises 10**12 trajectories."""
    header, *rows = _lines(valid["dataset"])[:3]
    promise = json.loads(header) | {"n_trajectories": 10**12}
    path = tmp_path / "d.ndjson"
    path.write_bytes(b"\n".join([json.dumps(promise).encode(), *rows]) + b"\n")
    return path


def test_count_is_checked_before_the_blocks_are_sized(overpromising):
    with pytest.raises(SchemaError, match="header promises 1000000000000 trajectories, found 2"):
        read_dataset(overpromising)


def test_train_on_an_overpromising_dataset_exits_2(overpromising, tmp_path, capsys):
    argv = ["train", "--data", str(overpromising), "--out", str(tmp_path / "m.json"), "--method", "o1"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {overpromising}: header promises 1000000000000 trajectories, found 2\n"


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_crlf_and_cr_end_lines_as_lf_does(valid, tmp_path, ending):
    path = tmp_path / "d.ndjson"
    path.write_bytes(valid["dataset"].replace(b"\n", ending))
    _, batch = read_dataset(path)
    (tmp_path / "lf.ndjson").write_bytes(valid["dataset"])
    _, want = read_dataset(tmp_path / "lf.ndjson")
    assert all(getattr(batch, k).tobytes() == getattr(want, k).tobytes() for k in ("x", "v", "a", "f"))


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_other_splitlines_breaks_stay_inside_their_line(valid, tmp_path, char):
    """A raw one in a header string is part of the string, not a line break."""
    header, *rows = _lines(valid["samples"])
    edited = json.loads(header) | {"note": "a<>b"}
    raw = json.dumps(edited).replace("<>", char).encode("utf-8")
    path = tmp_path / "s.ndjson"
    path.write_bytes(b"\n".join([raw, *rows]) + b"\n")
    if char < " ":  # a raw control character is not valid JSON, but the error is on line 1
        with pytest.raises(SchemaError, match=":1: invalid JSON"):
            read_samples(path)
    else:
        header, entries = read_samples(path)
        assert header["note"] == f"a{char}b" and len(entries) == 3


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_reads_as_its_file_does(valid, tmp_path):
    path = tmp_path / "s.ndjson"
    path.write_bytes(valid["samples"])
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, valid["samples"])  # a few hundred bytes: within the pipe's buffer
        os.close(write_end)
        header, entries = read_samples(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    want_header, want = read_samples(path)
    assert header == want_header and [e.keys() for e in entries] == [e.keys() for e in want]
    assert all(np.array_equal(e[k], w[k]) for e, w in zip(entries, want) for k in e)
