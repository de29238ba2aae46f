"""Memory guard: making or reading a dataset holds it about once.

The tracemalloc peak of ``datasets.generate`` and of ``formats.read_dataset``
on the default halfmoons spec must stay within ``PEAK_RATIO`` of the bytes of
the batch they return (its ``x``, ``v``, ``a`` and ``f`` blocks).  The
simulator integrates into the batch's own ``x``/``v`` blocks and the reader
streams its file a line at a time, so both read about 1.15 here; a state
array kept beside the blocks, or the whole file text held as a string, would
read 1.3 or more.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from form_lab.datasets import DatasetSpec, generate
from form_lab.formats import read_dataset, write_dataset
from form_lab.relativity import DEFAULT_PHYSICS

PEAK_RATIO = 1.25

SPEC = DatasetSpec(kind="halfmoons")


def _block_bytes(batch) -> int:
    return sum(getattr(batch, k).nbytes for k in ("x", "v", "a", "f"))


def _traced_peak(fn):
    """``fn()`` and the peak of memory that tracemalloc saw allocated during the call."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "halfmoons.ndjson"
    write_dataset(path, generate(SPEC), SPEC, DEFAULT_PHYSICS)
    return path


def test_generate_holds_the_batch_about_once():
    generate(replace(SPEC, n_points=2, n_steps=2))  # numpy's lazy imports (about 0.6 MB) are not the dataset's
    batch, peak = _traced_peak(lambda: generate(SPEC))
    assert peak <= PEAK_RATIO * _block_bytes(batch), peak / _block_bytes(batch)


def test_read_dataset_holds_the_batch_about_once(dataset_file):
    (_, batch), peak = _traced_peak(lambda: read_dataset(dataset_file))
    assert peak <= PEAK_RATIO * _block_bytes(batch), peak / _block_bytes(batch)
