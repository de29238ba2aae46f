"""Memory guard: making or reading a dataset holds it about once.

The tracemalloc peak of ``datasets.generate`` and of ``formats.read_dataset``
on the default halfmoons spec must stay within ``PEAK_RATIO`` of the bytes
the batch they return holds: its ``x`` and ``v`` blocks, since it derives
``a`` and ``f`` only when they are read.  The simulator integrates into the
batch's own ``x``/``v`` blocks, and the reader streams its file a line at a
time and checks the derivation 128 trajectories at a time, keeping nothing;
so ``generate`` reads about 1.2 here and ``read_dataset`` about 1.4.  Derived
``a``/``f`` blocks built or kept beside the batch, a state array kept beside
the blocks, or the whole file text held as a string, would each read 1.9 or
more.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from form_lab.datasets import DatasetSpec, generate
from form_lab.dynamics import BLOCKS
from form_lab.formats import read_dataset, write_dataset
from form_lab.relativity import DEFAULT_PHYSICS

PEAK_RATIO = 1.5

SPEC = DatasetSpec(kind="halfmoons")


def _block_bytes(batch) -> int:
    return sum(getattr(batch, k).nbytes for k in BLOCKS)


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
