"""Memory guard: making, reading, writing or training on a dataset holds it about once, and so does a force path.

The tracemalloc peak of ``datasets.generate`` and of ``formats.read_dataset``
on the default halfmoons spec must stay within ``PEAK_RATIO`` of the bytes
the batch they return holds: its ``x`` and ``v`` blocks, since it derives
``a`` and ``f`` only when they are read.  The simulator integrates into the
batch's own ``x``/``v`` blocks, on the pool path too, and checks and
converts them 32 trajectories at a time; the reader streams its file a line
at a time and checks the derivation 32 trajectories at a time, keeping
nothing; so ``generate`` reads about 1.05 here (1.45 on the pool at 20
steps, where the RK4 stages weigh more against the blocks) and
``read_dataset`` about 1.1.  Derived ``a``/``f`` blocks built or kept beside
the batch, a state array kept beside the blocks, chunks concatenated into a
second block, or the whole file text held as a string, would each read 1.9
or more.  ``write_dataset`` streams its lines, so it holds about 0.01 of the
batch beside it, where the whole text would be 1.4.  Reading every record's
``a`` and ``f`` in order holds one 32-row block of them at a time, about
0.14 of the blocks, within ``READ_RATIO``; whole derived blocks kept on the
batch read 1.27, and 128-row blocks 0.52.  Records, and ``train``, leave
nothing derived on the batch until a record's ``a`` or ``f`` is read.  o1o2
training derives its acceleration target from each chunk's gathered ``v``
rows, so ``train`` holds about 0.3 of its split's blocks beside them, within
``TRAIN_RATIO``; the split's whole ``a`` block alone is 0.5, and the peak
with it was 1.3.
"""

import gc
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from form_lab.datasets import DatasetSpec, generate, holdout_split
from form_lab.dynamics import BLOCKS
from form_lab.formats import read_dataset, write_dataset
from form_lab.relativity import DEFAULT_PHYSICS
from form_lab.sampling import force_path
from form_lab.training import CHUNK_STEPS, TrainConfig, train

PEAK_RATIO = 1.5

WRITE_RATIO = 0.25

READ_RATIO = 0.25

TRAIN_RATIO = 0.5

PATH_RATIO = 1.25

SPEC = DatasetSpec(kind="halfmoons")


def _block_bytes(batch) -> int:
    return sum(getattr(batch, k).nbytes for k in BLOCKS)


def _holds_only_its_fields(batch) -> bool:
    """Nothing derived, such as ``a`` and ``f``, is cached on the batch."""
    return vars(batch).keys() == {f.name for f in fields(batch)}


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


def test_pool_path_integrates_into_one_block():
    """8 192 points run on two workers, whose chunks write into the rows of one x/v block."""
    spec = replace(SPEC, n_points=8192, n_steps=20)
    generate(replace(SPEC, n_points=2, n_steps=2))
    batch, peak = _traced_peak(lambda: generate(spec, max_workers=2))
    assert peak <= PEAK_RATIO * _block_bytes(batch), peak / _block_bytes(batch)


def test_write_dataset_streams_its_lines(tmp_path):
    batch = generate(SPEC)
    write_dataset(tmp_path / "warm.ndjson", batch[:2], replace(SPEC, n_points=2), DEFAULT_PHYSICS)
    _, peak = _traced_peak(lambda: write_dataset(tmp_path / "d.ndjson", batch, SPEC, DEFAULT_PHYSICS))
    assert peak <= WRITE_RATIO * _block_bytes(batch), peak / _block_bytes(batch)


def test_records_derive_nothing_until_read():
    batch = generate(SPEC)
    records = list(batch)
    assert [r.x0.tolist() for r in records] == batch.x0.tolist()
    assert _holds_only_its_fields(batch)
    assert records[7].a.tobytes() == batch.a[7].tobytes() and records[7].f.tobytes() == batch.f[7].tobytes()


def test_reading_every_records_a_and_f_holds_one_block_at_a_time():
    """What a read-back check does: every record's ``a`` and ``f``, in order, each read and let go."""
    generate(replace(SPEC, n_points=2, n_steps=2))[0].a
    batch = generate(SPEC)
    nbytes, peak = _traced_peak(lambda: sum(rec.a.nbytes + rec.f.nbytes for rec in batch))
    assert nbytes == _block_bytes(batch)
    assert peak <= READ_RATIO * _block_bytes(batch), peak / _block_bytes(batch)


def test_o1o2_training_caches_nothing_on_its_batch():
    rows = generate(SPEC)[:100]
    train(rows, TrainConfig(method="o1o2", steps=2, batch_size=8))
    assert _holds_only_its_fields(rows)


def test_o1o2_training_derives_its_target_a_chunk_at_a_time():
    split = holdout_split(generate(SPEC))[0]
    config = TrainConfig(method="o1o2", steps=CHUNK_STEPS + 1)
    train(split[:2], replace(config, steps=1))
    _, peak = _traced_peak(lambda: train(split, config))
    assert peak <= TRAIN_RATIO * _block_bytes(split), peak / _block_bytes(split)


def test_force_path_checks_its_speeds_a_block_of_steps_at_a_time():
    """``force_path`` refuses a speed that float64 rounds to c after its loop, on blocks of steps of 64 KB at most:
    it holds its ``x`` and ``v`` paths about once (1.07 on 200 points and 1 000 steps), where ``|v|^2`` of the whole
    path at once would read about 1.5."""
    x0 = np.random.default_rng(0).normal(size=(200, 2))

    def components(x, t):
        return np.sin(t), 3.0

    force_path(components, x0, np.ones(2), 1.0, 5)  # numpy's lazy imports are not the path's
    path, peak = _traced_peak(lambda: force_path(components, x0, np.ones(2), 1.0, 1000))
    assert peak < PATH_RATIO * (path.x.nbytes + path.v.nbytes)
