"""Golden bits: the datasets, checkpoints, samples and reports this build writes, pinned by sha256.

Generation, the derived ``a``/``f`` blocks, training, sampling, evaluation
and the writers promise byte-identical output for the same inputs, so a
refactor of any of them must leave these digests as they are.  They are
this build's bits (numpy 2.4.6 with scipy-openblas 0.3.31, on x86-64):
another numpy or BLAS build may round a transcendental function
differently, and would then need its own digests, as
``tests/test_blas_threads.py`` says of thread counts.  Each block is
hashed as its little-endian ``<f8`` bytes in C order.
"""

import hashlib

import numpy as np
import pytest

from form_lab.cli import main
from form_lab.datasets import KINDS, DatasetSpec, generate

SEEDS = (0, 3, 7)

# (kind, seed) -> sha256 of the x, v, a and f blocks of generate(DatasetSpec(kind, seed=seed))
BLOCK_DIGESTS = {
    ("onedot", 0): (
        "6a9346641f03fdbef35b426c9e4ab8c2b1eff0bcc0996608a31ed80294cf19ea",
        "feb314043b2f438d3e5de676e40a0bb3f2abc3b37e5f52f90f270f22e3932b5e",
        "e1bb0788f0c6bd26e0e1a7e699fa8e2a9db3de04250d6e18bcc52f0532c46282",
        "d6cb168db15e93e670e1443acd46187cce95686b62700c52398d9b76fc323500",
    ),
    ("onedot", 3): (
        "a97d43a652981b1354a679cd8fffe5da692af46cc23a1b4c0a10595b14406a73",
        "f024541e3ae496ca8dbf06a50e8ddeb583b73530f9b76df08a3fab7c9ff29e86",
        "b3abd76c947e65190267b017d96ad725b9a92f4e8a6f4a3e7d728129f9980028",
        "fa06c65cee2e2d4f4a5825c0e28a6b35fcd16f5f32c3a47084da9277bb94c402",
    ),
    ("onedot", 7): (
        "120eefb0da87fdaddb8bd905ad9a7b9d97071874949e6d8a743ec18c98cd29b3",
        "a2a66515d7ebbf3da44c9ed957da03a1d0dd98799d614b78bb269510d7434b68",
        "bf54271dea615ffb0853410d0130c4100cef47af03f7482220df5bfce867eb15",
        "a14f33422bc7042f61e81acf444d4a765902568af5c86bd64b646a7a39bba255",
    ),
    ("halfmoons", 0): (
        "d4e56147740dc016cf470d40af7c22939cff276679c0a32fb64ca7562b9f278b",
        "13a2a6ea2c43f8c6f595891a25308d44319a34c223f1079c699f5da8347ae805",
        "09133c8986a8cbb0b8203f85d1cb77d996d04adebd7c55890fc4839b23095c0a",
        "061f33ed026960342304858709fb782654fa803c78199a0ee565794551d288c4",
    ),
    ("halfmoons", 3): (
        "43652c922bebdb7a2e9a70601c3d7f9d2503129f5ec4c4bf425cf5fe84f4d5ad",
        "262cf2ef1e2e03f6624f1a48453b4e1e355fc3e59e8ff644aa52258d79b46e38",
        "b656177ba3894c25ac3e9a6641279352b7ed3fdfb8b63f9a45a7bca731404408",
        "dca1a22a7e7b54b40d8058bd9ad5a6714e0a6c7adb6bc8eb6471f644749fde07",
    ),
    ("halfmoons", 7): (
        "6a624fcf5432614e24524ddf8c94bdacc3276be1e87eb055eeb400491d078858",
        "2408cabe561951b65a998f75a244bbc02565d5b128ae8ea403939cdb6af11b99",
        "d1a614b939241ae41a23a54de2f39f0b3b28e31b0abe73fe362f0f1c5c8bc511",
        "7f2ab332b7f8ce24265a497bc4efccd826e4e3a90e7eda4eca026bbdf7055d8f",
    ),
    ("spiral", 0): (
        "b1d72f844ccec9c4c4fec1f90dc40f1cf2391c2ca820d7f47b74bf4f190ceca6",
        "3b18d4e3b3e761f13e6c19dde2a3977504f516d4ba401e72461872dd9abf9b7d",
        "cdce83c1ac0f75cc76f8cae219c9c39cd82865edb56baf5b93c4ecd309209376",
        "f171734ca47c0b37a9225c771b75a2802fb35ac7a9728d1de8e7285d47ad3227",
    ),
    ("spiral", 3): (
        "7667e7cd9c4e9a6838586a04b2ce8b9ee829f7b5d8c263b7ad8683e55b72074b",
        "a44ac0d046fc71564c493b25d166b27ed2c67b5ca866f1b4515f33e1b973ae84",
        "5c0f4b4e3695ebaab473c0de82f95e663c1fd12cf2d5ecc2845cfe1b42dc0a4d",
        "932675a438c3bc7299a49d0464a6d6092ad13fdeedbafbbaa6127fa9242d3f15",
    ),
    ("spiral", 7): (
        "bf687e8534b5274a527d9f00bccbf829d54646ef5442800a46aa1eeaafce26cd",
        "38b64d289f2bcfcfac88bfea70100cbc2c41b1d0ee72e0eb68aeccb35b43cf7e",
        "77f1b3e43cae39bedcd129013c870426d2089cd3b38b3649739b655066926684",
        "e65216376ad3d2b66ad8e7d3a372885fef9154e63e8baf3d2d3925fe586e74d4",
    ),
}

# kind -> sha256 of the file that `form-lab gen-data --dataset KIND` writes (default size, seed 0)
FILE_DIGESTS = {
    "onedot": "6f1b8c9bb91de8fb5e03b0085401a1b2e3f8dd89ae39087b007654424e43ed9b",
    "halfmoons": "ed5f022a200345b9e0485b6b7aedb7ac81928d46ad8e93cab0e41b40281a4a03",
    "spiral": "1f7405104b7006337fc67c0671b79e83a1fdecc4e3bee8d4a42ca4f3b700f33e",
}


# file name -> sha256 of what gen-data, train (o1o2), sample --paths and eval write in PIPELINE_RUN
PIPELINE_DIGESTS = {
    "model.ndjson": "cb61093f50a41a386956a69e2b9a25c98f2f4eb47b230f1112d79f52226b8621",
    "samples.ndjson": "82230bbd2d7c2d08ccd0859b4832031ad263472d4df7a8450dc56cfd31559223",
    "report.json": "f58c21c7674af09e4ec30cd5bf6e4e173a0719780792d0d485b0f1e18257e11a",
}

PIPELINE_RUN = (
    ("gen-data", "--dataset", "halfmoons", "--n", "60", "--steps", "50", "--out", "{dir}/data.ndjson"),
    ("train", "--data", "{dir}/data.ndjson", "--method", "o1o2", "--steps", "100", "--batch-size", "32",
     "--out", "{dir}/model.ndjson"),
    ("sample", "--model", "{dir}/model.ndjson", "--data", "{dir}/data.ndjson", "--M", "10", "--paths",
     "--out", "{dir}/samples.ndjson"),
    ("eval", "--model", "{dir}/model.ndjson", "--data", "{dir}/data.ndjson", "--M", "10",
     "--report", "{dir}/report.json"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_generated_blocks_keep_their_bits(kind, seed):
    batch = generate(DatasetSpec(kind=kind, seed=seed))
    got = tuple(_sha256(np.ascontiguousarray(getattr(batch, k), dtype="<f8").tobytes()) for k in ("x", "v", "a", "f"))
    assert got == BLOCK_DIGESTS[kind, seed]


@pytest.mark.parametrize("kind", KINDS)
def test_gen_data_file_keeps_its_bytes(kind, tmp_path):
    out = tmp_path / f"{kind}.ndjson"
    assert main(["gen-data", "--dataset", kind, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == FILE_DIGESTS[kind]


def test_pipeline_files_keep_their_bytes(tmp_path):
    for argv in PIPELINE_RUN:
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 0
    assert {name: _sha256((tmp_path / name).read_bytes()) for name in PIPELINE_DIGESTS} == PIPELINE_DIGESTS
