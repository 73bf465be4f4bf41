"""The bytes of every artifact kind, pinned by SHA-256: a dataset
(`write_dataset`), a checkpoint (`save_params`) and an index (`save_index`),
each built from fixed arrays that no random generator made, so a pin fails
only when a writer changes. A version-1 file of each kind is also read back
and must equal what was written.

A digest changes only with a deliberate change of the on-disk format; such a
change keeps the old files loadable and says so where it is made.
"""

import hashlib

import numpy as np
import pytest

from trifuse.data import ITEM_FIELDS, QUERY_FIELDS, Dataset, Manifest, read_dataset, write_dataset
from trifuse.fusion import FusionMode, FusionParams, VideoIndex, load_index, load_params, save_index, save_params

DIGESTS = {
    "dataset": {
        "manifest.json": "8e70e8079a294b415b09a23c1da93d5c3e0487119dc726e388abe5bac9e38450",
        "tensors.sve": "334a5b08d26e0ba439f83b496c4728aa8e9718bb7d8c83e79620b38075d2dbf1",
    },
    "checkpoint": {
        "c.ckpt": "d7b6b5ab19e273119eabc7db306b894f2b1017dc0b85ae28d1a145126970f749",
        "c.ckpt.json": "eb074725e6f6f85674b71ea5cbf66aa4796d74f672ced9dccf5a3168c1f23dfa",
    },
    "index_1": {
        "g.idx": "bdc7dbd597050cd03a5b67a89d4ff5304f76fa1b801289fa0938f5f8d3594c50",
        "g.idx.json": "a72d3be330e3b77834f8b4a9ff53324b06cc2b0f8285bfbb26652eb5442badb3",
    },
    "index_3": {
        "g.idx": "f3dfa7b30b5f2d40bacdcbb37276ca6a3b46ec3b1a8b2e5e9c758e1eb29a93b8",
        "g.idx.json": "f45ff8e35eaee7a6cebf7bcf1cff1cb1bfa255ecfa5b79616b8e317b751e2865",
    },
}


def ramp(shape, start: float = 0.0, step: float = 0.125) -> np.ndarray:
    """start, start + step, ... in C order, as float32 of `shape`."""
    return (start + step * np.arange(int(np.prod(shape)), dtype=np.float64)).reshape(shape).astype(np.float32)


def fixed_dataset() -> Dataset:
    """Three items (d = 4, m = 2): audio on it0 and it2, speech on it0 and
    it1, teacher embeddings on it1 and it2; one query per item."""
    manifest = Manifest(dim=4, teacher_dim=3, frames=2, speech_pad=3, audio_pad=2,
                        splits={"train": {"items": ["it0", "it1"], "queries": ["q0", "q1"]},
                                "test": {"items": ["it2"], "queries": ["q2"]}})
    columns = {
        "items/visual": ramp((6, 4), -1.0),
        "items/audio": ramp((5, 4), 0.5, -0.25),
        "items/speech": ramp((4, 4), 2.0, 0.0625),
        "items/teacher_video": ramp((2, 3), 0.25, 0.5),
        "items/teacher_audio": ramp((2, 3), -0.75, 0.375),
        "queries/embedding": ramp((3, 4), 1.0, -0.1875),
    }
    return Dataset(manifest, columns, item_ids=["it0", "it1", "it2"], item_groups=["sound", "speech", None],
                   audio_lens=[3, 0, 2], speech_lens=[1, 3, 0], has_teacher=[False, True, True],
                   query_ids=["q0", "q1", "q2"], ground_truth_items=["it0", "it1", "it2"],
                   query_groups=["visual"] * 3)


def fixed_params() -> FusionParams:
    """A small model whose every parameter, the 0-d gates and logit scale and
    the 1-d biases and gains among them, is a ramp of its own start."""
    params = FusionParams(dim=4, frames=2, heads=2, fusion_depth=1, resampler_depth=1, max_audio_len=3)
    for k, (_, p) in enumerate(params.named_parameters()):
        p.data = ramp(p.data.shape, 0.03125 * k - 1.0, 0.015625)
    return params


def fixed_index(n: int) -> VideoIndex:
    return VideoIndex(mode=FusionMode.AVIGATE, item_ids=[f"v{k}" for k in range(n)],
                      tokens=ramp((n, 2, 4), 0.5, -0.09375), pooled=ramp((n, 4), -0.25, 0.21875))


def write(kind: str, out) -> None:
    """Write the fixed artifact `kind` (a key of DIGESTS) under `out`."""
    if kind == "dataset":
        write_dataset(fixed_dataset(), out)
    elif kind == "checkpoint":
        save_params(fixed_params(), out / "c.ckpt")
    else:
        save_index(fixed_index(int(kind.removeprefix("index_"))), out / "g.idx")


def digests(out) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("kind", list(DIGESTS))
def test_artifact_bytes_are_pinned(tmp_path, kind):
    write(kind, tmp_path)
    assert digests(tmp_path) == DIGESTS[kind]


def test_pinned_artifacts_read_back(tmp_path):
    write("dataset", tmp_path / "d")
    back, want = read_dataset(tmp_path / "d"), fixed_dataset()
    for name in (*ITEM_FIELDS.values(), *QUERY_FIELDS.values()):
        assert getattr(back, name) == getattr(want, name), name
    assert back.manifest == want.manifest
    for name, column in want.columns.items():
        if "teacher" not in name:  # teacher rows are scaled to unit norm on read
            assert back.columns[name].tobytes() == column.tobytes()

    (tmp_path / "c").mkdir()
    write("checkpoint", tmp_path / "c")
    loaded = dict(load_params(tmp_path / "c" / "c.ckpt").named_parameters())
    for name, p in fixed_params().named_parameters():
        assert loaded[name].data.shape == p.data.shape and loaded[name].data.tobytes() == p.data.tobytes()

    (tmp_path / "i").mkdir()
    write("index_3", tmp_path / "i")
    index, want = load_index(tmp_path / "i" / "g.idx"), fixed_index(3)
    assert (index.mode, index.item_ids) == (want.mode, want.item_ids)
    assert index.tokens.tobytes() == want.tokens.tobytes() and index.pooled.tobytes() == want.pooled.tobytes()
