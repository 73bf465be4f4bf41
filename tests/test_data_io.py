"""Container format, dataset round-trips, missing-modality fill, batching."""

import json
import struct

import numpy as np
import pytest

from trifuse import data
from trifuse.data import (
    ContainerError,
    Dataset,
    ItemRecord,
    Manifest,
    QueryRecord,
    ValidationError,
    batch_iter,
    read_container,
    read_dataset,
    resolve_missing,
    write_container,
    write_dataset,
)


def tiny_dataset(n_items=4, d=6, d_t=5, m=3, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    items, queries = {}, {}
    for i in range(n_items):
        iid = f"it{i:03d}"
        tv = rng.normal(size=d_t).astype(np.float32)
        ta = rng.normal(size=d_t).astype(np.float32)
        items[iid] = ItemRecord(
            item_id=iid,
            visual_tokens=rng.normal(size=(m, d)).astype(np.float32),
            audio_tokens=rng.normal(size=(4, d)).astype(np.float32) if i % 2 == 0 else None,
            speech_tokens=rng.normal(size=(5, d)).astype(np.float32) if i % 3 == 0 else None,
            teacher_video=tv / np.linalg.norm(tv),
            teacher_audio=ta / np.linalg.norm(ta),
            group="visual",
        )
        qid = f"q{i:03d}"
        queries[qid] = QueryRecord(qid, rng.normal(size=d).astype(np.float32), iid, "visual")
    ids = sorted(items)
    qids = sorted(queries)
    manifest = Manifest(
        dim=d,
        teacher_dim=d_t,
        frames=m,
        speech_pad=8,
        audio_pad=m,
        splits={"train": {"items": ids[:2], "queries": qids[:2]}, "test": {"items": ids, "queries": qids}},
    )
    return Dataset(manifest=manifest, items=items, queries=queries)


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        records = {
            "a/tokens": (data.KIND_TOKENS, rng.normal(size=(3, 4)).astype(np.float32)),
            "b/vec": (data.KIND_VECTOR, rng.normal(size=7).astype(np.float32)),
        }
        write_container(tmp_path / "t.sve", records)
        out = read_container(tmp_path / "t.sve")
        assert set(out) == set(records)
        for name in records:
            kind, arr = records[name]
            okind, oarr = out[name]
            assert okind == kind
            assert oarr.tobytes() == arr.astype("<f4").tobytes()

    def test_empty_container(self, tmp_path):
        write_container(tmp_path / "e.sve", {})
        assert read_container(tmp_path / "e.sve") == {}

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.sve"
        p.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(ContainerError, match="unrecognized container"):
            read_container(p)

    def test_truncated_payload_names_record(self, tmp_path):
        p = tmp_path / "t.sve"
        write_container(p, {"item/x/visual": (0, np.ones((4, 4), dtype=np.float32))})
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])  # chop the declared payload short
        with pytest.raises(ContainerError, match="corrupt record item/x/visual"):
            read_container(p)

    def test_scalar_record_round_trips_as_length_one_vector(self, tmp_path):
        p = tmp_path / "s.sve"
        write_container(p, {"gate": (data.KIND_VECTOR, np.float32(0.25))})
        _, arr = read_container(p)["gate"]
        np.testing.assert_array_equal(arr, np.array([0.25], dtype=np.float32))

    @staticmethod
    def record(name: bytes, kind: int) -> bytes:
        """One hand-built (1, 2) record."""
        return struct.pack("<H", len(name)) + name + struct.pack("<BII", kind, 1, 2) + np.ones(2, "<f4").tobytes()

    @pytest.mark.parametrize(
        "records, tail, match",
        [
            ([(b"\xffname", 0)], b"", "not UTF-8"),
            ([(b"a", 0), (b"a", 1)], b"", "duplicate record a"),
            ([(b"a", 0), (b"b", 7)], b"", "record b has unknown kind 7"),
            ([(b"a", 0)], b"\x00\x00", "2 trailing bytes"),
        ],
        ids=["non_utf8_name", "duplicate_name", "unknown_kind", "trailing_bytes"],
    )
    def test_malformed_record_rejected(self, tmp_path, records, tail, match):
        body = b"".join(self.record(name, kind) for name, kind in records)
        p = tmp_path / "m.sve"
        p.write_bytes(data.MAGIC + struct.pack("<II", data.VERSION, len(records)) + body + tail)
        with pytest.raises(ContainerError, match=match):
            read_container(p)

    def test_single_byte_flips_load_or_raise_container_error(self, tmp_path):
        p = tmp_path / "f.sve"
        write_container(p, {
            "a/tokens": (data.KIND_TOKENS, np.arange(6, dtype=np.float32).reshape(2, 3)),
            "b/vec": (data.KIND_VECTOR, np.ones(4, dtype=np.float32)),
        })
        blob = p.read_bytes()
        rng = np.random.default_rng(0)
        for _ in range(300):
            flipped = bytearray(blob)
            flipped[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
            p.write_bytes(bytes(flipped))
            try:
                read_container(p)
            except ContainerError:
                pass


class TestDatasetIO:
    def test_round_trip_field_for_field(self, tmp_path):
        ds = tiny_dataset()
        write_dataset(ds, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert set(back.items) == set(ds.items)
        assert set(back.queries) == set(ds.queries)
        assert back.manifest == ds.manifest
        for iid, item in ds.items.items():
            got = back.items[iid]
            assert got.visual_tokens.tobytes() == item.visual_tokens.tobytes()
            assert (got.audio_tokens is None) == (item.audio_tokens is None)
            if item.audio_tokens is not None:
                assert got.audio_tokens.tobytes() == item.audio_tokens.tobytes()
            assert got.group == item.group
        for qid, query in ds.queries.items():
            got = back.queries[qid]
            assert got.embedding.tobytes() == query.embedding.tobytes()
            assert got.ground_truth_item == query.ground_truth_item

    def test_two_writes_identical_bytes(self, tmp_path):
        ds = tiny_dataset()
        write_dataset(ds, tmp_path / "a")
        write_dataset(ds, tmp_path / "b")
        assert (tmp_path / "a" / "tensors.sve").read_bytes() == (tmp_path / "b" / "tensors.sve").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

    def test_dim_violation_names_item(self, tmp_path):
        ds = tiny_dataset()
        ds.items["it001"].visual_tokens = np.zeros((2, 6), dtype=np.float32)  # wrong row count
        with pytest.raises(ValidationError, match="it001"):
            write_dataset(ds, tmp_path / "ds")

    def test_unknown_gt_rejected(self, tmp_path):
        ds = tiny_dataset()
        ds.queries["q000"].ground_truth_item = "missing"
        with pytest.raises(ValidationError, match="q000"):
            write_dataset(ds, tmp_path / "ds")

    def test_teacher_vectors_unit_norm_after_load(self, tmp_path):
        ds = tiny_dataset()
        ds.items["it000"].teacher_video = np.full(5, 2.0, dtype=np.float32)  # norm != 1 on disk
        write_dataset(ds, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert abs(np.linalg.norm(back.items["it000"].teacher_video) - 1.0) < 1e-6

    def test_manifest_tensor_mismatch(self, tmp_path):
        ds = tiny_dataset()
        write_dataset(ds, tmp_path / "ds")
        # drop one tensor the manifest still lists
        records = read_container(tmp_path / "ds" / "tensors.sve")
        del records["item/it000/visual"]
        write_container(tmp_path / "ds" / "tensors.sve", records)
        with pytest.raises(ContainerError, match="item/it000/visual"):
            read_dataset(tmp_path / "ds")

    @pytest.mark.parametrize(
        "record, value, match",
        [
            ("item/it001/visual", np.nan, "item it001: non-finite visual tokens"),
            ("item/it002/audio", np.inf, "item it002: non-finite audio tokens"),
            ("item/it003/speech", np.nan, "item it003: non-finite speech tokens"),
            ("item/it001/teacher_video", -np.inf, "item it001: non-finite teacher video"),
            ("item/it002/teacher_audio", np.nan, "item it002: non-finite teacher audio"),
            ("query/q003/embedding", np.nan, "query q003: non-finite embedding"),
        ],
        ids=["visual", "audio", "speech", "teacher_video", "teacher_audio", "query"],
    )
    def test_non_finite_value_names_record(self, tmp_path, record, value, match):
        write_dataset(tiny_dataset(), tmp_path / "ds")
        records = read_container(tmp_path / "ds" / "tensors.sve")
        kind, arr = records[record]
        arr = arr.copy()
        arr.flat[1] = value
        records[record] = (kind, arr)
        write_container(tmp_path / "ds" / "tensors.sve", records)
        with pytest.raises(ValidationError, match=match):
            read_dataset(tmp_path / "ds")

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda doc: doc["items"][1].pop("has_audio"), "KeyError: 'has_audio'"),
            (lambda doc: doc.update(m="three"), "ValueError: invalid literal"),
        ],
        ids=["missing_key", "wrong_type"],
    )
    def test_malformed_manifest_raises(self, tmp_path, edit, match):
        write_dataset(tiny_dataset(), tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContainerError, match=match):
            read_dataset(tmp_path / "ds")

    def test_empty_dataset(self, tmp_path):
        ds = Dataset(Manifest(dim=4, teacher_dim=2, frames=1, speech_pad=2, audio_pad=1), {}, {})
        write_dataset(ds, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert back.items == {} and back.queries == {}


class TestResolveMissing:
    def test_missing_audio_zero_filled(self):
        ds = tiny_dataset()
        man = ds.manifest
        item = ds.items["it001"]  # no audio
        assert item.audio_tokens is None
        out = resolve_missing(item, man)
        np.testing.assert_array_equal(out.audio_tokens, np.zeros((man.audio_pad, man.dim), dtype=np.float32))

    def test_missing_speech_zero_filled(self):
        ds = tiny_dataset()
        man = ds.manifest
        item = ds.items["it001"]
        out = resolve_missing(item, man)
        np.testing.assert_array_equal(out.speech_tokens, np.zeros((man.speech_pad, man.dim), dtype=np.float32))

    def test_complete_item_unchanged(self):
        ds = tiny_dataset()
        item = ds.items["it000"]  # has both
        out = resolve_missing(item, ds.manifest)
        assert out is item

    def test_idempotent(self):
        ds = tiny_dataset()
        once = resolve_missing(ds.items["it001"], ds.manifest)
        twice = resolve_missing(once, ds.manifest)
        assert twice is once


class TestBatchIter:
    IDS = [f"id{i}" for i in range(10)]

    def test_train_drops_last_partial(self):
        batches = list(batch_iter(self.IDS, 4, seed=0, train=True))
        assert [len(b) for b in batches] == [4, 4]

    def test_eval_keeps_all(self):
        batches = list(batch_iter(self.IDS, 4, seed=0, train=False))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [i for b in batches for i in b] == self.IDS

    def test_same_seed_same_sequence(self):
        a = list(batch_iter(self.IDS, 3, seed=7, train=True))
        b = list(batch_iter(self.IDS, 3, seed=7, train=True))
        assert a == b

    def test_different_seed_differs(self):
        a = [i for b in batch_iter(self.IDS, 5, seed=1, train=True) for i in b]
        b = [i for b in batch_iter(self.IDS, 5, seed=2, train=True) for i in b]
        assert a != b

    def test_eval_epoch_is_id_multiset(self):
        for seed in range(5):
            flat = [i for b in batch_iter(self.IDS, 3, seed=seed, train=False) for i in b]
            assert sorted(flat) == sorted(self.IDS)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            list(batch_iter(self.IDS, 11, seed=0, train=True))
