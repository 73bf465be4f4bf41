"""Container format, dataset round-trips, missing-modality fill, batching."""

import dataclasses
import json
import mmap
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from trifuse import data
from trifuse.cli import main
from trifuse.data import (
    GROUPS,
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
    write_json,
)
from trifuse.fusion import (FusionMode, FusionParams, VideoIndex, forward_video, load_index, load_params, save_index,
                            save_params)
from trifuse.synth import SynthConfig, generate, write_synthetic

from records import dataset_from_records


def tiny_records(n_items=4, d=6, d_t=5, m=3, seed=0) -> tuple[Manifest, dict, dict]:
    """A manifest and hand-built item and query records, before they become a dataset."""
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
    return manifest, items, queries


def tiny_dataset(**kwargs) -> Dataset:
    return dataset_from_records(*tiny_records(**kwargs))


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        records = {
            "a/tokens": rng.normal(size=(3, 4)).astype(np.float32),
            "b/vec": rng.normal(size=7).astype(np.float32),
        }
        write_container(tmp_path / "t.sve", records)
        out = read_container(tmp_path / "t.sve")
        assert set(out) == set(records)
        for name, arr in records.items():
            assert out[name].shape == arr.shape
            assert out[name].tobytes() == arr.astype("<f4").tobytes()

    def test_bytes_equal_one_joined_payload(self, tmp_path):
        """Streamed from the arrays' own memory, a container is byte-identical
        to the joined payload of header chunks and `tobytes()` copies."""
        rng = np.random.default_rng(9)
        records = {
            "a/tokens": rng.normal(size=(5, 3)).astype(np.float32),
            "b/transposed": rng.normal(size=(3, 4)).astype(np.float32).T,
            "c/float64": rng.normal(size=(2, 2)),
            "d/big_endian": rng.normal(size=(2, 3)).astype(">f4"),
            "e/vec": rng.normal(size=6).astype(np.float32),
            "f/scalar": np.float32(0.25),
            "g/empty": np.zeros((0, 4), dtype=np.float32),
            "h/n\u00e4me": rng.normal(size=(1, 2)).astype(np.float32),
        }
        chunks = [data.MAGIC, struct.pack("<II", data.VERSION, len(records))]
        for name, arr in records.items():
            arr = np.asarray(arr, dtype="<f4")
            kind, (rows, cols) = (1, (1, arr.size)) if arr.ndim < 2 else (0, arr.shape)
            name_bytes = name.encode("utf-8")
            chunks += [struct.pack("<H", len(name_bytes)), name_bytes, struct.pack("<BII", kind, rows, cols),
                       arr.tobytes(order="C")]
        write_container(tmp_path / "t.sve", records)
        assert (tmp_path / "t.sve").read_bytes() == b"".join(chunks)

    def test_empty_container(self, tmp_path):
        write_container(tmp_path / "e.sve", {})
        assert read_container(tmp_path / "e.sve") == {}

    def test_empty_file_is_unrecognized(self, tmp_path):
        p = tmp_path / "empty.sve"
        p.write_bytes(b"")
        with pytest.raises(ContainerError, match="unrecognized container"):
            read_container(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.sve"
        p.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(ContainerError, match="unrecognized container"):
            read_container(p)

    def test_truncated_payload_names_record(self, tmp_path):
        p = tmp_path / "t.sve"
        write_container(p, {"item/x/visual": np.ones((4, 4), dtype=np.float32)})
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])  # chop the declared payload short
        with pytest.raises(ContainerError, match="corrupt record item/x/visual"):
            read_container(p)

    def test_scalar_record_round_trips_as_length_one_vector(self, tmp_path):
        p = tmp_path / "s.sve"
        write_container(p, {"gate": np.float32(0.25)})
        arr = read_container(p)["gate"]
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
            "a/tokens": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b/vec": np.ones(4, dtype=np.float32),
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

    def test_shape_violation_raises_before_writing(self, tmp_path):
        """A hand-built record of the wrong shape raises ValueError before
        anything is written: from numpy where the records cannot be stacked,
        else from `_check` at `write_dataset`."""
        for owner, field, value in [
            ("it001", "visual_tokens", np.zeros((2, 6))),  # wrong row count
            ("it000", "audio_tokens", np.zeros((4, 5))),
            ("it003", "speech_tokens", np.zeros(6)),
            ("it002", "teacher_audio", np.zeros(4)),
            ("q001", "embedding", np.zeros(7)),
        ]:
            manifest, items, queries = tiny_records()
            setattr(queries[owner] if owner.startswith("q") else items[owner], field, value.astype(np.float32))
            with pytest.raises(ValueError):
                write_dataset(dataset_from_records(manifest, items, queries), tmp_path / "ds")
            assert not (tmp_path / "ds").exists()

    def test_unknown_gt_rejected(self, tmp_path):
        manifest, items, queries = tiny_records()
        queries["q000"].ground_truth_item = "missing"
        with pytest.raises(ValidationError, match="q000"):
            write_dataset(dataset_from_records(manifest, items, queries), tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_teacher_vectors_unit_norm_after_load(self, tmp_path):
        manifest, items, queries = tiny_records()
        items["it000"].teacher_video = np.full(5, 2.0, dtype=np.float32)  # norm != 1 on disk
        write_dataset(dataset_from_records(manifest, items, queries), tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert abs(np.linalg.norm(back.items["it000"].teacher_video) - 1.0) < 1e-6

    def test_manifest_tensor_mismatch(self, tmp_path):
        ds = tiny_dataset()
        write_dataset(ds, tmp_path / "ds")
        # drop one tensor the manifest still lists
        records = read_container(tmp_path / "ds" / "tensors.sve")
        del records["items/visual"]
        write_container(tmp_path / "ds" / "tensors.sve", records)
        with pytest.raises(ContainerError, match="items/visual"):
            read_dataset(tmp_path / "ds")

    @pytest.mark.parametrize(
        "record, row, value, match",
        [
            # rows: it001's visual tokens start at 1*m = 3; audio is stacked for
            # it000 and it002 (4 rows each), speech for it000 and it003 (5 each)
            ("items/visual", 3, np.nan, "item it001: non-finite visual tokens"),
            ("items/audio", 4, np.inf, "item it002: non-finite audio tokens"),
            ("items/speech", 5, np.nan, "item it003: non-finite speech tokens"),
            ("items/teacher_video", 1, -np.inf, "item it001: non-finite teacher video"),
            ("items/teacher_audio", 2, np.nan, "item it002: non-finite teacher audio"),
            ("queries/embedding", 3, np.nan, "query q003: non-finite embedding"),
        ],
        ids=["visual", "audio", "speech", "teacher_video", "teacher_audio", "query"],
    )
    def test_non_finite_value_names_record(self, tmp_path, record, row, value, match):
        write_dataset(tiny_dataset(), tmp_path / "ds")
        records = read_container(tmp_path / "ds" / "tensors.sve")
        records[record] = records[record].copy()
        records[record][row, 1] = value
        write_container(tmp_path / "ds" / "tensors.sve", records)
        with pytest.raises(ValidationError, match=match):
            read_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("block_rows", [1, 2, 4, data.CHECK_BLOCK_ROWS])
    def test_first_non_finite_row_is_named_whatever_the_blocks(self, tmp_path, monkeypatch, block_rows):
        """Finiteness is tested a block of rows at a time; the error names the
        owner of the first bad row wherever the blocks end."""
        monkeypatch.setattr(data, "CHECK_BLOCK_ROWS", block_rows)
        write_dataset(tiny_dataset(), tmp_path / "ds")
        records = read_container(tmp_path / "ds" / "tensors.sve")
        arr = records["items/visual"] = records["items/visual"].copy()
        arr[7, 0], arr[10, 1] = np.nan, np.inf  # rows of it002 (6-8) and it003 (9-11)
        write_container(tmp_path / "ds" / "tensors.sve", records)
        with pytest.raises(ValidationError, match="item it002: non-finite visual tokens"):
            read_dataset(tmp_path / "ds")

    def test_finiteness_mask_is_a_block_not_the_record(self, tmp_path):
        """`_check` allocates under half the bytes of a whole-record mask of
        its largest record (speech, 819,200 values here)."""
        ds = generate(SynthConfig(n_items=200, speech_pad=256, seed=1))[0]
        write_dataset(ds, tmp_path / "ds")
        records = read_container(tmp_path / "ds" / "tensors.sve")
        tracemalloc.start()
        try:
            data._check(ds.manifest, data._fields(ds), records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(arr.size for arr in records.values())
        assert peak < largest / 2, (peak, largest)

    @pytest.mark.parametrize(
        "item, field, match",
        [
            ("it001", "visual_tokens", "item it001: non-finite visual tokens"),
            ("it002", "audio_tokens", "item it002: non-finite audio tokens"),
            ("it003", "speech_tokens", "item it003: non-finite speech tokens"),
            ("it001", "teacher_video", "item it001: non-finite teacher video"),
            ("it002", "teacher_audio", "item it002: non-finite teacher audio"),
            ("q003", "embedding", "query q003: non-finite embedding"),
        ],
        ids=["visual", "audio", "speech", "teacher_video", "teacher_audio", "query"],
    )
    def test_write_rejects_non_finite_value(self, tmp_path, item, field, match):
        ds = tiny_dataset()
        record = ds.queries[item] if field == "embedding" else ds.items[item]
        getattr(record, field).flat[-1] = np.nan
        with pytest.raises(ValidationError, match=match):
            write_dataset(ds, tmp_path / "ds")
        assert not any((tmp_path / "ds").glob("*"))

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda doc: doc["items"][1].pop("audio_len"), ContainerError, "KeyError: 'audio_len'"),
            (lambda doc: doc.update(m="three"), ContainerError, "FieldError: m must be an integer, got 'three'"),
            (lambda doc: doc["queries"][0].update(gt=["it000"]), ContainerError, "unhashable type: 'list'"),
            (lambda doc: doc["splits"]["test"]["items"].append(["it000"]), ContainerError, "unhashable type: 'list'"),
            (lambda doc: doc["items"][2].update(id="it001"), ValidationError, "duplicate item id it001"),
            (lambda doc: doc["queries"][3].update(id="q000"), ValidationError, "duplicate query id q000"),
            (lambda doc: doc["queries"][1].update(id=7), ContainerError, "query id 7 is not a string"),
            (lambda doc: doc["items"].insert(0, doc["items"].pop(1)), ValidationError,
             "item ids out of order: it001 is listed before it000"),
            (lambda doc: doc["queries"].append(doc["queries"].pop(0)), ValidationError,
             "query ids out of order: q003 is listed before q000"),
            (lambda doc: doc["items"][1].update(has_teacher=1), ContainerError,
             "item it001: has_teacher is 1, not a boolean"),
            (lambda doc: doc["queries"][2].update(group="music"), ValidationError,
             "query q002: unknown group 'music'"),
            (lambda doc: doc["splits"]["train"]["queries"].append("q999"), ValidationError,
             "split train: unknown query q999"),
            (lambda doc: doc.update(m=0), ContainerError, "FieldError: m must be an integer >= 1, got 0"),
        ],
        ids=["missing_key", "wrong_type", "gt_list", "split_member_list", "duplicate_item", "duplicate_query",
             "query_id_int", "unsorted_items", "unsorted_queries", "has_teacher_int", "unknown_group", "unknown_split_member", "zero_frames"],
    )
    def test_malformed_manifest_raises(self, tmp_path, edit, error, match):
        write_dataset(tiny_dataset(), tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(error, match=match):
            read_dataset(tmp_path / "ds")

    def test_empty_dataset(self, tmp_path):
        ds = dataset_from_records(Manifest(dim=4, teacher_dim=2, frames=1, speech_pad=2, audio_pad=1), {}, {})
        write_dataset(ds, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert back.items == {} and back.queries == {}


def mixed_dataset(d=4, d_t=3, m=2) -> Dataset:
    """Mixed audio and speech lengths (0: absent), items without teachers and
    one teacher row far from unit norm."""
    rng = np.random.default_rng(5)

    def unit(v):
        return (v / np.linalg.norm(v)).astype(np.float32)

    items = {}
    for k, (audio_len, speech_len) in enumerate([(3, 0), (0, 2), (1, 5), (0, 0), (6, 1)]):
        iid = f"v{k}"
        teacher = k != 1 and k != 3
        items[iid] = ItemRecord(
            item_id=iid,
            visual_tokens=rng.normal(size=(m, d)).astype(np.float32),
            audio_tokens=rng.normal(size=(audio_len, d)).astype(np.float32) if audio_len else None,
            speech_tokens=rng.normal(size=(speech_len, d)).astype(np.float32) if speech_len else None,
            teacher_video=unit(rng.normal(size=d_t)) if teacher else None,
            teacher_audio=unit(rng.normal(size=d_t)) if teacher else None,
            group=GROUPS[k % len(GROUPS)],
        )
    items["v2"].teacher_video = np.array([3.0, 0.0, 4.0], dtype=np.float32)
    queries = {
        f"q{k}": QueryRecord(f"q{k}", rng.normal(size=d).astype(np.float32), f"v{k % 5}", GROUPS[k % len(GROUPS)])
        for k in range(7)
    }
    manifest = Manifest(dim=d, teacher_dim=d_t, frames=m, speech_pad=2, audio_pad=3,
                        splits={"test": {"items": sorted(items), "queries": sorted(queries)}})
    return dataset_from_records(manifest, items, queries)


ITEM_FIELDS = ("visual_tokens", "audio_tokens", "speech_tokens", "teacher_video", "teacher_audio")


class TestPerFieldLayout:
    @pytest.mark.parametrize(
        "ds",
        [mixed_dataset(),
         dataset_from_records(Manifest(dim=4, teacher_dim=2, frames=1, speech_pad=2, audio_pad=1), {}, {})],
        ids=["mixed", "empty"],
    )
    def test_round_trip_bit_exact(self, tmp_path, ds):
        write_dataset(ds, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert back.manifest == ds.manifest
        assert set(back.items) == set(ds.items) and set(back.queries) == set(ds.queries)
        for iid, item in ds.items.items():
            got = back.items[iid]
            assert got.group == item.group
            for name in ITEM_FIELDS:
                want = getattr(item, name)
                if name == "teacher_video" and iid == "v2":
                    want = want / np.linalg.norm(want)  # the one non-unit teacher row
                have = getattr(got, name)
                assert (have is None) == (want is None), (iid, name)
                if want is not None:
                    assert have.dtype == np.float32 and have.shape == want.shape, (iid, name)
                    assert have.tobytes() == want.tobytes(), (iid, name)
        for qid, query in ds.queries.items():
            got = back.queries[qid]
            assert got.embedding.tobytes() == query.embedding.tobytes()
            assert (got.ground_truth_item, got.group) == (query.ground_truth_item, query.group)

    def test_one_record_per_field(self, tmp_path):
        write_dataset(mixed_dataset(), tmp_path / "ds")
        records = read_container(tmp_path / "ds" / "tensors.sve")
        assert {name: arr.shape for name, arr in records.items()} == {
            "items/visual": (10, 4),
            "items/audio": (10, 4),
            "items/speech": (8, 4),
            "items/teacher_video": (3, 3),
            "items/teacher_audio": (3, 3),
            "queries/embedding": (7, 4),
        }
        items = json.loads((tmp_path / "ds" / "manifest.json").read_text())["items"]
        assert [(i["audio_len"], i["speech_len"], i["has_teacher"]) for i in items] == [
            (3, 0, True), (0, 2, False), (1, 5, True), (0, 0, False), (6, 1, True)
        ]

    def test_items_are_read_only_views_of_one_buffer(self, tmp_path):
        write_dataset(mixed_dataset(), tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        v0, v1 = back.items["v0"].visual_tokens, back.items["v1"].visual_tokens
        assert np.shares_memory(v0.base, v1)  # the items/visual record

        def owner(arr):
            while isinstance(arr, np.ndarray):
                arr = arr.base
            return arr.obj if isinstance(arr, memoryview) else arr

        views = [v1, back.items["v2"].audio_tokens, back.items["v4"].speech_tokens, back.items["v0"].teacher_audio]
        assert isinstance(owner(v0), mmap.mmap)  # the container file, mapped read-only
        for arr in views:
            assert owner(arr) is owner(v0) and not arr.flags.writeable
        # query embeddings are copied out and do not hold the container
        assert owner(back.queries["q6"].embedding) is not owner(v0)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda doc: doc["items"][0].update(audio_len=-1), "record items/audio: item v0 has length -1"),
            (lambda doc: doc["items"][2].update(speech_len="5"), "record items/speech: item v2 has length '5'"),
            (lambda doc: doc["items"][2].update(speech_len=5.0), "record items/speech: item v2 has length 5.0"),
            (lambda doc: doc["items"][1].update(audio_len=10**6), r"record items/audio has shape \(10, 4\)"),
            (lambda doc: doc["items"][1].update(has_teacher=True), r"record items/teacher_video has shape \(3, 3\)"),
            (lambda doc: doc.update(teacher_dim=4), r"items/teacher_video has shape \(3, 3\), the manifest implies \(3, 4\)"),
            (lambda doc: doc["queries"].pop(), r"record queries/embedding has shape \(7, 4\)"),
            (lambda doc: doc.update(m=3), r"record items/visual has shape \(10, 4\)"),
        ],
        ids=["negative_length", "string_length", "float_length", "length_too_large", "teacher_count",
             "teacher_dim", "query_count", "frames"],
    )
    def test_manifest_disagreement_names_record(self, tmp_path, edit, match):
        write_dataset(mixed_dataset(), tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContainerError, match=match):
            read_dataset(tmp_path / "ds")

    def test_per_item_layout_rejected(self, tmp_path):
        ds = tiny_dataset()
        write_dataset(ds, tmp_path / "ds")
        write_container(tmp_path / "ds" / "tensors.sve",
                        {f"item/{iid}/visual": it.visual_tokens for iid, it in ds.items.items()})
        with pytest.raises(ContainerError, match="container lacks record items/visual"):
            read_dataset(tmp_path / "ds")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_single_byte_flips_load_or_raise(self, tmp_path):
        write_dataset(tiny_dataset(n_items=3, d=3, d_t=2, m=2), tmp_path / "ds")
        p = tmp_path / "ds" / "tensors.sve"
        blob = p.read_bytes()
        rng = np.random.default_rng(0)
        for _ in range(300):
            flipped = bytearray(blob)
            flipped[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
            p.write_bytes(bytes(flipped))
            try:
                read_dataset(tmp_path / "ds")
            except (ContainerError, ValidationError):
                pass


def _assert_fields_equal(back: Dataset, ds: Dataset) -> None:
    """Every field of every item and query of `back` is bit-equal to `ds`'s."""
    assert list(back.items) == sorted(ds.items) and list(back.queries) == sorted(ds.queries)
    for iid, item in ds.items.items():
        got = back.items[iid]
        assert (got.item_id, got.group) == (item.item_id, item.group)
        for name in ITEM_FIELDS:
            want, have = getattr(item, name), getattr(got, name)
            assert (have is None) == (want is None), (iid, name)
            if want is not None:
                assert have.shape == want.shape and have.tobytes() == want.tobytes(), (iid, name)
    for qid, query in ds.queries.items():
        got = back.queries[qid]
        assert (got.query_id, got.ground_truth_item, got.group) == (query.query_id, query.ground_truth_item, query.group)
        assert got.embedding.tobytes() == query.embedding.tobytes()


class TestBuiltOnLookup:
    """`read_dataset` checks every entry and record, then builds each item and
    query the first time it is looked up."""

    @staticmethod
    def count_built(monkeypatch) -> list[str]:
        """The ids of the ItemRecords made from now on, however they are made."""
        built, init = [], ItemRecord.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.item_id)

        monkeypatch.setattr(ItemRecord, "__init__", counted)
        return built

    def test_only_the_split_looked_up_is_built(self, tmp_path, monkeypatch):
        write_dataset(generate(SynthConfig(n_items=200, seed=1))[0], tmp_path / "ds")
        built = self.count_built(monkeypatch)
        back = read_dataset(tmp_path / "ds")
        assert built == []
        test_ids = back.manifest.splits["test"]["items"]
        assert [item.item_id for item in back.split_items("test")] == test_ids
        assert built == test_ids and len(test_ids) < len(back.items) / 4

    def test_repeated_lookup_returns_the_same_object(self, tmp_path):
        write_dataset(mixed_dataset(), tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert back.items["v3"] is back.items["v3"] is back.split_items("test")[3]
        assert back.queries["q2"] is back.queries["q2"] is back.split_queries("test")[2]
        assert list(back.items.values()) == [back.items[i] for i in back.items]

    def test_len_order_and_membership_follow_the_manifest(self, tmp_path, monkeypatch):
        write_dataset(mixed_dataset(), tmp_path / "ds")
        built = self.count_built(monkeypatch)
        back = read_dataset(tmp_path / "ds")
        doc = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        for mapping, metas in ((back.items, doc["items"]), (back.queries, doc["queries"])):
            ids = [meta["id"] for meta in metas]
            assert len(mapping) == len(ids) and list(mapping) == ids
            assert all(i in mapping for i in ids) and "missing" not in mapping
            with pytest.raises(KeyError):
                mapping["missing"]
        assert built == []  # neither len, iteration nor `in` builds a record

    @pytest.mark.parametrize(
        "config",
        [dict(n_items=300), dict(n_items=300, missing_audio=0.3, missing_speech=0.3), dict(n_items=10000)],
        ids=["synth_defaults", "missing_modalities", "eval_workload"],
    )
    def test_every_field_matches_the_written_dataset(self, tmp_path, config):
        ds, _ = generate(SynthConfig(**config, seed=1))
        write_dataset(ds, tmp_path / "ds")
        _assert_fields_equal(read_dataset(tmp_path / "ds"), ds)

    def test_queries_do_not_keep_the_container_mapped(self, tmp_path):
        write_dataset(mixed_dataset(), tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        view = back.items["v0"].visual_tokens
        while isinstance(view, np.ndarray):
            view = view.base
        mapped = weakref.ref(view.obj)
        queries = back.split_queries("test")
        del back, view
        assert mapped() is None and len(queries) == 7

    @pytest.mark.parametrize(
        "dataset",
        [mixed_dataset, lambda: generate(SynthConfig(n_items=200, missing_audio=0.5, seed=1))[0]],
        ids=["mixed", "missing_audio"],
    )
    def test_longest_audio_builds_no_item(self, tmp_path, monkeypatch, dataset):
        ds = dataset()
        write_dataset(ds, tmp_path / "ds")
        built = self.count_built(monkeypatch)
        back = read_dataset(tmp_path / "ds")
        assert back.longest_audio() == ds.longest_audio() > 0 and built == []

    def test_longest_audio_counts_absent_audio_as_its_zero_fill(self, tmp_path):
        ds = mixed_dataset()
        ds.manifest.audio_pad = 9  # longer than any item's audio (6 tokens)
        write_dataset(ds, tmp_path / "ds")
        assert ds.longest_audio() == read_dataset(tmp_path / "ds").longest_audio() == 9
        with_audio = {k: v for k, v in ds.items.items() if v.audio_tokens is not None}
        assert dataset_from_records(ds.manifest, with_audio, {}).longest_audio() == 6
        assert dataset_from_records(ds.manifest, {}, {}).longest_audio() == 0

    def test_bad_group_on_the_last_item_fails_the_read(self, tmp_path):
        write_dataset(mixed_dataset(), tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["items"][-1]["group"] = "music"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="item v4: unknown group 'music'"):
            read_dataset(tmp_path / "ds")

    def test_readable_after_its_container_is_replaced(self, tmp_path):
        """`atomic_write` renames a new file over the mapped one; the mapped
        one lives on until its last view is gone."""
        old, new = tiny_dataset(seed=1), tiny_dataset(seed=2)
        write_dataset(old, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        write_dataset(new, tmp_path / "ds")
        _assert_fields_equal(back, old)
        _assert_fields_equal(read_dataset(tmp_path / "ds"), new)


def _index(n=2, m=2, d=3) -> VideoIndex:
    tokens = np.arange(n * m * d, dtype=np.float32).reshape(n, m, d)
    return VideoIndex(FusionMode.SAVE, [f"v{i}" for i in range(n)], tokens, tokens.mean(axis=1))


class TestWrittenFromColumns:
    """A dataset is its columns and entries whatever its source: the generator
    hands over its arrays, `write_dataset` writes them as they are, and no
    item record is built to generate, summarise or write a dataset."""

    # correspondence noise and missing audio and speech: token records of
    # uneven length and a background-soundtrack pool
    CONFIG = dict(n_items=300, correspondence_noise=0.3, missing_audio=0.2, missing_speech=0.3, seed=6)

    def test_same_bytes_as_written_from_item_records(self, tmp_path):
        ds, _ = write_synthetic(SynthConfig(**self.CONFIG), tmp_path / "columns")
        rebuilt = dataset_from_records(ds.manifest, dict(ds.items), dict(ds.queries))
        write_dataset(rebuilt, tmp_path / "records")
        assert ds.columns["items/audio"].shape[0] < 300 * 12 and ds.columns["items/speech"].shape[0] < 300 * 32
        blobs = [(tmp_path / side / "tensors.sve").read_bytes() for side in ("columns", "records")]
        assert blobs[0] == blobs[1]
        docs = [json.loads((tmp_path / side / "manifest.json").read_text()) for side in ("columns", "records")]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("route", ["generate", "gen", "inspect"])
    def test_builds_no_item_record(self, tmp_path, monkeypatch, capsys, route):
        write_synthetic(SynthConfig(**self.CONFIG), tmp_path / "ds")
        (tmp_path / "c.json").write_text(json.dumps({"synth": self.CONFIG}))
        built = TestBuiltOnLookup.count_built(monkeypatch)
        if route == "generate":
            assert len(generate(SynthConfig(**self.CONFIG))[0].items) == 300
        else:
            argv = {"gen": ["gen", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "gen")],
                    "inspect": ["inspect", str(tmp_path / "ds")]}
            assert main(argv[route]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["items"] == 300 and sum(summary["groups"].values()) == 300
        assert built == []

    def test_write_refuses_entries_out_of_id_order(self, tmp_path):
        """The manifest lists ids in sorted order, the order of the rows: a
        dataset whose item lists are not in that order writes nothing."""
        ds = generate(SynthConfig(n_items=20, seed=1))[0]
        reversed_items = {name: getattr(ds, name)[::-1] for name in data.ITEM_FIELDS.values()}
        shuffled = dataclasses.replace(ds, **reversed_items)
        with pytest.raises(ValidationError, match="item ids out of order: v00019 is listed before v00018"):
            write_dataset(shuffled, tmp_path / "ds")
        assert not (tmp_path / "ds").exists() or not any((tmp_path / "ds").iterdir())

    def test_write_allocates_under_half_the_token_bytes(self, tmp_path):
        """The columns are written from their own memory: no stacked copy of
        the token records, no large JSON chunks."""
        ds, _ = generate(SynthConfig(n_items=2000, seed=1))
        token_bytes = sum(
            getattr(item, name).nbytes
            for item in ds.items.values()
            for name in ("visual_tokens", "audio_tokens", "speech_tokens")
            if getattr(item, name) is not None
        )
        tracemalloc.start()
        try:
            write_dataset(ds, tmp_path / "ds")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < token_bytes / 2, (peak, token_bytes)


class TestWriteJson:
    """Manifests and checkpoint and index sidecars are compact JSON, keys
    sorted; files written indented by older versions still load."""

    def test_compact_sorted_bytes(self, tmp_path):
        write_json(tmp_path / "d.json", {"b": [1, 2.5], "a": {"z": None, "y": "\u00e9", "x": True}})
        assert (tmp_path / "d.json").read_bytes() == b'{"a":{"x":true,"y":"\\u00e9","z":null},"b":[1,2.5]}\n'

    @pytest.mark.parametrize("written", ["manifest.json", "c.ckpt.json", "g.idx.json"])
    def test_every_sidecar_is_one_compact_line(self, tmp_path, written):
        write_dataset(tiny_dataset(), tmp_path)
        save_params(FusionParams(dim=4, frames=2, heads=2), tmp_path / "c.ckpt")
        save_index(_index(), tmp_path / "g.idx")
        blob = (tmp_path / written).read_bytes()
        assert blob == (json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":")) + "\n").encode()

    def test_indented_files_still_load(self, tmp_path):
        ds = tiny_dataset()
        write_dataset(ds, tmp_path / "ds")
        params = FusionParams(dim=4, frames=2, heads=2, seed=3)
        save_params(params, tmp_path / "c.ckpt")
        save_index(_index(n=3), tmp_path / "g.idx")
        for path in (tmp_path / "ds" / "manifest.json", tmp_path / "c.ckpt.json", tmp_path / "g.idx.json"):
            path.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n")
        _assert_fields_equal(read_dataset(tmp_path / "ds"), ds)
        assert load_params(tmp_path / "c.ckpt").arch == params.arch
        index = load_index(tmp_path / "g.idx")
        assert index.item_ids == ["v0", "v1", "v2"] and index.tokens.tobytes() == _index(n=3).tokens.tobytes()


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "target, write",
        [
            ("t.sve", lambda d, k: write_container(d / "t.sve", {"a": np.full((2, 2), k)})),
            ("manifest.json", lambda d, k: write_dataset(tiny_dataset(seed=k), d)),
            ("c.ckpt.json", lambda d, k: save_params(FusionParams(dim=4, frames=2, heads=2, fusion_depth=k), d / "c.ckpt")),
            ("g.idx.json", lambda d, k: save_index(_index(n=k), d / "g.idx")),
        ],
        ids=["container", "manifest", "checkpoint_sidecar", "index_sidecar"],
    )
    def test_failed_write_leaves_old_file(self, tmp_path, monkeypatch, target, write):
        write(tmp_path, 1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace = os.replace

        def fail_on_target(src, dst):
            if os.path.basename(dst) == target:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_target)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, 2)
        assert (tmp_path / target).read_bytes() == before[target]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


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

    @pytest.mark.parametrize("field", ["audio_tokens", "speech_tokens"])
    def test_zero_row_modality_fuses_as_missing(self, tmp_path, field):
        """A present but empty modality is zero-filled as a missing one is, so
        the hand-built records and their written and read-back copy fuse to the
        same finite tokens (as columns, the item's modality is absent)."""
        ds, _ = generate(SynthConfig(n_items=8, dim=8, frames=3, audio_len=4, speech_pad=4, seed=0))
        items = dict(ds.items)
        first = sorted(items)[0]
        items[first] = dataclasses.replace(items[first], **{field: np.zeros((0, 8), dtype=np.float32)})
        write_dataset(dataset_from_records(ds.manifest, items, dict(ds.queries)), tmp_path / "d")
        back = read_dataset(tmp_path / "d")
        assert getattr(back.items[first], field) is None
        params = FusionParams(dim=8, frames=3, heads=2, seed=0)
        params.audio_fusion.gate.data = np.asarray(0.5, dtype=params.dtype)
        params.speech_fusion.gate.data = np.asarray(0.5, dtype=params.dtype)
        fused = [forward_video([resolve_missing(records[i], ds.manifest) for i in sorted(records)], params,
                               FusionMode.SAVE).tokens.data for records in (items, back.items)]
        assert np.all(np.isfinite(fused[0]))
        np.testing.assert_array_equal(fused[0], fused[1])


class TestBatchIter:
    IDS = [f"id{i}" for i in range(10)]

    def test_train_drops_last_partial(self):
        batches = list(batch_iter(self.IDS, 4, seed=0))
        assert [len(b) for b in batches] == [4, 4]

    def test_same_seed_same_sequence(self):
        a = list(batch_iter(self.IDS, 3, seed=7))
        b = list(batch_iter(self.IDS, 3, seed=7))
        assert a == b

    def test_different_seed_differs(self):
        a = [i for b in batch_iter(self.IDS, 5, seed=1) for i in b]
        b = [i for b in batch_iter(self.IDS, 5, seed=2) for i in b]
        assert a != b

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            list(batch_iter(self.IDS, 11, seed=0))
