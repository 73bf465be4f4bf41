"""Dataset model and binary container IO for precomputed embeddings.

One dataset directory holds `manifest.json` (dims, item/query listings,
split assignments) and `tensors.sve`, a flat binary container:

    magic "SVE1" | u32 version=1 | u32 record count |
    per record: u16 name length | name (UTF-8) | u8 kind (0=tokens, 1=vector)
                | u32 rows | u32 cols | rows*cols little-endian float32

All integers are little-endian. Writes are deterministic: identical datasets
produce identical bytes. The same container carries datasets, checkpoints,
indexes and the synthetic-latent sidecar.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MAGIC = b"SVE1"
VERSION = 1
KIND_TOKENS = 0
KIND_VECTOR = 1

GROUPS = ("visual", "sound", "speech", "sound_speech")

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.sve"
LATENTS_NAME = "latents.sve"


class ContainerError(ValueError):
    """Raised for malformed container bytes or manifest/tensor disagreements."""


class ValidationError(ValueError):
    """Raised when a dataset violates its declared invariants."""


# -- low-level container ---------------------------------------------------


def write_container(path, records: dict[str, tuple[int, np.ndarray]]) -> None:
    """Write named float32 arrays. `records` maps name -> (kind, 2D or 1D array)."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(records))]
    for name, (kind, arr) in records.items():
        arr = np.asarray(arr, dtype="<f4")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim == 1:
            rows, cols = 1, arr.shape[0]
        elif arr.ndim == 2:
            rows, cols = arr.shape
        else:
            raise ContainerError(f"record {name}: only 1D/2D arrays supported")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BII", kind, rows, cols))
        chunks.append(arr.tobytes(order="C"))
    Path(path).write_bytes(b"".join(chunks))


def read_container(path) -> dict[str, tuple[int, np.ndarray]]:
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise ContainerError("unrecognized container")
    if len(blob) < 12:
        raise ContainerError("corrupt record header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    records: dict[str, tuple[int, np.ndarray]] = {}
    offset = 12
    for _ in range(count):
        if offset + 2 > len(blob):
            raise ContainerError("corrupt record header")
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + name_len + 9 > len(blob):
            raise ContainerError("corrupt record header")
        try:
            name = blob[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise ContainerError(f"record name at byte {offset} is not UTF-8") from err
        if name in records:
            raise ContainerError(f"duplicate record {name}")
        offset += name_len
        kind, rows, cols = struct.unpack_from("<BII", blob, offset)
        offset += 9
        if kind not in (KIND_TOKENS, KIND_VECTOR):
            raise ContainerError(f"record {name} has unknown kind {kind}")
        nbytes = rows * cols * 4
        if offset + nbytes > len(blob):
            raise ContainerError(f"corrupt record {name}")
        arr = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=offset)
        offset += nbytes
        shape = (cols,) if kind == KIND_VECTOR and rows == 1 else (rows, cols)
        records[name] = (kind, arr.reshape(shape).astype(np.float32))
    if offset != len(blob):
        raise ContainerError(f"{len(blob) - offset} trailing bytes after the last record")
    return records


# -- dataset model ----------------------------------------------------------


@dataclass
class ItemRecord:
    """One video's precomputed per-modality token sets."""

    item_id: str
    visual_tokens: np.ndarray  # (m, d), required
    audio_tokens: np.ndarray | None = None  # (L_a, d)
    speech_tokens: np.ndarray | None = None  # (N_s, d)
    teacher_video: np.ndarray | None = None  # (d_t,), unit norm after load
    teacher_audio: np.ndarray | None = None
    group: str | None = None

    def has_teacher(self) -> bool:
        return self.teacher_video is not None and self.teacher_audio is not None


@dataclass
class QueryRecord:
    query_id: str
    embedding: np.ndarray  # (d,)
    ground_truth_item: str
    group: str | None = None


@dataclass
class Manifest:
    dim: int
    teacher_dim: int
    frames: int  # m, visual token count per item
    speech_pad: int  # N_s, zero-fill length for missing speech
    audio_pad: int  # L_a0, zero-fill length for missing audio
    splits: dict[str, dict[str, list[str]]] = field(default_factory=dict)


@dataclass
class Dataset:
    manifest: Manifest
    items: dict[str, ItemRecord]
    queries: dict[str, QueryRecord]

    def split_items(self, split: str) -> list[ItemRecord]:
        return [self.items[i] for i in self.manifest.splits[split]["items"]]

    def split_queries(self, split: str) -> list[QueryRecord]:
        return [self.queries[q] for q in self.manifest.splits[split]["queries"]]


def _validate(dataset: Dataset) -> None:
    man = dataset.manifest
    if man.frames < 1 or man.dim < 2:
        raise ValidationError(f"manifest requires m >= 1 and d >= 2, got m={man.frames} d={man.dim}")
    for item in dataset.items.values():
        v = item.visual_tokens
        if v.shape != (man.frames, man.dim):
            raise ValidationError(
                f"item {item.item_id}: visual tokens shape {v.shape}, expected ({man.frames}, {man.dim})"
            )
        for name, tok in (("audio", item.audio_tokens), ("speech", item.speech_tokens)):
            if tok is not None and (tok.ndim != 2 or tok.shape[1] != man.dim):
                raise ValidationError(f"item {item.item_id}: {name} tokens must be Lx{man.dim}, got {tok.shape}")
        for name, vec in (("teacher_video", item.teacher_video), ("teacher_audio", item.teacher_audio)):
            if vec is not None and vec.shape != (man.teacher_dim,):
                raise ValidationError(f"item {item.item_id}: {name} must have dim {man.teacher_dim}, got {vec.shape}")
        if item.group is not None and item.group not in GROUPS:
            raise ValidationError(f"item {item.item_id}: unknown group {item.group!r}")
    for query in dataset.queries.values():
        if query.embedding.shape != (man.dim,):
            raise ValidationError(f"query {query.query_id}: embedding dim {query.embedding.shape}, expected {man.dim}")
        if query.ground_truth_item not in dataset.items:
            raise ValidationError(f"query {query.query_id}: unknown ground-truth item {query.ground_truth_item}")
        if query.group is not None and query.group not in GROUPS:
            raise ValidationError(f"query {query.query_id}: unknown group {query.group!r}")
    for name in ("visual_tokens", "audio_tokens", "speech_tokens", "teacher_video", "teacher_audio"):
        _require_finite(dataset.items, name, "item")
    _require_finite(dataset.queries, "embedding", "query")
    for split, members in man.splits.items():
        for i in members["items"]:
            if i not in dataset.items:
                raise ValidationError(f"split {split}: unknown item {i}")
        for q in members["queries"]:
            if q not in dataset.queries:
                raise ValidationError(f"split {split}: unknown query {q}")


def _require_finite(records: dict, field: str, kind: str) -> None:
    """One finiteness pass over a field stacked across records (the shapes are
    checked first); the per-record search runs only to name the offender."""
    arrays = [arr for rec in records.values() if (arr := getattr(rec, field)) is not None]
    if arrays and not np.isfinite(np.concatenate(arrays)).all():
        bad = next(key for key, rec in records.items()
                   if getattr(rec, field) is not None and not np.isfinite(getattr(rec, field)).all())
        raise ValidationError(f"{kind} {bad}: non-finite {field.replace('_', ' ')}")


def write_dataset(dataset: Dataset, path) -> None:
    """Emit manifest + tensor container; byte-deterministic for equal input."""
    _validate(dataset)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    man = dataset.manifest

    items_meta = []
    records: dict[str, tuple[int, np.ndarray]] = {}
    for item_id in sorted(dataset.items):
        item = dataset.items[item_id]
        items_meta.append(
            {
                "id": item_id,
                "group": item.group,
                "has_audio": item.audio_tokens is not None,
                "has_speech": item.speech_tokens is not None,
                "has_teacher": item.has_teacher(),
            }
        )
        records[f"item/{item_id}/visual"] = (KIND_TOKENS, item.visual_tokens)
        if item.audio_tokens is not None:
            records[f"item/{item_id}/audio"] = (KIND_TOKENS, item.audio_tokens)
        if item.speech_tokens is not None:
            records[f"item/{item_id}/speech"] = (KIND_TOKENS, item.speech_tokens)
        if item.teacher_video is not None:
            records[f"item/{item_id}/teacher_video"] = (KIND_VECTOR, item.teacher_video)
        if item.teacher_audio is not None:
            records[f"item/{item_id}/teacher_audio"] = (KIND_VECTOR, item.teacher_audio)

    queries_meta = []
    for query_id in sorted(dataset.queries):
        query = dataset.queries[query_id]
        queries_meta.append({"id": query_id, "gt": query.ground_truth_item, "group": query.group})
        records[f"query/{query_id}/embedding"] = (KIND_VECTOR, query.embedding)

    manifest_doc = {
        "dim": man.dim,
        "teacher_dim": man.teacher_dim,
        "m": man.frames,
        "n_s": man.speech_pad,
        "l_a0": man.audio_pad,
        "items": items_meta,
        "queries": queries_meta,
        "splits": man.splits,
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest_doc, indent=2, sort_keys=True) + "\n")
    write_container(path / TENSORS_NAME, records)


def read_dataset(path) -> Dataset:
    """Load and validate; teacher vectors are L2-normalized here."""
    path = Path(path)
    manifest_file = path / MANIFEST_NAME
    if not manifest_file.exists():
        raise ContainerError(f"no {MANIFEST_NAME} under {path}")
    doc = json.loads(manifest_file.read_text())
    records = read_container(path / TENSORS_NAME)

    def take(name: str) -> np.ndarray:
        if name not in records:
            raise ContainerError(f"manifest lists {name} but the container lacks it")
        return records[name][1]

    # The fields are read without per-field checks, which would cost per item;
    # a missing or wrongly typed one surfaces as one of the errors below.
    try:
        man = Manifest(
            dim=int(doc["dim"]),
            teacher_dim=int(doc["teacher_dim"]),
            frames=int(doc["m"]),
            speech_pad=int(doc["n_s"]),
            audio_pad=int(doc["l_a0"]),
            splits={k: {"items": list(v["items"]), "queries": list(v["queries"])} for k, v in doc["splits"].items()},
        )

        items: dict[str, ItemRecord] = {}
        for meta in doc["items"]:
            item_id = meta["id"]
            items[item_id] = ItemRecord(
                item_id=item_id,
                visual_tokens=take(f"item/{item_id}/visual"),
                audio_tokens=take(f"item/{item_id}/audio") if meta["has_audio"] else None,
                speech_tokens=take(f"item/{item_id}/speech") if meta["has_speech"] else None,
                teacher_video=_unit(take(f"item/{item_id}/teacher_video")) if meta["has_teacher"] else None,
                teacher_audio=_unit(take(f"item/{item_id}/teacher_audio")) if meta["has_teacher"] else None,
                group=meta["group"],
            )

        queries: dict[str, QueryRecord] = {}
        for meta in doc["queries"]:
            query_id = meta["id"]
            queries[query_id] = QueryRecord(
                query_id=query_id,
                embedding=take(f"query/{query_id}/embedding"),
                ground_truth_item=meta["gt"],
                group=meta["group"],
            )
    except ContainerError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ContainerError(f"malformed {manifest_file} ({type(err).__name__}: {err})") from err

    dataset = Dataset(manifest=man, items=items, queries=queries)
    _validate(dataset)
    return dataset


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or abs(norm - 1.0) < 1e-6:
        # already unit within float32 rounding: keep bits stable so
        # read(write(D)) round-trips exactly
        return v
    return v / norm


# -- missing-modality resolution --------------------------------------------


def resolve_missing(item: ItemRecord, manifest: Manifest) -> ItemRecord:
    """Fill absent modalities with zero tokens.

    Idempotent: an already-complete record comes back unchanged.
    """
    out = item
    if out.audio_tokens is None:
        out = replace(out, audio_tokens=np.zeros((manifest.audio_pad, manifest.dim), dtype=np.float32))
    if out.speech_tokens is None:
        out = replace(out, speech_tokens=np.zeros((manifest.speech_pad, manifest.dim), dtype=np.float32))
    return out


# -- batching ----------------------------------------------------------------


def batch_iter(ids: list[str], batch_size: int, seed: int, train: bool):
    """Yield batches of ids. Training: seeded permutation, last partial batch
    dropped. Evaluation: original order, everything kept."""
    if batch_size > len(ids):
        raise ValueError(f"batch size {batch_size} exceeds split size {len(ids)}")
    if train:
        order = list(np.random.default_rng(seed).permutation(len(ids)))
        limit = (len(ids) // batch_size) * batch_size
        order = order[:limit]
    else:
        order = list(range(len(ids)))
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        if chunk:
            yield [ids[i] for i in chunk]
