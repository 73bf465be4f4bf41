"""Dataset model and binary container IO for precomputed embeddings.

One dataset directory holds `manifest.json` (dims, item/query listings,
split assignments) and `tensors.sve`, a flat binary container:

    magic "SVE1" | u32 version=1 | u32 record count |
    per record: u16 name length | name (UTF-8) | u8 kind (0=tokens, 1=vector)
                | u32 rows | u32 cols | rows*cols little-endian float32

All integers are little-endian. Writes are deterministic: identical datasets
produce identical bytes, and every artifact is written to a temporary file
that replaces the old one only once complete. The same container carries
datasets, checkpoints, indexes and the synthetic-latent sidecar.

A dataset's container holds one record per field, whatever its item count,
with rows in the manifest's (sorted) item or query order: `items/visual`
(n*m, d), `items/audio` and `items/speech` (the item token sets one after
another), `items/teacher_video` and `items/teacher_audio` (one row per item
with teacher embeddings) and `queries/embedding` (n_q, d). Each manifest item
entry gives its `audio_len` and `speech_len` (0: the modality is absent) and
`has_teacher`. `read_dataset` gives items read-only views into those records.
A dataset in the older one-record-per-item layout is rejected for lacking
`items/visual`; regenerate it with `trifuse gen`.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MAGIC = b"SVE1"
VERSION = 1
KIND_TOKENS = 0
KIND_VECTOR = 1

GROUPS = ("visual", "sound", "speech", "sound_speech")

# A dataset container's records, one per field.
DATASET_RECORDS = ("items/visual", "items/audio", "items/speech", "items/teacher_video", "items/teacher_audio",
                   "queries/embedding")

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.sve"
LATENTS_NAME = "latents.sve"


class ContainerError(ValueError):
    """Raised for malformed container bytes or manifest/tensor disagreements."""


class ValidationError(ValueError):
    """Raised when a dataset violates its declared invariants."""


# -- low-level container ---------------------------------------------------


def atomic_write(path, payload: bytes) -> None:
    """Write `payload` to a temporary file beside `path`, then rename it over
    `path`: a write that fails part-way leaves any old file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    atomic_write(path, b"".join(chunks))


def read_container(path) -> dict[str, tuple[int, np.ndarray]]:
    """Named float32 arrays: read-only views into the one buffer read from `path`."""
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
        records[name] = (kind, arr.reshape(shape))
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
    items = [dataset.items[i] for i in sorted(dataset.items)]
    queries = [dataset.queries[q] for q in sorted(dataset.queries)]
    teachers = [item for item in items if item.has_teacher()]

    def stacked(arrays: list[np.ndarray], cols: int, join=np.concatenate) -> tuple[int, np.ndarray]:
        return KIND_TOKENS, join(arrays) if arrays else np.zeros((0, cols), dtype=np.float32)

    records = {
        "items/visual": stacked([item.visual_tokens for item in items], man.dim),
        "items/audio": stacked([item.audio_tokens for item in items if item.audio_tokens is not None], man.dim),
        "items/speech": stacked([item.speech_tokens for item in items if item.speech_tokens is not None], man.dim),
        "items/teacher_video": stacked([item.teacher_video for item in teachers], man.teacher_dim, np.stack),
        "items/teacher_audio": stacked([item.teacher_audio for item in teachers], man.teacher_dim, np.stack),
        "queries/embedding": stacked([query.embedding for query in queries], man.dim, np.stack),
    }
    manifest_doc = {
        "dim": man.dim,
        "teacher_dim": man.teacher_dim,
        "m": man.frames,
        "n_s": man.speech_pad,
        "l_a0": man.audio_pad,
        "items": [
            {
                "id": item.item_id,
                "group": item.group,
                "audio_len": 0 if item.audio_tokens is None else len(item.audio_tokens),
                "speech_len": 0 if item.speech_tokens is None else len(item.speech_tokens),
                "has_teacher": item.has_teacher(),
            }
            for item in items
        ],
        "queries": [{"id": q.query_id, "gt": q.ground_truth_item, "group": q.group} for q in queries],
        "splits": man.splits,
    }
    atomic_write(path / MANIFEST_NAME, (json.dumps(manifest_doc, indent=2, sort_keys=True) + "\n").encode())
    write_container(path / TENSORS_NAME, records)


def read_dataset(path) -> Dataset:
    """Load and validate; teacher vectors are L2-normalized here. Items hold
    read-only views into the container's per-field records."""
    path = Path(path)
    manifest_file = path / MANIFEST_NAME
    if not manifest_file.exists():
        raise ContainerError(f"no {MANIFEST_NAME} under {path}")
    doc = json.loads(manifest_file.read_text())
    records = read_container(path / TENSORS_NAME)
    for name in DATASET_RECORDS:
        if name not in records:
            raise ContainerError(f"container lacks record {name}")

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
        ids = [meta["id"] for meta in doc["items"]]
        n = len(ids)
        visual = _rows(records, "items/visual", n * man.frames, man.dim).reshape(n, man.frames, man.dim)
        audio = _segments(records, "items/audio", ids, [meta["audio_len"] for meta in doc["items"]], man.dim)
        speech = _segments(records, "items/speech", ids, [meta["speech_len"] for meta in doc["items"]], man.dim)
        has_teacher = [bool(meta["has_teacher"]) for meta in doc["items"]]
        teacher_video = iter(_unit_rows(_rows(records, "items/teacher_video", sum(has_teacher), man.teacher_dim)))
        teacher_audio = iter(_unit_rows(_rows(records, "items/teacher_audio", sum(has_teacher), man.teacher_dim)))
        items = {
            item_id: ItemRecord(
                item_id=item_id,
                visual_tokens=visual[k],
                audio_tokens=audio[k],
                speech_tokens=speech[k],
                teacher_video=next(teacher_video) if has_teacher[k] else None,
                teacher_audio=next(teacher_audio) if has_teacher[k] else None,
                group=meta["group"],
            )
            for k, (item_id, meta) in enumerate(zip(ids, doc["items"]))
        }
        # Copied: queries often outlive the items (an index is built from the
        # items, then the queries are scored), and views would keep the whole
        # container buffer alive for them.
        embeddings = _rows(records, "queries/embedding", len(doc["queries"]), man.dim).copy()
        queries = {
            meta["id"]: QueryRecord(
                query_id=meta["id"], embedding=embedding, ground_truth_item=meta["gt"], group=meta["group"]
            )
            for meta, embedding in zip(doc["queries"], embeddings)
        }
    except ContainerError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ContainerError(f"malformed {manifest_file} ({type(err).__name__}: {err})") from err

    dataset = Dataset(manifest=man, items=items, queries=queries)
    _validate(dataset)
    return dataset


def _rows(records: dict, name: str, rows: int, cols: int) -> np.ndarray:
    """A dataset record, whose shape the manifest fixes."""
    arr = records[name][1]
    if arr.shape != (rows, cols):
        raise ContainerError(f"record {name} has shape {arr.shape}, the manifest implies ({rows}, {cols})")
    return arr


def _segments(records: dict, name: str, ids: list[str], lengths: list, cols: int) -> list[np.ndarray | None]:
    """Each item's view of a record that holds the items' token sets one after
    another; None where the item's length is 0."""
    for item_id, length in zip(ids, lengths):
        if type(length) is not int or length < 0:
            raise ContainerError(f"record {name}: item {item_id} has length {length!r}, not an integer >= 0")
    ends = list(itertools.accumulate(lengths))
    arr = _rows(records, name, ends[-1] if ends else 0, cols)
    return [arr[end - length : end] if length else None for end, length in zip(ends, lengths)]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm. A zero row, or one within 1e-6 of unit
    norm, keeps its bits, so read(write(D)) round-trips exactly. The norms are
    one dot product per row, as `np.linalg.norm` computes them for a vector."""
    norms = np.sqrt((v[:, None, :] @ v[:, :, None]).reshape(len(v)))
    scale = ~((norms == 0.0) | (np.abs(norms.astype(np.float64) - 1.0) < 1e-6))
    if not scale.any():
        return v
    out = v.copy()
    out[scale] /= norms[scale, None]
    return out


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
