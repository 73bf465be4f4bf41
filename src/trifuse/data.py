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
One function, `_check`, decides whether a manifest and its records form a
valid dataset: `write_dataset` applies it before anything touches disk, and
`read_dataset` applies it before building any item. It runs one finiteness
pass over each record. A dataset in the older one-record-per-item layout is
rejected for lacking `items/visual`; regenerate it with `trifuse gen`.
"""

from __future__ import annotations

import bisect
import collections
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

# A dataset container's records, one per field: what their rows belong to, and
# the field's name in messages.
DATASET_RECORDS = {
    "items/visual": ("item", "visual tokens"),
    "items/audio": ("item", "audio tokens"),
    "items/speech": ("item", "speech tokens"),
    "items/teacher_video": ("item", "teacher video"),
    "items/teacher_audio": ("item", "teacher audio"),
    "queries/embedding": ("query", "embedding"),
}

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.sve"
LATENTS_NAME = "latents.sve"


class ContainerError(ValueError):
    """Raised for malformed container bytes or manifest/tensor disagreements."""


class ValidationError(ValueError):
    """Raised when a dataset violates its declared invariants."""


# -- low-level container ---------------------------------------------------


def atomic_write(path, *buffers) -> None:
    """Write `buffers` (bytes-like objects, in order) to a temporary file
    beside `path`, then rename it over `path`: a write that fails part-way
    leaves any old file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for buf in buffers:
                f.write(buf)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_container(path, records: dict[str, tuple[int, np.ndarray]]) -> None:
    """Write named float32 arrays. `records` maps name -> (kind, 2D or 1D array).
    The arrays are written from their own memory, not copied into one payload."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(records))]
    for name, (kind, arr) in records.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim == 1:
            rows, cols = 1, arr.shape[0]
        elif arr.ndim == 2:
            rows, cols = arr.shape
        else:
            raise ContainerError(f"record {name}: only 1D/2D arrays supported")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)) + name_bytes + struct.pack("<BII", kind, rows, cols))
        chunks.append(memoryview(arr))
    atomic_write(path, *chunks)


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

    def first_queries(self, split: str) -> dict[str, str]:
        """Each item's lexicographically first query id in `split`: the query
        the item pairs with in training, and the one video-to-text evaluation
        ranks for it. Items without a query in `split` are absent."""
        first: dict[str, str] = {}
        for qid in sorted(self.manifest.splits[split]["queries"]):
            first.setdefault(self.queries[qid].ground_truth_item, qid)
        return first


def _check(doc: dict, records: dict) -> dict[str, list[int]]:
    """The one rule for a valid dataset, as a manifest document and its six
    container records state it; `write_dataset` and `read_dataset` both apply
    it. It checks m >= 1 and d >= 2; that item and query ids are unique
    strings; each item's row counts and each group and ground-truth item;
    each record's shape and finiteness, naming the owner of the first bad row;
    and split members. Returns each record's end row per id. A field of the
    wrong JSON type surfaces as KeyError, TypeError or ValueError."""
    dim, teacher_dim, frames = int(doc["dim"]), int(doc["teacher_dim"]), int(doc["m"])
    if frames < 1 or dim < 2:
        raise ValidationError(f"manifest requires m >= 1 and d >= 2, got m={frames} d={dim}")
    items, queries = doc["items"], doc["queries"]
    item_ids, query_ids = [meta["id"] for meta in items], [meta["id"] for meta in queries]
    known_items, known_queries = _id_set(item_ids, "item"), _id_set(query_ids, "query")
    for meta in items:
        if type(meta["has_teacher"]) is not bool:
            raise ContainerError(f"item {meta['id']}: has_teacher is {meta['has_teacher']!r}, not a boolean")
        for key, name in (("audio_len", "items/audio"), ("speech_len", "items/speech")):
            if type(meta[key]) is not int or meta[key] < 0:
                raise ContainerError(f"record {name}: item {meta['id']} has length {meta[key]!r}, not an integer >= 0")
        if meta["group"] is not None and meta["group"] not in GROUPS:
            raise ValidationError(f"item {meta['id']}: unknown group {meta['group']!r}")
    for meta in queries:
        if meta["gt"] not in known_items:
            raise ValidationError(f"query {meta['id']}: unknown ground-truth item {meta['gt']}")
        if meta["group"] is not None and meta["group"] not in GROUPS:
            raise ValidationError(f"query {meta['id']}: unknown group {meta['group']!r}")

    teachers = [int(meta["has_teacher"]) for meta in items]
    row_counts = {
        "items/visual": [frames] * len(items),
        "items/audio": [meta["audio_len"] for meta in items],
        "items/speech": [meta["speech_len"] for meta in items],
        "items/teacher_video": teachers,
        "items/teacher_audio": teachers,
        "queries/embedding": [1] * len(queries),
    }
    ends = {}
    for name, lengths in row_counts.items():
        kind, label = DATASET_RECORDS[name]
        ends[name] = list(itertools.accumulate(lengths))
        arr = records[name][1]
        rows, cols = ends[name][-1] if ends[name] else 0, teacher_dim if "teacher" in name else dim
        if arr.shape != (rows, cols):
            raise ContainerError(f"record {name} has shape {arr.shape}, the manifest implies ({rows}, {cols})")
        finite = np.isfinite(arr)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            owners = item_ids if kind == "item" else query_ids
            raise ValidationError(f"{kind} {owners[bisect.bisect_right(ends[name], row)]}: non-finite {label}")

    for split, members in doc["splits"].items():
        for i in members["items"]:
            if i not in known_items:
                raise ValidationError(f"split {split}: unknown item {i}")
        for q in members["queries"]:
            if q not in known_queries:
                raise ValidationError(f"split {split}: unknown query {q}")
    return ends


def _id_set(ids: list[str], kind: str) -> set[str]:
    """`ids` as a set, each checked to be a string that is listed once."""
    for owner in ids:
        if type(owner) is not str:
            raise ContainerError(f"{kind} id {owner!r} is not a string")
    unique = set(ids)
    if len(unique) < len(ids):
        counts = collections.Counter(ids)
        raise ValidationError(f"duplicate {kind} id {next(i for i in ids if counts[i] > 1)}")
    return unique


def write_dataset(dataset: Dataset, path) -> None:
    """Emit manifest + tensor container; byte-deterministic for equal input.
    Nothing is written unless the dataset passes `_check`."""
    man = dataset.manifest
    items = [dataset.items[i] for i in sorted(dataset.items)]
    queries = [dataset.queries[q] for q in sorted(dataset.queries)]
    # The in-memory arrays are checked item by item before they are stacked,
    # so that a wrongly shaped one is named.
    for item in items:
        if item.visual_tokens.shape != (man.frames, man.dim):
            raise ValidationError(
                f"item {item.item_id}: visual tokens shape {item.visual_tokens.shape}, "
                f"expected ({man.frames}, {man.dim})"
            )
        for name, tok in (("audio", item.audio_tokens), ("speech", item.speech_tokens)):
            if tok is not None and (tok.ndim != 2 or tok.shape[1] != man.dim):
                raise ValidationError(f"item {item.item_id}: {name} tokens must be Lx{man.dim}, got {tok.shape}")
        for name, vec in (("teacher_video", item.teacher_video), ("teacher_audio", item.teacher_audio)):
            if vec is not None and vec.shape != (man.teacher_dim,):
                raise ValidationError(f"item {item.item_id}: {name} must have dim {man.teacher_dim}, got {vec.shape}")
    for query in queries:
        if query.embedding.shape != (man.dim,):
            raise ValidationError(f"query {query.query_id}: embedding dim {query.embedding.shape}, expected {man.dim}")
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
    _check(manifest_doc, records)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    atomic_write(path / MANIFEST_NAME, (json.dumps(manifest_doc, indent=2, sort_keys=True) + "\n").encode())
    write_container(path / TENSORS_NAME, records)


def read_dataset(path) -> Dataset:
    """Load and check; teacher vectors are L2-normalized here. Items hold
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

    # Ids, ground-truth items and groups are not type-checked one by one; a
    # missing or wrongly typed field surfaces as one of the errors below.
    # Every field the items are built from has been read by `_check`.
    try:
        ends = _check(doc, records)
        man = Manifest(
            dim=int(doc["dim"]),
            teacher_dim=int(doc["teacher_dim"]),
            frames=int(doc["m"]),
            speech_pad=int(doc["n_s"]),
            audio_pad=int(doc["l_a0"]),
            splits={k: {"items": list(v["items"]), "queries": list(v["queries"])} for k, v in doc["splits"].items()},
        )
    except (ContainerError, ValidationError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ContainerError(f"malformed {manifest_file} ({type(err).__name__}: {err})") from err

    visual = records["items/visual"][1].reshape(len(doc["items"]), man.frames, man.dim)
    audio = _segments(records["items/audio"][1], ends["items/audio"])
    speech = _segments(records["items/speech"][1], ends["items/speech"])
    teacher_video = iter(_unit_rows(records["items/teacher_video"][1]))
    teacher_audio = iter(_unit_rows(records["items/teacher_audio"][1]))
    items = {
        meta["id"]: ItemRecord(
            item_id=meta["id"],
            visual_tokens=visual[k],
            audio_tokens=audio[k],
            speech_tokens=speech[k],
            teacher_video=next(teacher_video) if meta["has_teacher"] else None,
            teacher_audio=next(teacher_audio) if meta["has_teacher"] else None,
            group=meta["group"],
        )
        for k, meta in enumerate(doc["items"])
    }
    # Copied: queries often outlive the items (an index is built from the
    # items, then the queries are scored), and views would keep the whole
    # container buffer alive for them.
    embeddings = records["queries/embedding"][1].copy()
    queries = {
        meta["id"]: QueryRecord(query_id=meta["id"], embedding=embedding, ground_truth_item=meta["gt"],
                                group=meta["group"])
        for meta, embedding in zip(doc["queries"], embeddings)
    }
    return Dataset(manifest=man, items=items, queries=queries)


def _segments(arr: np.ndarray, ends: list[int]) -> list[np.ndarray | None]:
    """Each id's view of a record's rows; None where it has none."""
    return [arr[start:end] if end > start else None for start, end in zip([0, *ends], ends)]


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
