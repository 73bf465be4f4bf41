"""Dataset model and binary container IO for precomputed embeddings.

One dataset directory holds `manifest.json` (dims, item/query listings,
split assignments) and `tensors.sve`, a flat binary container:

    magic "SVE1" | u32 version=1 | u32 record count |
    per record: u16 name length | name (UTF-8) | u8 kind (0=tokens, 1=vector)
                | u32 rows | u32 cols | rows*cols little-endian float32

All integers are little-endian. A record is a plain array, its kind byte
decided by its rank (`write_container`). Writes are deterministic: identical
datasets produce identical bytes, and every artifact is written to a
temporary file that replaces the old one only once complete. The same
container carries datasets, checkpoints and indexes.

A dataset's container holds one record per field, whatever its item count,
with rows in the manifest's (sorted) item or query order: `items/visual`
(n*m, d), `items/audio` and `items/speech` (the item token sets one after
another), `items/teacher_video` and `items/teacher_audio` (one row per item
with teacher embeddings) and `queries/embedding` (n_q, d). Each manifest item
entry gives its `id`, `group`, `audio_len` and `speech_len` (0: the modality
is absent) and `has_teacher`; each query entry its `id`, `gt` (ground-truth
item) and `group`.

A `Dataset` in memory is the same thing whatever its source: those six
arrays (its `columns`) and one list per manifest entry key, in entry order
(ITEM_FIELDS, QUERY_FIELDS), so that each fact is held once. Each item and
query is built the first time it is looked up, as a slotted record of views
into the columns. `read_dataset` maps the container read-only
(`read_container`) and turns the manifest's entries into the lists, keeping
no parsed entry; `write_dataset` builds the entries back from the lists;
`synth.generate` hands over its generator arrays and lists. No other module
sees an entry. One function, `_check`, decides whether a manifest's splits,
the field lists and the records form a valid dataset:
`write_dataset` applies it to the dataset's own lists and columns before
anything touches disk, and `read_dataset` applies it to every entry and
record before it returns, so a lookup never fails. It tests each record for
finiteness CHECK_BLOCK_ROWS rows at a time. The manifest and the checkpoint
and index sidecars are compact JSON (`write_json`). A dataset in the older
one-record-per-item layout is rejected for lacking `items/visual`; regenerate
it with `trifuse gen`.

Every scalar input field, of a config, a manifest or a sidecar, is declared
once with its type and bounds (`Spec`), in one field table per input kind:
a dataclass's `bounded` fields (`table`; `Manifest` holds the manifest's
sizes) or a dict of specs. One function, `check`, applies them and raises
FieldError, naming the field; each caller maps it to its exit code.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import mmap
import numbers
import os
import struct
from collections.abc import Mapping
from dataclasses import MISSING, InitVar, dataclass, field, replace
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

# Rows of a record that `_check` tests for finiteness at a time: its mask is
# one block, not the record. On the 10,000-item eval dataset the whole-record
# masks peaked at 8.3 MB (5.1 MB for `items/speech`); a 5 M-float record took
# 1.39 ms in blocks of 8,192 rows of 16 against 1.60 ms whole (2 vCPUs).
CHECK_BLOCK_ROWS = 8192

# The longest token count an input may give (TOKENS): a manifest's `m` and
# pads (`n_s`, `l_a0`), a synth config's `frames`, `audio_len` and
# `speech_pad`, a train config's `max_audio_len`. A pad only sizes the zeros
# that `resolve_missing` allocates for an absent modality, so no record stops
# `"n_s": 1000000000` from asking numpy for 59.6 GiB. A 128-item batch of
# zero-filled speech at d = 16 costs 8 KiB per pad token: 32 MiB at this
# ceiling, 128 times the 32 tokens that synth writes by default.
MAX_PAD = 4096
# The widest embedding an input may give (`dim`, `teacher_dim`), and the most
# attention heads. One cross-attention block holds about 12 d^2 parameters:
# 50 MB of float32 at this width.
MAX_DIM = 1024
# The most items a synth config may ask for. Generating and writing 100,001
# items of the smallest sizes took 1.3 s and peaked at 180 MB RSS (2 vCPUs):
# its Python lists and manifest grow with the count, whatever the sizes.
MAX_ITEMS = 1_000_000
# The most float32 bytes a synth config may ask of its dataset's arrays
# (`SynthConfig.array_bytes`): each size is bounded, but not their product,
# and `"frames": 4096, "dim": 1024` alone would take 16 MiB per item.
MAX_SYNTH_BYTES = 1 << 29

# Each key of a manifest item or query entry, and the `Dataset` field that
# lists its values in entry order.
ITEM_FIELDS = {"id": "item_ids", "group": "item_groups", "audio_len": "audio_lens", "speech_len": "speech_lens",
               "has_teacher": "has_teacher"}
QUERY_FIELDS = {"id": "query_ids", "gt": "ground_truth_items", "group": "query_groups"}

# List elements that `write_json` encodes in one call.
JSON_CHUNK = 256

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.sve"


class ContainerError(ValueError):
    """Raised for malformed container bytes or manifest/tensor disagreements."""


class ValidationError(ValueError):
    """Raised when a dataset violates its declared invariants."""


class FieldError(TypeError, ValueError):
    """An input field of the wrong type or outside its bounds (`check`); the
    message names the field. It is both a TypeError and a ValueError, as were
    the checks it replaces, so each caller keeps the exit code it maps them to."""


# -- input fields ------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One input field's type and bounds, as a JSON Schema property states
    them. `kind` is int (a JSON integer), float (a finite JSON number), str,
    list or dict (a JSON array or object whose elements or values are each of
    spec `item`), or an Enum class (one of its values). A number lies in
    [`least`, `most`], or in (`least`, `most`] when `above`; `most_name` names
    the constant that `most` is. `null` admits JSON null. A JSON boolean is of
    no kind but its own, although Python counts `true` as the integer 1."""

    kind: type
    least: float = -math.inf
    most: float = math.inf
    most_name: str = ""
    above: bool = False
    null: bool = False
    item: Spec | None = None


_JSON_TYPES = {int: numbers.Integral, float: numbers.Real, str: str, list: list, dict: dict}
_NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def check(spec: Spec, name: str, value):
    """`value` parsed as `spec` states: an Enum kind's member, a number as
    `kind`, any other value as it is. FieldError, naming the field `name`,
    for a value of the wrong type or out of bounds: the one check of every
    input field."""
    kind = spec.kind
    if value is None and spec.null:
        return None
    if kind not in _JSON_TYPES:  # an Enum
        try:
            return kind(value)
        except ValueError as err:
            raise FieldError(f"{name}: {err}") from None
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise FieldError(f"{name} must be {_NOUNS[kind]}, got {value!r}")
    if kind in (list, dict):
        for key, each in value.items() if kind is dict else enumerate(value):
            try:
                check(spec.item, name, each)
            except FieldError:  # the element's name is formatted only once it fails
                check(spec.item, f"{name}[{key!r}]", each)
    if kind not in (int, float):
        return value
    if (kind is float and not math.isfinite(value)) or not (value > spec.least if spec.above else value >= spec.least):
        noun = "a finite number" if kind is float else "an integer"
        raise FieldError(f"{name} must be {noun} {'>' if spec.above else '>='} {spec.least}, got {value!r}")
    if value > spec.most:
        most = f"{spec.most_name} ({spec.most})" if spec.most_name else spec.most
        raise FieldError(f"{name} must be <= {most}, got {value!r}")
    return kind(value)


def bounded(spec: Spec, default=MISSING, *, default_factory=MISSING, key: str | None = None):
    """A dataclass field declared with `spec`; `key` is its name in JSON and
    in messages where that differs from the attribute's."""
    return field(default=default, default_factory=default_factory, metadata={"spec": spec, "key": key})


def _declared(cls) -> list[tuple[str, str, Spec]]:
    """(JSON key, attribute, spec) of each `bounded` field of a dataclass."""
    return [(f.metadata["key"] or f.name, f.name, f.metadata["spec"])
            for f in dataclasses.fields(cls) if "spec" in f.metadata]


def table(cls) -> dict[str, Spec]:
    """The field table of a dataclass: each `bounded` field's spec, by JSON key."""
    return {key: spec for key, _, spec in _declared(cls)}


def check_fields(obj) -> None:
    """Replace each `bounded` field of dataclass instance `obj` by its value
    parsed by `check`."""
    for key, name, spec in _declared(obj):
        setattr(obj, name, check(spec, key, getattr(obj, name)))


SEED = Spec(int, 0)
TOKENS = Spec(int, 1, MAX_PAD, "MAX_PAD")
DIM = Spec(int, 2, MAX_DIM, "MAX_DIM")
WIDTH = Spec(int, 1, MAX_DIM, "MAX_DIM")


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


def read_json(path):
    """The JSON document in `path`, read as UTF-8. A directory in its place,
    bytes that are not UTF-8 and text that is not JSON raise ContainerError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except IsADirectoryError as err:
        raise ContainerError(f"{path} is a directory, not a JSON file") from err
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ContainerError(f"{path} is not UTF-8 JSON: {err}") from err


def write_json(path, doc: dict) -> None:
    """Write `doc`, a dict with string keys, to `path` atomically as compact
    JSON, keys sorted, with a final newline: equal documents give equal bytes,
    those of `json.dumps(doc, sort_keys=True, separators=(",", ":"))`. A list
    that is a value of `doc` is encoded JSON_CHUNK elements at a time, by
    CPython's C encoder, which keeps every fragment it makes alive until its
    call ends: about ten times the text in one call over a whole manifest
    (2.9 MB for the 0.3 MB manifest of 2,000 items). `read_json` reads it
    back, as it reads the indented files of older versions."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

    def value(v) -> str:
        if type(v) is not list:
            return encode(v)
        return "[" + ",".join(encode(v[i : i + JSON_CHUNK])[1:-1] for i in range(0, len(v), JSON_CHUNK)) + "]"

    text = "{" + ",".join(encode(key) + ":" + value(doc[key]) for key in sorted(doc)) + "}\n"
    atomic_write(path, text.encode())


def write_container(path, records: dict[str, np.ndarray]) -> None:
    """Write named float32 arrays, each of rank 0, 1 or 2. A record's kind
    byte follows from its rank: a vector up to rank 1, tokens at rank 2. The
    arrays are written from their own memory, not copied into one payload."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(records))]
    for name, arr in records.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        if arr.ndim > 2:
            raise ContainerError(f"record {name}: only 0D/1D/2D arrays supported")
        kind, (rows, cols) = (KIND_TOKENS, arr.shape) if arr.ndim == 2 else (KIND_VECTOR, (1, arr.size))
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)) + name_bytes + struct.pack("<BII", kind, rows, cols))
        chunks.append(memoryview(arr))
    atomic_write(path, *chunks)


def read_container(path) -> dict[str, np.ndarray]:
    """Named float32 arrays: read-only views into `path`, mapped read-only.
    A vector record of one row reads back as a 1-D array, any other record
    as a 2-D one.

    The file stays mapped, and its descriptor open, while any view lives
    (dataset items, a loaded index): a process that keeps views of many
    containers alive holds a descriptor for each. A file truncated in place
    by another program while it is mapped can end the process with SIGBUS;
    trifuse's own writers always replace files by rename (`atomic_write`).

    A record starts at whatever byte offset the header before it leaves, so
    its view need not be 4-byte aligned (in a 200-item synth dataset,
    `items/visual`, `items/audio` and `items/teacher_video` are not, nor are
    both index records). numpy runs BLAS products on unaligned arrays on a
    slow path: serving code copies the records it multiplies into aligned
    arrays (`QueryScorer`) instead of scoring the views."""
    try:
        with open(path, "rb") as f:
            # an empty file cannot be mapped; it fails the magic check below
            blob = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if os.fstat(f.fileno()).st_size else b""
    except IsADirectoryError as err:
        raise ContainerError(f"{path} is a directory, not a container") from err
    if blob[:4] != MAGIC:
        raise ContainerError("unrecognized container")
    if len(blob) < 12:
        raise ContainerError("corrupt record header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    records: dict[str, np.ndarray] = {}
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
        records[name] = arr.reshape(shape)
    if offset != len(blob):
        raise ContainerError(f"{len(blob) - offset} trailing bytes after the last record")
    return records


# -- dataset model ----------------------------------------------------------


@dataclass(slots=True)
class ItemRecord:
    """One video's precomputed per-modality token sets. Slotted, as is
    QueryRecord: a record has no instance dict."""

    item_id: str
    visual_tokens: np.ndarray  # (m, d), required
    audio_tokens: np.ndarray | None = None  # (L_a, d)
    speech_tokens: np.ndarray | None = None  # (N_s, d)
    teacher_video: np.ndarray | None = None  # (d_t,), unit norm after load
    teacher_audio: np.ndarray | None = None
    group: str | None = None

    def has_teacher(self) -> bool:
        return self.teacher_video is not None and self.teacher_audio is not None


@dataclass(slots=True)
class QueryRecord:
    query_id: str
    embedding: np.ndarray  # (d,)
    ground_truth_item: str
    group: str | None = None


@dataclass
class Manifest:
    """A dataset's sizes, each checked against its spec on construction, and
    its splits, which `_check` checks against the entries."""

    dim: int = bounded(DIM)
    teacher_dim: int = bounded(WIDTH)
    frames: int = bounded(TOKENS, key="m")  # visual token count per item
    speech_pad: int = bounded(TOKENS, key="n_s")  # zero-fill length for missing speech
    audio_pad: int = bounded(TOKENS, key="l_a0")  # zero-fill length for missing audio
    splits: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self)


# The manifest's sizes: each JSON key and the `Manifest` field it fills.
MANIFEST_SIZES = {key: name for key, name, _ in _declared(Manifest)}


class LazyRecords(Mapping):
    """A read-only mapping from ids, in the order given, to records that
    `build(k)` makes for the k-th id the first time it is looked up; every
    later lookup returns that same object."""

    def __init__(self, ids: list[str], build):
        self._rows = {owner: k for k, owner in enumerate(ids)}
        self._build = build
        self._built = {}

    def __getitem__(self, owner):
        record = self._built.get(owner)
        if record is None:
            record = self._built[owner] = self._build(self._rows[owner])
        return record

    def __contains__(self, owner) -> bool:
        return owner in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass(eq=False)
class Dataset:
    """A dataset as its container and manifest hold it, whatever its source.

    `columns` maps each name of DATASET_RECORDS to its 2-D float32 array, rows
    in entry order: exactly the container's records. The lists of
    ITEM_FIELDS and QUERY_FIELDS hold the manifest's entries, one list per
    key, in its order, which is sorted by id; they are read, never changed.
    `items` and `queries` build each record the first time it is looked up,
    as views into the columns. `row_starts` is the records' row layout where
    `_check` has already computed it."""

    manifest: Manifest
    columns: dict[str, np.ndarray]
    item_ids: list[str]
    item_groups: list[str | None]
    audio_lens: list[int]
    speech_lens: list[int]
    has_teacher: list[bool]
    query_ids: list[str]
    ground_truth_items: list[str]
    query_groups: list[str | None]
    row_starts: InitVar[dict[str, np.ndarray] | None] = None
    items: Mapping[str, ItemRecord] = field(init=False, repr=False)
    queries: Mapping[str, QueryRecord] = field(init=False, repr=False)

    def __post_init__(self, row_starts):
        fields = _fields(self)
        self.items, self.queries = _built_on_lookup(
            self.columns, row_starts or _row_starts(self.manifest.frames, fields), fields)

    def longest_audio(self) -> int:
        """The longest item audio in tokens, absent audio counting as the
        zero-fill (`audio_pad`) that stands in for it; 0 without items."""
        return max((length or self.manifest.audio_pad for length in self.audio_lens), default=0)

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


def _fields(dataset: Dataset) -> dict[str, list]:
    """The dataset's field lists, by `Dataset` field name."""
    return {name: getattr(dataset, name) for keys in (ITEM_FIELDS, QUERY_FIELDS) for name in keys.values()}


def _row_starts(frames: int, fields: dict[str, list]) -> dict[str, np.ndarray]:
    """The row layout of each container record, in entry order: the k-th
    item's or query's rows are `starts[k]:starts[k + 1]`, and the last start
    is the record's row count."""
    def starts(values: list) -> np.ndarray:
        return np.cumsum([0, *values], dtype=np.int64)

    teachers = starts(fields["has_teacher"])
    return {
        "items/visual": np.arange(len(fields["item_ids"]) + 1) * frames,
        "items/audio": starts(fields["audio_lens"]),
        "items/speech": starts(fields["speech_lens"]),
        "items/teacher_video": teachers,
        "items/teacher_audio": teachers,
        "queries/embedding": np.arange(len(fields["query_ids"]) + 1),
    }


def _built_on_lookup(columns: dict, layouts: dict[str, np.ndarray], fields: dict[str, list]):
    """The one record builder: the items and queries of a dataset's columns,
    their row `layouts` and field lists, each built on its first lookup, as
    views into the columns. The builders close over the columns and lists,
    not over the dataset: a reference cycle would keep a mapped container
    alive until the garbage collector runs."""
    # memoryviews of the arrays: they index to Python ints several times
    # faster than the arrays do, and copy nothing
    starts = {name: memoryview(layout) for name, layout in layouts.items()}
    item_ids, item_groups, has_teacher = fields["item_ids"], fields["item_groups"], fields["has_teacher"]
    query_ids, gts, query_groups = fields["query_ids"], fields["ground_truth_items"], fields["query_groups"]

    def rows(name: str, k: int) -> np.ndarray | None:
        """Item k's rows of a token record; None where it has none."""
        start, end = starts[name][k], starts[name][k + 1]
        return columns[name][start:end] if end > start else None

    def teacher(name: str, k: int) -> np.ndarray | None:
        return columns[name][starts[name][k]] if has_teacher[k] else None

    def item(k: int) -> ItemRecord:
        return ItemRecord(
            item_id=item_ids[k],
            visual_tokens=rows("items/visual", k),
            audio_tokens=rows("items/audio", k),
            speech_tokens=rows("items/speech", k),
            teacher_video=teacher("items/teacher_video", k),
            teacher_audio=teacher("items/teacher_audio", k),
            group=item_groups[k],
        )

    def query(k: int) -> QueryRecord:
        return QueryRecord(query_id=query_ids[k], embedding=columns["queries/embedding"][k],
                           ground_truth_item=gts[k], group=query_groups[k])

    return LazyRecords(item_ids, item), LazyRecords(query_ids, query)


def _check(man: Manifest, fields: dict[str, list], records: dict) -> dict[str, np.ndarray]:
    """The one rule for a valid dataset, as a manifest's sizes and splits, its
    field lists (by `Dataset` field name) and its six container records state
    it; `write_dataset` and `read_dataset` both apply it. The sizes were
    checked when the `Manifest` was built. It checks that each kind's lists
    are of one length; that item and
    query ids are unique strings listed in sorted order; each item's
    teacher flag and row counts and each group and ground-truth item; each
    record's shape (its `_row_starts`, which it returns) and finiteness,
    naming the owner of the first bad row; and split members, each split's
    queries having their ground-truth items in that split. A field of the
    wrong JSON type surfaces as KeyError, TypeError or ValueError."""
    for kind, keys in (("item", ITEM_FIELDS), ("query", QUERY_FIELDS)):
        lengths = {name: len(fields[name]) for name in keys.values()}
        if len(set(lengths.values())) > 1:
            raise ValidationError(f"{kind} field lists differ in length: {lengths}")
    item_ids, query_ids, gts = fields["item_ids"], fields["query_ids"], fields["ground_truth_items"]
    known_items, known_queries = _id_set(item_ids, "item"), _id_set(query_ids, "query")
    for owner, flag in zip(item_ids, fields["has_teacher"]):
        if type(flag) is not bool:
            raise ContainerError(f"item {owner}: has_teacher is {flag!r}, not a boolean")
    for name, record in (("audio_lens", "items/audio"), ("speech_lens", "items/speech")):
        for owner, length in zip(item_ids, fields[name]):
            if type(length) is not int or length < 0:
                raise ContainerError(f"record {record}: item {owner} has length {length!r}, not an integer >= 0")
    for kind, ids, groups in (("item", item_ids, fields["item_groups"]), ("query", query_ids, fields["query_groups"])):
        for owner, group in zip(ids, groups):
            if group is not None and group not in GROUPS:
                raise ValidationError(f"{kind} {owner}: unknown group {group!r}")
    if not known_items.issuperset(gts):
        owner, gt = next((owner, gt) for owner, gt in zip(query_ids, gts) if gt not in known_items)
        raise ValidationError(f"query {owner}: unknown ground-truth item {gt}")

    layouts = _row_starts(man.frames, fields)
    for name, starts in layouts.items():
        kind, label = DATASET_RECORDS[name]
        arr = records[name]
        rows, cols = int(starts[-1]), man.teacher_dim if "teacher" in name else man.dim
        if arr.shape != (rows, cols):
            raise ContainerError(f"record {name} has shape {arr.shape}, the manifest implies ({rows}, {cols})")
        for start in range(0, rows, CHECK_BLOCK_ROWS):
            finite = np.isfinite(arr[start : start + CHECK_BLOCK_ROWS])
            if not finite.all():
                row = start + np.argmin(finite.all(axis=1))
                owner = (item_ids if kind == "item" else query_ids)[np.searchsorted(starts, row, side="right") - 1]
                raise ValidationError(f"{kind} {owner}: non-finite {label}")

    gt_of = dict(zip(query_ids, gts))
    for split, members in man.splits.items():
        for kind, known, key in (("item", known_items, "items"), ("query", known_queries, "queries")):
            if not known.issuperset(members[key]):
                unknown = next(i for i in members[key] if i not in known)
                raise ValidationError(f"split {split}: unknown {kind} {unknown}")
        split_items = set(members["items"])
        if not split_items.issuperset(map(gt_of.get, members["queries"])):
            query = next(q for q in members["queries"] if gt_of[q] not in split_items)
            raise ValidationError(f"split {split}: query {query}'s ground-truth item {gt_of[query]} is outside it")
    return layouts


def _id_set(ids: list[str], kind: str) -> set[str]:
    """`ids` as a set, each checked to be a string that is listed once, in
    sorted order."""
    for owner in ids:
        if type(owner) is not str:
            raise ContainerError(f"{kind} id {owner!r} is not a string")
    unique = set(ids)
    if len(unique) < len(ids):
        counts = collections.Counter(ids)
        raise ValidationError(f"duplicate {kind} id {next(i for i in ids if counts[i] > 1)}")
    for before, after in zip(ids, ids[1:]):
        if before > after:
            raise ValidationError(f"{kind} ids out of order: {before} is listed before {after}")
    return unique


def _entries(fields: dict[str, list], keys: dict[str, str]) -> list[dict]:
    """The manifest's entries of one kind, `keys` being ITEM_FIELDS or
    QUERY_FIELDS, built from the field lists."""
    return [dict(zip(keys, values)) for values in zip(*(fields[name] for name in keys.values()))]


def write_dataset(dataset: Dataset, path) -> None:
    """Emit manifest + tensor container from the dataset's own lists and
    columns; byte-deterministic for equal input. Nothing is written unless the
    dataset passes `_check`, and the manifest's entries are built only once
    it has."""
    man, fields = dataset.manifest, _fields(dataset)
    records = {name: dataset.columns[name] for name in DATASET_RECORDS}
    _check(man, fields, records)
    manifest_doc = {key: getattr(man, name) for key, name in MANIFEST_SIZES.items()}
    manifest_doc.update(items=_entries(fields, ITEM_FIELDS), queries=_entries(fields, QUERY_FIELDS),
                        splits=man.splits)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_json(path / MANIFEST_NAME, manifest_doc)
    write_container(path / TENSORS_NAME, records)


def read_dataset(path) -> Dataset:
    """Load and check; teacher vectors are L2-normalized here. The manifest's
    entries become the dataset's field lists; no parsed entry is kept. Each
    item and query is built the first time it is looked up; items hold
    read-only views into the container's per-field records."""
    path = Path(path)
    manifest_file = path / MANIFEST_NAME
    if not manifest_file.exists():
        raise ContainerError(f"no {MANIFEST_NAME} under {path}")
    doc = read_json(manifest_file)
    records = read_container(path / TENSORS_NAME)
    for name in DATASET_RECORDS:
        if name not in records:
            raise ContainerError(f"container lacks record {name}")

    # Ids, ground-truth items and groups are not type-checked one by one; a
    # missing or wrongly typed field surfaces as one of the errors below.
    # Every field the items are built from has been read by `_check`.
    try:
        man = Manifest(**{name: doc[key] for key, name in MANIFEST_SIZES.items()},
                       splits={k: {"items": list(v["items"]), "queries": list(v["queries"])}
                               for k, v in doc["splits"].items()})
        fields = {name: [entry[key] for entry in doc[kind]]
                  for kind, keys in (("items", ITEM_FIELDS), ("queries", QUERY_FIELDS)) for key, name in keys.items()}
        del doc
        layouts = _check(man, fields, records)
    except (ContainerError, ValidationError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ContainerError(f"malformed {manifest_file} ({type(err).__name__}: {err})") from err

    columns = {name: records[name] for name in DATASET_RECORDS}
    for name in ("items/teacher_video", "items/teacher_audio"):
        columns[name] = _unit_rows(columns[name])
    # Copied: queries often outlive the items (an index is built from the
    # items, then the queries are scored), and views would keep the whole
    # container mapped for them.
    columns["queries/embedding"] = columns["queries/embedding"].copy()
    return Dataset(man, columns, **fields, row_starts=layouts)


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
    """Fill absent modalities with zero tokens. An array with zero rows is
    absent too, as it is once written (its length is 0) and read back.

    Idempotent: an already-complete record comes back unchanged.
    """
    out = item
    if out.audio_tokens is None or len(out.audio_tokens) == 0:
        out = replace(out, audio_tokens=np.zeros((manifest.audio_pad, manifest.dim), dtype=np.float32))
    if out.speech_tokens is None or len(out.speech_tokens) == 0:
        out = replace(out, speech_tokens=np.zeros((manifest.speech_pad, manifest.dim), dtype=np.float32))
    return out


# -- batching ----------------------------------------------------------------


def batch_iter(ids: list[str], batch_size: int, seed: int):
    """Yield training batches of ids: a seeded permutation, the last partial
    batch dropped."""
    if batch_size > len(ids):
        raise ValueError(f"batch size {batch_size} exceeds split size {len(ids)}")
    order = np.random.default_rng(seed).permutation(len(ids))
    for start in range(0, len(ids) - batch_size + 1, batch_size):
        yield [ids[i] for i in order[start : start + batch_size]]
