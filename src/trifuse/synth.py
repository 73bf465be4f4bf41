"""Synthetic multimodal embedding datasets with controllable structure.

Each item owns three latent directions: z_vis (what is seen), z_aud (what is
heard) and z_sp (what is said). Visual and speech tokens are noisy images of
their latents under a shared orthonormal "query space" map (they arrive
pre-aligned, the way paired text/vision encoders are); audio tokens live
under a second, different map (audio encoders are not pre-aligned). Teacher
embeddings project z_vis and z_aud into a separate joint space.

Knobs:
  * correspondence noise rho: that exact fraction of items gets an audio
    latent resampled independently of the video latent (mismatched sound
    track as a discrete event). Mismatched items draw from a small shared
    pool of background-soundtrack latents, so hard alignment on them learns
    a systematic spurious correlation instead of mere noise;
  * missing-audio / missing-speech fractions (exact counts);
  * group mix over {visual, sound, speech, sound_speech}: a query embedding
    derives only from the latents its group names, so e.g. speech-group
    queries are unresolvable from visual tokens alone.

A latent sidecar, `latents.sve` (same container format), retains the
generator latents for oracle tests as four records: `latent/z_vis`,
`latent/z_aud` and `latent/z_sp`, (n, d) in the manifest's item order, and
`latent/query`, (n_q, d) in its query order. `load_latents` slices them by id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    KIND_TOKENS,
    LATENTS_NAME,
    MANIFEST_NAME,
    ContainerError,
    Dataset,
    ItemRecord,
    Manifest,
    QueryRecord,
    read_container,
    write_container,
    write_dataset,
)
from .evaluation import rank_of

DEFAULT_GROUP_MIX = {"visual": 0.4, "sound": 0.25, "speech": 0.25, "sound_speech": 0.1}
DEFAULT_SPLITS = {"train": 0.7, "val": 0.1, "test": 0.2}


@dataclass
class SynthConfig:
    n_items: int
    dim: int = 16
    teacher_dim: int = 8
    frames: int = 12
    audio_len: int = 12
    speech_pad: int = 32
    group_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_GROUP_MIX))
    correspondence_noise: float = 0.0  # rho
    background_pool: int = 4  # distinct soundtrack latents shared by mismatched items
    missing_audio: float = 0.0
    missing_speech: float = 0.0
    noise_scale: float = 0.15
    query_noise: float = 0.1
    teacher_noise: float = 0.05
    splits: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SPLITS))
    seed: int = 0

    def __post_init__(self):
        if self.n_items < 2:
            raise ValueError("need at least 2 items")
        if abs(sum(self.group_mix.values()) - 1.0) > 1e-9:
            raise ValueError("group mix proportions must sum to 1")
        for name, frac in (("correspondence_noise", self.correspondence_noise),
                           ("missing_audio", self.missing_audio),
                           ("missing_speech", self.missing_speech)):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if abs(sum(self.splits.values()) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


@dataclass
class LatentStore:
    """Generator latents, the oracle's debug channel."""

    item_ids: list[str]
    z_vis: np.ndarray  # (n, d)
    z_aud: np.ndarray
    z_sp: np.ndarray
    query_latent: dict[str, np.ndarray]

    def item_latents(self, group: str) -> np.ndarray:
        if group == "visual":
            return self.z_vis
        if group == "sound":
            return self.z_aud
        if group == "speech":
            return self.z_sp
        if group == "sound_speech":
            return _unit_rows(self.z_aud + self.z_sp)
        raise ValueError(f"unknown group {group!r}")


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if cols <= rows:
        q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
        return q  # orthonormal columns
    q, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
    return q.T  # orthonormal rows


def _largest_remainder_counts(total: int, fractions: dict[str, float]) -> dict[str, int]:
    keys = list(fractions)
    raw = {k: total * fractions[k] for k in keys}
    counts = {k: int(np.floor(raw[k])) for k in keys}
    leftovers = sorted(keys, key=lambda k: (-(raw[k] - counts[k]), k))
    for k in leftovers[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def generate(config: SynthConfig) -> tuple[Dataset, LatentStore]:
    """Pure function of the config; the same seed reproduces identical bytes."""
    rng = np.random.default_rng(config.seed)
    n, d, d_t = config.n_items, config.dim, config.teacher_dim

    query_map = _orthonormal(rng, d, d)  # shared pre-aligned space (vision/speech/query)
    audio_map = _orthonormal(rng, d, d)  # separate, unaligned audio-encoder space
    teacher_map = _orthonormal(rng, d, d_t)

    group_counts = _largest_remainder_counts(n, config.group_mix)
    group_pool = [g for g in sorted(group_counts) for _ in range(group_counts[g])]
    groups = [group_pool[i] for i in rng.permutation(n)]

    n_mismatch = int(round(config.correspondence_noise * n))
    mismatched = set(rng.permutation(n)[:n_mismatch].tolist())
    soundtrack_pool = _unit_rows(rng.normal(size=(max(1, config.background_pool), d)))
    n_no_audio = int(round(config.missing_audio * n))
    no_audio = set(rng.permutation(n)[:n_no_audio].tolist())
    n_no_speech = int(round(config.missing_speech * n))
    no_speech = set(rng.permutation(n)[:n_no_speech].tolist())

    items: dict[str, ItemRecord] = {}
    queries: dict[str, QueryRecord] = {}
    ids, z_vis_all, z_aud_all, z_sp_all = [], [], [], []
    query_latents: dict[str, np.ndarray] = {}

    for i in range(n):
        item_id = f"v{i:05d}"
        group = groups[i]
        z_vis = _unit_rows(rng.normal(size=d))
        z_aud = soundtrack_pool[rng.integers(len(soundtrack_pool))].copy() if i in mismatched else z_vis.copy()
        z_sp = _unit_rows(rng.normal(size=d))

        visual = z_vis @ query_map.T + config.noise_scale * rng.normal(size=(config.frames, d))
        audio = z_aud @ audio_map.T + config.noise_scale * rng.normal(size=(config.audio_len, d))
        speech = z_sp @ query_map.T + config.noise_scale * rng.normal(size=(config.speech_pad, d))

        teacher_video = _unit_rows(z_vis @ teacher_map + config.teacher_noise * rng.normal(size=d_t))
        teacher_audio = _unit_rows(z_aud @ teacher_map + config.teacher_noise * rng.normal(size=d_t))

        if group == "visual":
            source = z_vis
        elif group == "sound":
            source = z_aud
        elif group == "speech":
            source = z_sp
        else:
            source = _unit_rows(z_aud + z_sp)
        query_emb = source @ query_map.T + config.query_noise * rng.normal(size=d)

        items[item_id] = ItemRecord(
            item_id=item_id,
            visual_tokens=visual.astype(np.float32),
            audio_tokens=None if i in no_audio else audio.astype(np.float32),
            speech_tokens=None if i in no_speech else speech.astype(np.float32),
            teacher_video=teacher_video.astype(np.float32),
            teacher_audio=teacher_audio.astype(np.float32),
            group=group,
        )
        query_id = f"q{i:05d}"
        queries[query_id] = QueryRecord(
            query_id=query_id,
            embedding=query_emb.astype(np.float32),
            ground_truth_item=item_id,
            group=group,
        )
        ids.append(item_id)
        z_vis_all.append(z_vis)
        z_aud_all.append(z_aud)
        z_sp_all.append(z_sp)
        query_latents[query_id] = source.astype(np.float32)

    split_counts = _largest_remainder_counts(n, config.splits)
    order = rng.permutation(n)
    splits: dict[str, dict[str, list[str]]] = {}
    cursor = 0
    for split in sorted(split_counts):
        take = order[cursor : cursor + split_counts[split]]
        cursor += split_counts[split]
        member_items = sorted(ids[j] for j in take)
        splits[split] = {
            "items": member_items,
            "queries": [f"q{iid[1:]}" for iid in member_items],
        }

    manifest = Manifest(
        dim=d,
        teacher_dim=d_t,
        frames=config.frames,
        speech_pad=config.speech_pad,
        audio_pad=config.frames,
        splits=splits,
    )
    dataset = Dataset(manifest=manifest, items=items, queries=queries)
    store = LatentStore(
        item_ids=ids,
        z_vis=np.stack(z_vis_all).astype(np.float32),
        z_aud=np.stack(z_aud_all).astype(np.float32),
        z_sp=np.stack(z_sp_all).astype(np.float32),
        query_latent=query_latents,
    )
    return dataset, store


LATENT_FIELDS = ("z_vis", "z_aud", "z_sp")


def write_synthetic(config: SynthConfig, out_dir) -> tuple[Dataset, LatentStore]:
    """Generate, write the dataset dir, and drop the latent sidecar next to it."""
    dataset, store = generate(config)
    write_dataset(dataset, out_dir)
    order = np.argsort(store.item_ids)  # the manifest lists items by sorted id
    records = {f"latent/{name}": (KIND_TOKENS, getattr(store, name)[order]) for name in LATENT_FIELDS}
    records["latent/query"] = (KIND_TOKENS, np.stack([store.query_latent[q] for q in sorted(store.query_latent)]))
    write_container(Path(out_dir) / LATENTS_NAME, records)
    return dataset, store


def load_latents(data_dir, item_ids: list[str], query_ids: list[str]) -> LatentStore:
    """The latents of `item_ids` and `query_ids`, in that order, from the
    sidecar beside a synthetic dataset's manifest."""
    path = Path(data_dir) / LATENTS_NAME
    if not path.exists():
        raise FileNotFoundError(f"latent sidecar absent: {path}")
    records = read_container(path)
    for name in (*LATENT_FIELDS, "query"):
        if f"latent/{name}" not in records:
            raise ContainerError(f"{path} lacks record latent/{name}")
    doc = json.loads((Path(data_dir) / MANIFEST_NAME).read_text())
    item_row = {meta["id"]: k for k, meta in enumerate(doc["items"])}
    query_row = {meta["id"]: k for k, meta in enumerate(doc["queries"])}
    items = [item_row[i] for i in item_ids]
    queries = records["latent/query"][1]
    return LatentStore(
        item_ids=list(item_ids),
        **{name: records[f"latent/{name}"][1][items] for name in LATENT_FIELDS},
        query_latent={q: queries[query_row[q]] for q in query_ids},
    )


def oracle_rank(query_latent: np.ndarray, item_latents: np.ndarray, gt_index: int) -> int:
    """Pessimistic rank of the true item under exact latent-space relevance."""
    scores = _unit_rows(item_latents) @ _unit_rows(np.asarray(query_latent, dtype=np.float64))
    return rank_of(scores, gt_index)


def oracle_scores(query_latent: np.ndarray, item_latents: np.ndarray) -> np.ndarray:
    return _unit_rows(item_latents) @ _unit_rows(np.asarray(query_latent, dtype=np.float64))
