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
    queries are unresolvable from visual tokens alone;
  * audio drift kappa: z_aud = unit(z_aud + kappa * u), u unit rows from the
    child generator default_rng([seed, 1]), so vision alone no longer
    answers sound queries;
  * query visual mix lambda: a non-visual query's latent is
    unit(source + lambda * z_vis), a caption naming what is seen as well as
    what is heard or said.
  Both are skipped at 0, their default.

Items are drawn CHUNK_ITEMS at a time as array operations into one float32
array per field: (n, m, d) visual, (items with audio, audio_len, d) audio,
(items with speech, speech_pad, d) speech, (n, d_t) for each teacher, (n, d)
queries and latents. Those arrays are the dataset's columns as they are, and
its field lists come from the group, audio and speech draws, so no per-item
record is built. The draws follow the per-item order, so the bytes
do not depend on the chunk size and equal those of an item-by-item loop
(tests/test_synth.py keeps that loop as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (DIM, GROUPS, MAX_ITEMS, MAX_SYNTH_BYTES, SEED, TOKENS, WIDTH, Dataset, Manifest, Spec, bounded,
                   check_fields, write_dataset)
from .evaluation import rank_of

DEFAULT_GROUP_MIX = {"visual": 0.4, "sound": 0.25, "speech": 0.25, "sound_speech": 0.1}
DEFAULT_SPLITS = {"train": 0.7, "val": 0.1, "test": 0.2}
CHUNK_ITEMS = 256  # items drawn per chunk: bounds the float64 temporaries, never changes the output


NON_NEGATIVE = Spec(float, 0)
FRACTION = Spec(float, 0, 1)
FRACTIONS = Spec(dict, item=FRACTION)


@dataclass
class SynthConfig:
    """Each field is parsed by its spec on construction. Beside them, the
    `group_mix` keys must be among GROUPS, each mix must sum to 1, and the
    dataset's arrays may take at most MAX_SYNTH_BYTES (`array_bytes`)."""

    n_items: int = bounded(Spec(int, 2, MAX_ITEMS, "MAX_ITEMS"))
    dim: int = bounded(DIM, 16)
    teacher_dim: int = bounded(WIDTH, 8)
    frames: int = bounded(TOKENS, 12)
    audio_len: int = bounded(TOKENS, 12)
    speech_pad: int = bounded(TOKENS, 32)
    group_mix: dict[str, float] = bounded(FRACTIONS, default_factory=lambda: dict(DEFAULT_GROUP_MIX))
    correspondence_noise: float = bounded(FRACTION, 0.0)  # rho
    # distinct soundtrack latents shared by mismatched items
    background_pool: int = bounded(Spec(int, 1, 4096), 4)
    missing_audio: float = bounded(FRACTION, 0.0)
    missing_speech: float = bounded(FRACTION, 0.0)
    noise_scale: float = bounded(NON_NEGATIVE, 0.15)
    query_noise: float = bounded(NON_NEGATIVE, 0.1)
    teacher_noise: float = bounded(NON_NEGATIVE, 0.05)
    # kappa: z_aud = unit(z_aud + kappa * u), u unit rows of a child generator
    audio_drift: float = bounded(NON_NEGATIVE, 0.0)
    # lambda: a non-visual query's latent is unit(source + lambda * z_vis)
    query_visual_mix: float = bounded(NON_NEGATIVE, 0.0)
    splits: dict[str, float] = bounded(FRACTIONS, default_factory=lambda: dict(DEFAULT_SPLITS))
    seed: int = bounded(SEED, 0)

    def __post_init__(self):
        check_fields(self)
        if not set(self.group_mix) <= set(GROUPS):
            raise ValueError(f"group mix keys must be among {GROUPS}")
        if abs(sum(self.group_mix.values()) - 1.0) > 1e-9:
            raise ValueError("group mix proportions must sum to 1")
        if abs(sum(self.splits.values()) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if (size := self.array_bytes()) > MAX_SYNTH_BYTES:
            raise ValueError(f"the dataset's arrays would take {size} bytes, more than MAX_SYNTH_BYTES "
                             f"({MAX_SYNTH_BYTES}): lower n_items, dim, frames, audio_len or speech_pad")

    def array_bytes(self) -> int:
        """The float32 bytes of the arrays `generate` fills, every item having
        audio and speech: its tokens, teachers, query and four latents. Its
        float64 draws take at most twice as much."""
        tokens = self.frames + self.audio_len + self.speech_pad
        return 4 * self.n_items * ((tokens + 5) * self.dim + 2 * self.teacher_dim)


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


def _chosen(rng: np.random.Generator, n: int, fraction: float) -> np.ndarray:
    """A mask of exactly round(fraction * n) items, chosen by one permutation."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[: int(round(fraction * n))]] = True
    return mask


def _largest_remainder_counts(total: int, fractions: dict[str, float]) -> dict[str, int]:
    keys = list(fractions)
    raw = {k: total * fractions[k] for k in keys}
    counts = {k: int(np.floor(raw[k])) for k in keys}
    leftovers = sorted(keys, key=lambda k: (-(raw[k] - counts[k]), k))
    for k in leftovers[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def generate(config: SynthConfig) -> tuple[Dataset, LatentStore]:
    """Pure function of the config; the same seed reproduces identical bytes.

    Per item, the stream is: normals for z_vis, `integers` for a mismatched
    item's soundtrack, then normals for z_sp, visual, audio, speech, the two
    teachers and the query noise. One `standard_normal` call fills a chunk's
    (b, width) buffer, split only around each mismatched item's `integers`.
    """
    rng = np.random.default_rng(config.seed)
    n, d, d_t = config.n_items, config.dim, config.teacher_dim
    m, l_a, n_s = config.frames, config.audio_len, config.speech_pad

    query_map = _orthonormal(rng, d, d)  # shared pre-aligned space (vision/speech/query)
    audio_map = _orthonormal(rng, d, d)  # separate, unaligned audio-encoder space
    teacher_map = _orthonormal(rng, d, d_t)

    group_counts = _largest_remainder_counts(n, config.group_mix)
    group_pool = [g for g in sorted(group_counts) for _ in range(group_counts[g])]
    groups = [group_pool[i] for i in rng.permutation(n)]
    source_of = np.array([GROUPS.index(g) for g in groups])

    mismatched = _chosen(rng, n, config.correspondence_noise)
    soundtrack_pool = _unit_rows(rng.normal(size=(config.background_pool, d)))
    has_audio = ~_chosen(rng, n, config.missing_audio)
    has_speech = ~_chosen(rng, n, config.missing_speech)
    drift_rng = np.random.default_rng([config.seed, 1])

    visual = np.empty((n, m, d), np.float32)
    # audio and speech hold rows only for the items that have them; audio_row[i] is item i's row
    audio, audio_row = np.empty((has_audio.sum(), l_a, d), np.float32), np.cumsum(has_audio) - 1
    speech, speech_row = np.empty((has_speech.sum(), n_s, d), np.float32), np.cumsum(has_speech) - 1
    teacher_video = np.empty((n, d_t), np.float32)
    teacher_audio = np.empty((n, d_t), np.float32)
    query = np.empty((n, d), np.float32)
    z_vis_all, z_aud_all, z_sp_all, source_all = (np.empty((n, d), np.float32) for _ in range(4))

    widths = (d, d, m * d, l_a * d, n_s * d, d_t, d_t, d)
    width = sum(widths)
    draws = np.empty((min(n, CHUNK_ITEMS), width))
    for lo in range(0, n, CHUNK_ITEMS):
        hi = min(lo + CHUNK_ITEMS, n)
        b = hi - lo
        flat, pos = draws[:b].reshape(-1), 0
        soundtrack = np.zeros(b, dtype=np.int64)
        for j in np.flatnonzero(mismatched[lo:hi]):
            cut = j * width + d  # after item j's z_vis normals
            rng.standard_normal(out=flat[pos:cut])
            soundtrack[j], pos = rng.integers(len(soundtrack_pool)), cut
        rng.standard_normal(out=flat[pos:])
        e_vis, e_sp, e_visual, e_audio, e_speech, e_tv, e_ta, e_query = np.split(
            draws[:b], np.cumsum(widths)[:-1], axis=1
        )

        z_vis = _unit_rows(e_vis)
        z_aud = np.where(mismatched[lo:hi, None], soundtrack_pool[soundtrack], z_vis)
        if config.audio_drift:
            z_aud = _unit_rows(z_aud + config.audio_drift * _unit_rows(drift_rng.standard_normal((b, d))))
        z_sp = _unit_rows(e_sp)

        noise = config.noise_scale
        visual[lo:hi] = (z_vis @ query_map.T)[:, None] + noise * e_visual.reshape(b, m, d)
        a, s = has_audio[lo:hi], has_speech[lo:hi]
        audio[audio_row[lo:hi][a]] = (z_aud[a] @ audio_map.T)[:, None] + noise * e_audio.reshape(b, l_a, d)[a]
        speech[speech_row[lo:hi][s]] = (z_sp[s] @ query_map.T)[:, None] + noise * e_speech.reshape(b, n_s, d)[s]
        teacher_video[lo:hi] = _unit_rows(z_vis @ teacher_map + config.teacher_noise * e_tv)
        teacher_audio[lo:hi] = _unit_rows(z_aud @ teacher_map + config.teacher_noise * e_ta)

        # one candidate source per group, in GROUPS order; each query takes its group's
        sources = np.stack([z_vis, z_aud, z_sp, _unit_rows(z_aud + z_sp)])
        source = sources[source_of[lo:hi], np.arange(b)]
        if config.query_visual_mix:
            heard = source_of[lo:hi] != GROUPS.index("visual")
            source[heard] = _unit_rows(source[heard] + config.query_visual_mix * z_vis[heard])
        query[lo:hi] = source @ query_map.T + config.query_noise * e_query

        z_vis_all[lo:hi], z_aud_all[lo:hi], z_sp_all[lo:hi], source_all[lo:hi] = z_vis, z_aud, z_sp, source

    # zero-padded to one width, so that the ids sort in item order, as a manifest lists them
    width = max(5, len(str(n - 1)))
    ids, query_ids = [f"v{i:0{width}d}" for i in range(n)], [f"q{i:0{width}d}" for i in range(n)]
    columns = {
        "items/visual": visual.reshape(n * m, d),
        "items/audio": audio.reshape(-1, d),
        "items/speech": speech.reshape(-1, d),
        "items/teacher_video": teacher_video,
        "items/teacher_audio": teacher_audio,
        "queries/embedding": query,
    }

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
    # a query's ground-truth item and group are its item's: the same lists
    dataset = Dataset(manifest, columns, item_ids=ids, item_groups=groups, audio_lens=(has_audio * l_a).tolist(),
                      speech_lens=(has_speech * n_s).tolist(), has_teacher=[True] * n, query_ids=query_ids,
                      ground_truth_items=ids, query_groups=groups)
    store = LatentStore(
        item_ids=ids,
        z_vis=z_vis_all,
        z_aud=z_aud_all,
        z_sp=z_sp_all,
        query_latent=dict(zip(query_ids, source_all)),
    )
    return dataset, store


def write_synthetic(config: SynthConfig, out_dir) -> tuple[Dataset, LatentStore]:
    """Generate and write the dataset dir; the latents stay in memory only."""
    dataset, store = generate(config)
    write_dataset(dataset, out_dir)
    return dataset, store


def oracle_scores(query_latent: np.ndarray, item_latents: np.ndarray) -> np.ndarray:
    """Exact latent-space relevance: the cosine of the query latent to each item latent."""
    return _unit_rows(item_latents) @ _unit_rows(np.asarray(query_latent, dtype=np.float64))


def oracle_rank(query_latent: np.ndarray, item_latents: np.ndarray, gt_index: int) -> int:
    """Pessimistic rank of the true item under exact latent-space relevance."""
    return rank_of(oracle_scores(query_latent, item_latents), gt_index)
