"""End-to-end video representation under every fusion mode, plus the offline index.

The trainable bundle (`FusionParams`) holds one audio resampler, two
independently parameterized gated-fusion stacks (audio, speech) and the
contrastive logit scale. The four modes are `save` (both branches),
`avigate` (audio only), `no_audio` (speech only) and `vision_only`. Every
mode is scored from the same two arrays: the fused tokens and their mean. At
default initialization the gates are zero, so every mode reduces exactly to
the raw visual tokens.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .data import (KIND_TOKENS, KIND_VECTOR, ContainerError, ItemRecord, Manifest, atomic_write, read_container,
                   resolve_missing, write_container)


class FusionMode(str, Enum):
    SAVE = "save"
    AVIGATE = "avigate"
    VISION_ONLY = "vision_only"
    NO_AUDIO = "no_audio"


# Audio-visual weighted-sum coefficients. The fused tokens are stored
# rescaled by 1/AV_VISUAL_WEIGHT (v + 0.05/0.95 * a_hat): a positive scalar
# multiple scores identically under every cosine-based similarity and keeps
# the zero-gate reduction to v bit-exact.
AV_VISUAL_WEIGHT = 0.95
AV_AUDIO_WEIGHT = 0.05

LOGIT_SCALE_INIT = math.log(1.0 / 0.07)

# Log-sum-exp sharpness of the local similarity term. The scorer's local term
# (`autodiff.token_logmeanexp`) takes exp(sharpness * cosine) with no max
# shift. float32 exp overflows above 88.7; at MAX_SHARPNESS the sum m e^s
# stays finite up to m = 6,000 tokens and e^-s stays a normal float32.
DEFAULT_SHARPNESS = 20.0
MAX_SHARPNESS = 80.0


def check_sharpness(sharpness: float) -> float:
    """`sharpness` as a float, or ValueError outside (0, MAX_SHARPNESS]."""
    if not float(sharpness) > 0:
        raise ValueError(f"sharpness must be > 0, got {sharpness}")
    if not float(sharpness) <= MAX_SHARPNESS:
        raise ValueError(f"sharpness must be <= MAX_SHARPNESS ({MAX_SHARPNESS}), got {sharpness}")
    return float(sharpness)


class FusionParams(nn.Module):
    """Every trainable tensor of the fusion network, in a fixed order. `arch`
    also records the mode and sharpness the parameters were trained to score
    with, so a checkpoint is scored the way it was trained."""

    def __init__(
        self,
        dim: int,
        frames: int,
        heads: int = 4,
        fusion_depth: int = 2,
        resampler_depth: int = 1,
        max_audio_len: int = 64,
        mode: FusionMode = FusionMode.SAVE,
        sharpness: float = DEFAULT_SHARPNESS,
        seed: int = 0,
        dtype=np.float32,
    ):
        sharpness = check_sharpness(sharpness)
        rng = np.random.default_rng(seed)
        self.resampler = nn.Resampler(
            dim, heads, frames, rng, depth=resampler_depth, max_len=max_audio_len, dtype=dtype
        )
        self.audio_fusion = nn.GatedFusion(dim, heads, fusion_depth, rng, dtype=dtype)
        self.speech_fusion = nn.GatedFusion(dim, heads, fusion_depth, rng, dtype=dtype)
        self.logit_scale = ad.parameter(np.asarray(LOGIT_SCALE_INIT, dtype=dtype))
        self.arch = {
            "dim": dim,
            "frames": frames,
            "heads": heads,
            "fusion_depth": fusion_depth,
            "resampler_depth": resampler_depth,
            "max_audio_len": max_audio_len,
            "mode": FusionMode(mode).value,
            "sharpness": sharpness,
        }
        self.dtype = np.dtype(dtype)

    def temperature_scale(self) -> Tensor:
        """Positive contrastive score multiplier exp(logit_scale)."""
        return ad.exp(self.logit_scale)


def save_params(params: FusionParams, path) -> None:
    """Checkpoint: tensors in the standard container + architecture sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = {}
    for name, p in params.named_parameters():
        kind = KIND_TOKENS if p.data.ndim == 2 else KIND_VECTOR
        records[f"param/{name}"] = (kind, p.data)
    write_container(path, records)
    meta = dict(params.arch)
    meta["dtype"] = params.dtype.name
    atomic_write(Path(str(path) + ".json"), (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())


def load_params(path) -> FusionParams:
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    unknown = sorted(set(meta) - set(inspect.signature(FusionParams).parameters))
    if unknown:
        raise ContainerError(f"checkpoint sidecar has unknown parameter {unknown[0]!r}")
    try:
        dtype = np.dtype(meta.pop("dtype"))
        params = FusionParams(**meta, dtype=dtype)
    except (KeyError, TypeError, ValueError) as err:
        raise ContainerError(f"checkpoint sidecar does not describe a model ({type(err).__name__}: {err})") from err
    records = read_container(path)
    for name, p in params.named_parameters():
        key = f"param/{name}"
        if key not in records:
            raise ContainerError(f"checkpoint missing parameter {name}")
        if records[key][1].size != p.data.size:
            raise ContainerError(f"checkpoint parameter {name} has {records[key][1].size} values, not {p.data.size}")
        p.data = records[key][1].reshape(p.data.shape).astype(dtype)
    return params


@dataclass
class VideoIndex:
    """Offline per-video artifact scored online without any network evaluation."""

    mode: FusionMode
    item_ids: list[str]
    tokens: np.ndarray  # (n, m, d) fused tokens
    pooled: np.ndarray  # (n, d) token means

    @property
    def dim(self) -> int:
        return self.pooled.shape[-1]


@dataclass
class FusedBatch:
    """`forward_video` output for B items; every array leads with the item axis."""

    tokens: Tensor  # (B, m, d) fused tokens
    pooled: Tensor  # (B, d) their means
    visual: Tensor | None = None  # (B, m, d) input visual tokens
    audio: Tensor | None = None  # (B, m, d) resampled audio, in the modes that use audio


AUDIO_MODES = frozenset({FusionMode.AVIGATE, FusionMode.SAVE})
SPEECH_MODES = frozenset({FusionMode.NO_AUDIO, FusionMode.SAVE})

# Items per forward pass when building an index.
INDEX_CHUNK = 128


def _stack(items: list[ItemRecord], field: str, dtype) -> tuple[Tensor, np.ndarray]:
    """One token field of every item, zero-padded to (B, L_max, d), and the
    (B, L_max) mask of each item's own tokens."""
    arrays = [getattr(item, field) for item in items]
    missing = [item.item_id for item, arr in zip(items, arrays) if arr is None]
    if missing:
        raise ValueError(f"item {missing[0]} must go through resolve_missing before fusion")
    lengths = np.array([len(arr) for arr in arrays])
    mask = np.arange(lengths.max()) < lengths[:, None]
    out = np.zeros(mask.shape + (arrays[0].shape[-1],), dtype=dtype)
    out[mask] = np.concatenate(arrays)
    return Tensor(out), mask


def forward_video(items: list[ItemRecord], params: FusionParams, mode: FusionMode) -> FusedBatch:
    """Fused tokens of a batch of resolved items, as one graph.

    The items must come through `resolve_missing` first in the modes that
    touch audio or speech; a batch may mix token lengths.
    """
    mode = FusionMode(mode)
    v, _ = _stack(items, "visual_tokens", params.dtype)
    audio = a_hat = s_hat = None
    if mode in AUDIO_MODES:
        audio = params.resampler(*_stack(items, "audio_tokens", params.dtype))
        a_hat = params.audio_fusion(v, audio)
    if mode in SPEECH_MODES:
        s_hat = params.speech_fusion(v, *_stack(items, "speech_tokens", params.dtype))

    if mode == FusionMode.VISION_ONLY:
        fused = v
    elif mode == FusionMode.AVIGATE:
        fused = v + a_hat * (AV_AUDIO_WEIGHT / AV_VISUAL_WEIGHT)
    elif mode == FusionMode.NO_AUDIO:
        fused = v + s_hat
    else:  # save
        fused = v + (a_hat + s_hat) * 0.5
    return FusedBatch(fused, fused.mean(axis=-2), visual=v, audio=audio)


def pre_fusion_pooled(fused: FusedBatch) -> tuple[Tensor, Tensor]:
    """L2-normalized (B, d) means of the visual tokens and of the resampled
    audio tokens before fusion; the student-affinity inputs."""
    if fused.audio is None:
        raise ValueError("pre-fusion pooling needs a fusion mode with an audio branch")
    return ad.l2_normalize(fused.visual.mean(axis=-2)), ad.l2_normalize(fused.audio.mean(axis=-2))


def precompute_index(
    items: list[ItemRecord], params: FusionParams, mode: FusionMode, manifest: Manifest
) -> VideoIndex:
    """Forward passes over fixed chunks of INDEX_CHUNK items under no_grad; a
    pure function of (items, params, mode). The index holds the fused tokens
    and their means as float32."""
    mode = FusionMode(mode)
    n = len(items)
    arrays = {"tokens": np.empty((n, manifest.frames, manifest.dim), np.float32),
              "pooled": np.empty((n, manifest.dim), np.float32)}
    with ad.no_grad():
        for start in range(0, n, INDEX_CHUNK):
            chunk = [resolve_missing(item, manifest) for item in items[start : start + INDEX_CHUNK]]
            fused = forward_video(chunk, params, mode)
            for name, out in arrays.items():
                out[start : start + len(chunk)] = getattr(fused, name).data
    return VideoIndex(mode=mode, item_ids=[item.item_id for item in items], **arrays)


def save_index(index: VideoIndex, path) -> None:
    """Two container records, `index/tokens` stored as (n*m, d) and
    `index/pooled`; a `.json` sidecar with the mode, the item ids and m."""
    path = Path(path)
    n, m, d = index.tokens.shape
    write_container(path, {"index/tokens": (KIND_TOKENS, index.tokens.reshape(n * m, d)),
                           "index/pooled": (KIND_TOKENS, index.pooled)})
    meta = {"mode": index.mode.value, "item_ids": index.item_ids, "m": m}
    atomic_write(Path(str(path) + ".json"), (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())


def load_index(path) -> VideoIndex:
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    records = read_container(path)
    try:
        mode, ids, m = FusionMode(meta["mode"]), meta["item_ids"], meta["m"]
    except (KeyError, ValueError) as err:
        raise ContainerError(f"index sidecar does not describe an index ({type(err).__name__}: {err})") from err
    arrays = {}
    for name in ("tokens", "pooled"):
        if f"index/{name}" not in records:
            raise ContainerError(f"{mode.value} index {path} lacks its {name} record")
        arr = records[f"index/{name}"][1]
        rows = len(ids) * m if name == "tokens" else len(ids)
        if len(arr) != rows:
            raise ContainerError(f"index record {name} has {len(arr)} rows, expected {rows} for {len(ids)} items")
        arrays[name] = arr.reshape(len(ids), m, arr.shape[-1]) if name == "tokens" else arr
    return VideoIndex(mode=mode, item_ids=ids, **arrays)
