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

import collections
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .data import (DIM, TOKENS, WIDTH, ContainerError, FieldError, ItemRecord, Manifest, Spec, bounded, check,
                   check_fields, read_container, read_json, resolve_missing, table, write_container, write_json)


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

# The contrastive temperature starts at CLIP's 0.07 (Radford et al. 2021).
LOGIT_SCALE_INIT = math.log(1.0 / 0.07)

# Log-sum-exp sharpness of the local similarity term. The scorer's local term
# (`autodiff.token_logmeanexp`) takes exp(sharpness * cosine) with no max
# shift. float32 exp overflows above 88.7; at MAX_SHARPNESS the sum m e^s
# stays finite up to m = 6,000 tokens and e^-s stays a normal float32.
DEFAULT_SHARPNESS = 20.0
MAX_SHARPNESS = 80.0


@dataclass
class FusionArch:
    """The architecture fields that a train config sets (`TrainConfig`
    inherits them), `FusionParams` takes as keywords and a checkpoint sidecar
    records, beside the manifest's `dim` and `frames` (ARCH_FIELDS), each
    declared with its spec. Every `bounded` field, a subclass's too, is
    parsed on construction."""

    heads: int = bounded(WIDTH, 4)  # heads divide dim, so MAX_DIM bounds them too
    fusion_depth: int = bounded(Spec(int, 1, 8), 2)
    resampler_depth: int = bounded(Spec(int, 1, 8), 1)
    max_audio_len: int = bounded(TOKENS, 64)
    mode: FusionMode = bounded(Spec(FusionMode), FusionMode.SAVE)
    sharpness: float = bounded(Spec(float, 0, MAX_SHARPNESS, "MAX_SHARPNESS", above=True), DEFAULT_SHARPNESS)

    def __post_init__(self):
        check_fields(self)


# The checkpoint sidecar's field table: `FusionParams`'s `dim` and `frames`,
# with the specs of the manifest's `dim` and `m`, and the `FusionArch` fields.
ARCH_FIELDS = {"dim": DIM, "frames": TOKENS, **table(FusionArch)}
# The index sidecar's field table.
INDEX_FIELDS = {"mode": ARCH_FIELDS["mode"], "item_ids": Spec(list, item=Spec(str)), "m": ARCH_FIELDS["frames"]}


class FusionParams(nn.Module):
    """Every trainable tensor of the fusion network, in a fixed order. The
    keywords `arch` are `FusionArch`'s fields, parsed by building one; `arch`
    also records `dim`, `frames` and the mode and sharpness the parameters
    were trained to score with, so a checkpoint is scored the way it was
    trained. An argument outside its spec (ARCH_FIELDS), a `dim` that `heads`
    does not divide and a non-float dtype are refused."""

    def __init__(self, dim: int, frames: int, seed: int = 0, dtype=np.float32, **arch):
        dim, frames = check(DIM, "dim", dim), check(TOKENS, "frames", frames)
        arch = FusionArch(**arch)
        self.arch = {"dim": dim, "frames": frames, **asdict(arch), "mode": arch.mode.value}
        if not np.issubdtype(dtype, np.floating):
            raise ValueError(f"parameters need a float dtype, got {np.dtype(dtype).name}")
        rng = np.random.default_rng(seed)
        self.resampler = nn.Resampler(dim, arch.heads, frames, rng, arch.resampler_depth, arch.max_audio_len, dtype)
        self.audio_fusion = nn.GatedFusion(dim, arch.heads, arch.fusion_depth, rng, dtype=dtype)
        self.speech_fusion = nn.GatedFusion(dim, arch.heads, arch.fusion_depth, rng, dtype=dtype)
        self.logit_scale = ad.parameter(np.asarray(LOGIT_SCALE_INIT, dtype=dtype))
        self.dtype = np.dtype(dtype)

    def trained_parameters(self, mode: FusionMode) -> list[tuple[str, Tensor]]:
        """The named parameters that `forward_video` and the losses run in
        `mode`, in `named_parameters` order: the resampler and audio stack in
        AUDIO_MODES, the speech stack in SPEECH_MODES, and `logit_scale`."""
        mode = FusionMode(mode)
        unused = ("resampler.", "audio_fusion.") if mode not in AUDIO_MODES else ()
        unused += ("speech_fusion.",) if mode not in SPEECH_MODES else ()
        return [(name, p) for name, p in self.named_parameters() if not name.startswith(unused)]

    def temperature_scale(self) -> Tensor:
        """Positive contrastive score multiplier exp(logit_scale)."""
        return ad.exp(self.logit_scale)


def save_params(params: FusionParams, path) -> None:
    """Checkpoint: tensors in the standard container + architecture sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_container(path, {f"param/{name}": p.data for name, p in params.named_parameters()})
    meta = dict(params.arch)
    meta["dtype"] = params.dtype.name
    write_json(Path(str(path) + ".json"), meta)


def _refuse_sizes(meta: dict, records: dict) -> None:
    """ContainerError when a sidecar size that allocates (dim, frames,
    max_audio_len, resampler_depth, fusion_depth) disagrees with the
    records, checked before `FusionParams` allocates anything of that size.
    A size that is not a plain int is left for `FusionParams` to refuse."""
    sizes = {key: value for key, value in meta.items() if type(value) is int}
    for name, rows in (("resampler.queries", "frames"), ("resampler.pos", "max_audio_len")):
        if f"param/{name}" not in records:
            raise ContainerError(f"checkpoint missing parameter {name}")
        held = records[f"param/{name}"].size
        if rows in sizes and "dim" in sizes and held != sizes[rows] * sizes["dim"]:
            raise ContainerError(f"checkpoint parameter {name} has {held} values, not {sizes[rows] * sizes['dim']}")
    for depth, prefix in (("resampler_depth", "resampler.stack.blocks."),
                          ("fusion_depth", "audio_fusion.stack.blocks.")):
        held = 0  # the blocks 0, 1, ... that have records
        while any(key.startswith(f"param/{prefix}{held}.") for key in records):
            held += 1
        if sizes.get(depth, 0) > held:
            raise ContainerError(f"checkpoint missing parameter {prefix}{held}.* (its sidecar says {depth} "
                                 f"{sizes[depth]})")


def _read_sidecar(path) -> dict:
    """The JSON object in the `.json` sidecar of `path`; ContainerError for
    any other JSON document."""
    sidecar = f"{path}.json"
    meta = read_json(sidecar)
    if not isinstance(meta, dict):
        raise ContainerError(f"{sidecar} is not a JSON object")
    return meta


def load_params(path) -> FusionParams:
    path = Path(path)
    meta = _read_sidecar(path)
    unknown = sorted(set(meta) - ARCH_FIELDS.keys() - {"dtype"})
    if unknown:
        raise ContainerError(f"checkpoint sidecar has unknown parameter {unknown[0]!r}")
    records = read_container(path)
    _refuse_sizes(meta, records)
    try:
        dtype = np.dtype(meta.pop("dtype"))
        params = FusionParams(**meta, dtype=dtype)
    except (KeyError, TypeError, ValueError) as err:
        raise ContainerError(f"checkpoint sidecar does not describe a model ({type(err).__name__}: {err})") from err
    named = dict(params.named_parameters())
    extra = sorted(key for key in records if key.startswith("param/") and key.removeprefix("param/") not in named)
    if extra:
        raise ContainerError(f"checkpoint record {extra[0]} is not a parameter of the model its sidecar describes")
    for name, p in named.items():
        key = f"param/{name}"
        if key not in records:
            raise ContainerError(f"checkpoint missing parameter {name}")
        if records[key].size != p.data.size:
            raise ContainerError(f"checkpoint parameter {name} has {records[key].size} values, not {p.data.size}")
        p.data = records[key].reshape(p.data.shape).astype(dtype)
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


def _stack(items: list[ItemRecord], field: str, dtype) -> tuple[Tensor, np.ndarray | None]:
    """One token field of every item, zero-padded to (B, L_max, d), and the
    (B, L_max) mask of each item's own tokens; no mask when every item has
    L_max tokens, so attention skips the masking."""
    arrays = [getattr(item, field) for item in items]
    missing = [item.item_id for item, arr in zip(items, arrays) if arr is None]
    if missing:
        raise ValueError(f"item {missing[0]} must go through resolve_missing before fusion")
    lengths = np.array([len(arr) for arr in arrays])
    if lengths.min() == lengths.max():
        return Tensor(np.stack(arrays, dtype=dtype)), None
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
    write_container(path, {"index/tokens": index.tokens.reshape(n * m, d), "index/pooled": index.pooled})
    meta = {"mode": index.mode.value, "item_ids": index.item_ids, "m": m}
    write_json(Path(str(path) + ".json"), meta)


def load_index(path) -> VideoIndex:
    path = Path(path)
    meta = _read_sidecar(path)
    records = read_container(path)
    try:
        mode, ids, m = (check(spec, key, meta[key]) for key, spec in INDEX_FIELDS.items())
    except (KeyError, FieldError) as err:
        raise ContainerError(f"index sidecar does not describe an index ({type(err).__name__}: {err})") from err
    if len(set(ids)) < len(ids):
        counts = collections.Counter(ids)
        repeated = next(i for i in ids if counts[i] > 1)
        raise ContainerError(f"index sidecar field item_ids lists {repeated} more than once")
    arrays = {}
    for name in ("tokens", "pooled"):
        if f"index/{name}" not in records:
            raise ContainerError(f"{mode.value} index {path} lacks its {name} record")
        arr = records[f"index/{name}"]
        if arr.ndim != 2:
            raise ContainerError(f"index record {name} has shape {arr.shape}, not (rows, d)")
        rows = len(ids) * m if name == "tokens" else len(ids)
        if len(arr) != rows:
            raise ContainerError(f"index record {name} has {len(arr)} rows, expected {rows} for {len(ids)} items")
        arrays[name] = arr.reshape(len(ids), m, arr.shape[-1]) if name == "tokens" else arr
    widths = {name: arr.shape[-1] for name, arr in arrays.items()}
    if widths["tokens"] != widths["pooled"]:
        raise ContainerError(f"index record tokens is {widths['tokens']} wide, record pooled {widths['pooled']}")
    return VideoIndex(mode=mode, item_ids=ids, **arrays)
