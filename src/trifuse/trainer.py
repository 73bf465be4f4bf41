"""Deterministic training loop: Adam, cosine decay, validation-based selection.

One optimization step builds one autodiff graph over the whole batch: a
single fusion forward (whose resampled audio also feeds the pre-fusion pooling
of the student affinity) -> differentiable score matrix -> contrastive +
alignment -> backward -> clipped Adam update at the cosine-scheduled rate.
Identical (seed, config, dataset) triples reproduce bit-identical logs,
parameters and checkpoints; log records therefore carry no wall-clock fields.
Besides the losses and the learning rate, each step's record holds the
gradient norm before clipping (`grad_norm`, also without clipping), the
values of the parameters the loss was computed with (`audio_gate` and
`speech_gate` as tanh of the gates, `temperature` = 1 / exp(logit_scale),
`alpha`, `beta`) and `teacher_items`, the batch items with teacher embeddings.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Dataset, ItemRecord, batch_iter, resolve_missing
from .evaluation import summary_metrics
from .fusion import (DEFAULT_SHARPNESS, FusedBatch, FusionMode, FusionParams, check_sharpness, forward_video,
                     precompute_index, pre_fusion_pooled)
from .losses import (
    AlignKind,
    affinity_from_teacher,
    contrastive_loss,
    hard_albef_loss,
    soft_albef_loss,
    student_affinity,
    total_loss,
)
from .similarity import batch_scores, score_matrix

logger = logging.getLogger(__name__)

class NanGradientError(RuntimeError):
    def __init__(self, name: str):
        super().__init__(f"non-finite gradient in parameter {name}")
        self.parameter = name


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 128
    lr: float = 1e-4
    sharpness: float = DEFAULT_SHARPNESS
    tau_init: float = 0.07
    align_kind: AlignKind = AlignKind.SOFT_ALBEF
    mode: FusionMode = FusionMode.SAVE
    seed: int = 0
    grad_clip: float | None = 1.0
    heads: int = 4
    fusion_depth: int = 2
    resampler_depth: int = 1
    max_audio_len: int = 64

    def __post_init__(self):
        self.align_kind = AlignKind(self.align_kind)
        self.mode = FusionMode(self.mode)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 for contrastive training")
        if self.lr <= 0 or self.tau_init <= 0:
            raise ValueError("learning rate and tau must be positive")
        check_sharpness(self.sharpness)


class Adam:
    """Bias-corrected Adam over named parameters."""

    def __init__(self, named_params: list[tuple[str, Tensor]], beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_params = named_params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.moments = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in named_params
        }

    def step(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.step_count += 1
        t = self.step_count
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NanGradientError(name)
            m, v = self.moments[name]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self.moments[name] = (m, v)
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr * 0.5 * (1 + cos(pi * step / total_steps))."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def clip_global_norm(named_params, max_norm: float | None) -> float:
    """The global L2 norm of the gradients before clipping; when it exceeds a
    positive `max_norm`, every gradient is scaled down to that norm."""
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm is not None and norm > max_norm > 0:
        scale = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad = (p.grad * scale).astype(p.grad.dtype)
    return norm


@dataclass
class TrainResult:
    params: FusionParams  # the best epoch's, or the last-good ones after an abort
    log: list[dict]
    best_epoch: int | None = None
    aborted: bool = False
    abort_reason: str | None = None


def _snapshot(params: FusionParams) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in params.named_parameters()}


def _restore(params: FusionParams, state: dict[str, np.ndarray]) -> None:
    for name, p in params.named_parameters():
        p.data = state[name].copy()


def _readings(params: FusionParams, items: list[ItemRecord]) -> dict:
    """The parameters a step's loss was computed with, and how many of its
    items carry teacher embeddings."""
    return {
        "audio_gate": params.audio_fusion.gate_value(),
        "speech_gate": params.speech_fusion.gate_value(),
        "temperature": 1.0 / math.exp(float(params.logit_scale.data)),
        "alpha": float(params.alpha.data),
        "beta": float(params.beta.data),
        "teacher_items": sum(item.has_teacher() for item in items),
    }


def _alignment_term(
    config: TrainConfig, items: list[ItemRecord], fused: FusedBatch
) -> tuple[Tensor | None, float]:
    """Alignment loss over the sub-batch with teacher embeddings, or None.

    Modes with no audio branch have nothing to align; the term is zero there.
    """
    if config.align_kind == AlignKind.NONE or fused.audio is None:
        return None, 0.0
    rows = [i for i, it in enumerate(items) if it.has_teacher()]
    if len(rows) < 2:
        logger.debug("alignment skipped: only %d items carry teacher embeddings", len(rows))
        return None, 0.0
    m0 = affinity_from_teacher(
        np.stack([items[i].teacher_video for i in rows]),
        np.stack([items[i].teacher_audio for i in rows]),
    )
    v_mean, a_mean = pre_fusion_pooled(fused)
    m1 = student_affinity(ad.take(v_mean, rows), ad.take(a_mean, rows))
    term = soft_albef_loss(m0, m1) if config.align_kind == AlignKind.SOFT_ALBEF else hard_albef_loss(m1)
    return term, float(term.data)


def train(
    config: TrainConfig,
    dataset: Dataset,
    train_split: str = "train",
    val_split: str | None = None,
) -> TrainResult:
    """Train on `train_split`; with a `val_split` that has queries, validate
    R@1 after every epoch and return the best epoch's parameters (ties go to
    the earliest), otherwise the last epoch's."""
    man = dataset.manifest
    params = FusionParams(
        dim=man.dim,
        frames=man.frames,
        heads=config.heads,
        fusion_depth=config.fusion_depth,
        resampler_depth=config.resampler_depth,
        max_audio_len=config.max_audio_len,
        mode=config.mode,
        sharpness=config.sharpness,
        seed=config.seed,
    )
    params.logit_scale.data = np.asarray(math.log(1.0 / config.tau_init), dtype=params.dtype)

    item_ids = list(man.splits[train_split]["items"])
    query_of = dataset.first_queries(train_split)
    missing = [i for i in item_ids if i not in query_of]
    if missing:
        raise ValueError(f"train items without any query: {missing[:5]}")

    steps_per_epoch = len(item_ids) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    if total_steps == 0:
        raise ValueError("batch size leaves no full training batch")

    validate = bool(val_split and man.splits.get(val_split, {}).get("queries"))
    if val_split and not validate:
        logger.warning("validation split %r has no queries: keeping the last epoch", val_split)
    adam = Adam(list(params.named_parameters()))
    log: list[dict] = []
    last_good = best = _snapshot(params)
    best_epoch, best_r1 = config.epochs - 1, -1.0
    step = 0

    try:
        for epoch in range(config.epochs):
            for batch_ids in batch_iter(item_ids, config.batch_size, config.seed * 100003 + epoch):
                items = [resolve_missing(dataset.items[i], man) for i in batch_ids]
                queries = np.stack([dataset.queries[query_of[i]].embedding for i in batch_ids])

                fused = forward_video(items, params, config.mode)
                scores = batch_scores(fused, queries, sharpness=config.sharpness)
                contrastive = contrastive_loss(scores, scale=params.temperature_scale())
                align_term, align_value = _alignment_term(config, items, fused)
                loss = total_loss(contrastive, align_term)
                if not np.isfinite(float(loss.data)):
                    raise FloatingPointError(f"non-finite loss at step {step}")

                params.zero_grad()
                loss.backward()
                grad_norm = clip_global_norm(adam.named_params, config.grad_clip)
                lr = cosine_lr(step, total_steps, config.lr)
                record = {
                    "step": step,
                    "epoch": epoch,
                    "lr": lr,
                    "contrastive": float(contrastive.data),
                    "alignment": align_value,
                    "total": float(loss.data),
                    "grad_norm": grad_norm,
                    **_readings(params, items),
                }
                adam.step(lr)
                log.append(record)
                step += 1

            last_good = _snapshot(params)
            if validate:
                r1 = _val_r1(params, dataset, val_split, config)
                log.append({"epoch": epoch, "val_r1": r1})
                if r1 > best_r1:  # ties keep the earlier epoch
                    best_epoch, best_r1, best = epoch, r1, last_good
    except (FloatingPointError, NanGradientError) as err:
        _restore(params, last_good)
        logger.error("%s; restored last-good parameters", err)
        return TrainResult(params, log, aborted=True, abort_reason=str(err))

    if validate:
        _restore(params, best)
    return TrainResult(params, log, best_epoch)


def _val_r1(params: FusionParams, dataset: Dataset, split: str, config: TrainConfig) -> float:
    items = dataset.split_items(split)
    queries = dataset.split_queries(split)
    index = precompute_index(items, params, config.mode, dataset.manifest)
    matrix = score_matrix(index, queries, sharpness=config.sharpness)
    gt = {q.query_id: q.ground_truth_item for q in queries}
    return summary_metrics(matrix, gt)["r1"]
