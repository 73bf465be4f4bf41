"""Deterministic training loop: Adam, cosine decay, validation-based selection.

One optimization step builds one autodiff graph over the whole batch: a
single fusion forward (whose resampled audio also feeds the pre-fusion pooling
of the student affinity) -> differentiable score matrix -> contrastive +
alignment -> backward -> clipped Adam update at the cosine-scheduled rate.
The graph is dropped when the step ends (`_step`), so one tape at most is
alive at a time, and validation runs with none.
Adam holds only the parameters that the mode runs, in one flat buffer, and
gathers each step's gradients once, so the finite check, clipping and the
update are each one operation over that vector, and the per-epoch snapshots
and the restores one over the buffer.
Identical (seed, config, dataset) triples reproduce bit-identical logs,
parameters and checkpoints; log records therefore carry no wall-clock fields.
Besides the losses and the learning rate, each step's record holds the
gradient norm before clipping (`grad_norm`, also without clipping), the
values of the parameters the loss was computed with (`audio_gate` and
`speech_gate` as tanh of the gates, `temperature` = 1 / exp(logit_scale))
and `teacher_items`, the batch items with teacher embeddings.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import SEED, Dataset, ItemRecord, Spec, ValidationError, batch_iter, bounded, resolve_missing
from .evaluation import summary_metrics
from .fusion import FusedBatch, FusionArch, FusionParams, forward_video, precompute_index, pre_fusion_pooled
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
class TrainConfig(FusionArch):
    """Training settings, beside the architecture fields of `FusionArch`;
    each field is parsed by its spec on construction."""

    epochs: int = bounded(Spec(int, 1), 5)
    batch_size: int = bounded(Spec(int, 2), 128)  # contrastive training needs a negative
    lr: float = bounded(Spec(float, 0, above=True), 1e-4)
    align_kind: AlignKind = bounded(Spec(AlignKind), AlignKind.SOFT_ALBEF)
    seed: int = bounded(SEED, 0)
    grad_clip: float | None = bounded(Spec(float, 0, above=True, null=True), 1.0)  # None: no clipping


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over named parameters held in one flat buffer.

    On construction every parameter's `.data` becomes a view into `data`, one
    array of the parameters' common dtype in the order given, and the two
    moments are flat arrays of the same layout. A step gathers the gradients
    once into a vector of its own, checks it, clips it in place
    (`clip_global_norm`) and updates the whole buffer in one pass; no `.grad`
    array is written. Every parameter needs a gradient at every step, so Adam
    gets only the parameters the loss reaches
    (`FusionParams.trained_parameters`). The update is elementwise, in the
    order of the per-tensor formula, so identical gradients give
    bit-identical parameters. Change parameters before building Adam: a
    parameter given a new `.data` array afterwards is cut off from the
    buffer.
    """

    def __init__(self, named_params: Iterable[tuple[str, Tensor]]):
        self.named_params = list(named_params)
        self.tensors = [p for _, p in self.named_params]
        dtypes = {p.data.dtype for p in self.tensors}
        if len(dtypes) != 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {sorted(d.name for d in dtypes)}")
        self.data = np.concatenate([p.data.reshape(-1) for p in self.tensors])
        self.bounds = np.cumsum([0] + [p.data.size for p in self.tensors]).tolist()
        for p, lo, hi in zip(self.tensors, self.bounds, self.bounds[1:]):
            p.data = self.data[lo:hi].reshape(p.data.shape)
        self.m, self.v = np.zeros_like(self.data), np.zeros_like(self.data)
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.tensors:
            p.grad = None

    def step(self, lr: float, max_norm: float | None = None) -> float:
        """Update at rate `lr` with the gradients clipped to a global norm of
        `max_norm`; return their norm before clipping. A parameter without a
        gradient raises RuntimeError."""
        if lr <= 0:
            raise ValueError("lr must be positive")
        for name, p in self.named_params:
            if p.grad is None:
                raise RuntimeError(f"no gradient for parameter {name}")
        self.step_count += 1
        t = self.step_count
        g = np.concatenate([p.grad.reshape(-1) for p in self.tensors])
        if not np.isfinite(g).all():
            raise NanGradientError(next(name for name, p in self.named_params if not np.isfinite(p.grad).all()))
        norm = clip_global_norm(g, max_norm)
        # In place, in the order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
        # data -= lr m_hat / (sqrt(v_hat) + eps); `g` is this step's own copy.
        gg = g * g
        gg *= 1.0 - BETA2
        g *= 1.0 - BETA1
        self.m *= BETA1
        self.m += g
        self.v *= BETA2
        self.v += gg
        update = self.m / (1.0 - BETA1**t)
        denom = self.v / (1.0 - BETA2**t)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update *= lr
        update /= denom
        self.data -= update
        return norm


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr * 0.5 * (1 + cos(pi * step / total_steps))."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def clip_global_norm(flat: np.ndarray, max_norm: float | None) -> float:
    """The L2 norm of the gathered gradients `flat` before clipping, one
    float64 sum. When it exceeds a positive `max_norm`, `flat` is scaled in
    place down to that norm."""
    norm = math.sqrt(float(np.square(flat, dtype=np.float64).sum()))
    if max_norm is not None and norm > max_norm > 0:
        flat *= max_norm / norm
    return norm


@dataclass
class TrainResult:
    params: FusionParams  # the best epoch's, or the last-good ones after an abort
    log: list[dict]
    best_epoch: int | None = None
    aborted: bool = False
    abort_reason: str | None = None


def _readings(params: FusionParams, items: list[ItemRecord]) -> dict:
    """The parameters a step's loss was computed with, and how many of its
    items carry teacher embeddings."""
    return {
        "audio_gate": params.audio_fusion.gate_value(),
        "speech_gate": params.speech_fusion.gate_value(),
        "temperature": 1.0 / math.exp(float(params.logit_scale.data)),
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


def _step(config: TrainConfig, params: FusionParams, adam: Adam, items: list[ItemRecord], queries: np.ndarray,
          epoch: int, step: int, total_steps: int) -> dict:
    """One optimization step on a batch, and its log record. The step's tape
    (every node, and the activations its closures hold) is referenced only
    from this frame, so it is freed when the step returns."""
    fused = forward_video(items, params, config.mode)
    scores = batch_scores(fused, queries, sharpness=config.sharpness)
    contrastive = contrastive_loss(scores, scale=params.temperature_scale())
    align_term, align_value = _alignment_term(config, items, fused)
    loss = total_loss(contrastive, align_term)
    if not np.isfinite(float(loss.data)):
        raise FloatingPointError(f"non-finite loss at step {step}")

    adam.zero_grad()
    loss.backward()
    lr = cosine_lr(step, total_steps, config.lr)
    readings = _readings(params, items)  # before the update changes the parameters
    grad_norm = adam.step(lr, config.grad_clip)
    return {
        "step": step,
        "epoch": epoch,
        "lr": lr,
        "contrastive": float(contrastive.data),
        "alignment": align_value,
        "total": float(loss.data),
        "grad_norm": grad_norm,
        **readings,
    }


def train(config: TrainConfig, dataset: Dataset, val_split: str | None = None) -> TrainResult:
    """Train on the "train" split, each item paired with its first query
    there; a dataset without that split, or with a train item that has no
    train query, raises ValidationError. With a `val_split` that has queries,
    validate R@1 after every epoch and return the best epoch's parameters
    (ties go to the earliest), otherwise the last epoch's. A non-finite loss
    or gradient aborts the run with the last-good parameters restored; the
    result's `abort_reason` carries it to the caller, and nothing is logged."""
    man = dataset.manifest
    if "train" not in man.splits:
        raise ValidationError("dataset has no train split")
    item_ids = list(man.splits["train"]["items"])
    query_of = dataset.first_queries("train")
    missing = [i for i in item_ids if i not in query_of]
    if missing:
        raise ValidationError(f"train items without any query: {missing[:5]}")
    params = FusionParams(man.dim, man.frames, seed=config.seed,
                          **{f.name: getattr(config, f.name) for f in fields(FusionArch)})

    steps_per_epoch = len(item_ids) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    if total_steps == 0:
        raise ValueError("batch size leaves no full training batch")

    validate = bool(val_split and man.splits.get(val_split, {}).get("queries"))
    if val_split and not validate:
        logger.warning("validation split %r has no queries: keeping the last epoch", val_split)
    adam = Adam(params.trained_parameters(config.mode))
    log: list[dict] = []
    last_good = best = adam.data.copy()
    best_epoch, best_r1 = config.epochs - 1, -1.0
    step = 0

    try:
        for epoch in range(config.epochs):
            for batch_ids in batch_iter(item_ids, config.batch_size, config.seed * 100003 + epoch):
                items = [resolve_missing(dataset.items[i], man) for i in batch_ids]
                queries = np.stack([dataset.queries[query_of[i]].embedding for i in batch_ids])

                log.append(_step(config, params, adam, items, queries, epoch, step, total_steps))
                step += 1

            last_good = adam.data.copy()
            if validate:
                r1 = _val_r1(params, dataset, val_split, config)
                log.append({"epoch": epoch, "val_r1": r1})
                if r1 > best_r1:  # ties keep the earlier epoch
                    best_epoch, best_r1, best = epoch, r1, last_good
    except (FloatingPointError, NanGradientError) as err:
        adam.data[...] = last_good
        return TrainResult(params, log, aborted=True, abort_reason=str(err))

    if validate:
        adam.data[...] = best
    return TrainResult(params, log, best_epoch)


def _val_r1(params: FusionParams, dataset: Dataset, split: str, config: TrainConfig) -> float:
    items = dataset.split_items(split)
    queries = dataset.split_queries(split)
    index = precompute_index(items, params, config.mode, dataset.manifest)
    matrix = score_matrix(index, queries, sharpness=config.sharpness)
    gt = {q.query_id: q.ground_truth_item for q in queries}
    return summary_metrics(matrix, gt)["r1"]
