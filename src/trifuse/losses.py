"""Training objectives: contrastive retrieval loss and the alignment terms.

Alignment pulls the student's pre-fusion video-audio affinities towards
matched pairs. `soft_albef` (the default) distills a constant teacher
affinity matrix: the Pearson distance between softmaxed rows and columns of
teacher and student. `hard_albef` is ALBEF's identity-target cross-entropy,
the baseline it replaces; `none` trains on the contrastive loss alone. The
teacher matrix never receives gradient: it enters as a constant.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PEARSON_EPS = 1e-8


class AlignKind(str, Enum):
    SOFT_ALBEF = "soft_albef"
    HARD_ALBEF = "hard_albef"
    NONE = "none"


def affinity_from_teacher(teacher_video: np.ndarray, teacher_audio: np.ndarray) -> np.ndarray:
    """Constant B x B teacher matrix: video_i . audio_j of unit-norm embeddings."""
    tv = np.asarray(teacher_video, dtype=np.float64)
    ta = np.asarray(teacher_audio, dtype=np.float64)
    if tv.shape != ta.shape or tv.ndim != 2:
        raise ValueError(f"teacher stacks must be equal (B, d_t) arrays, got {tv.shape} and {ta.shape}")
    return tv @ ta.T


def student_affinity(v_mean: Tensor, a_mean: Tensor) -> Tensor:
    """B x B matrix of v_mean_i . a_mean_j from (B, d) pre-fusion pooled embeddings."""
    return ad.matmul(v_mean, ad.transpose(a_mean))


def _as_constant(x) -> Tensor:
    if isinstance(x, Tensor):
        return x.detach()
    return Tensor(np.asarray(x, dtype=np.float64))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _pearson_distances(p: Tensor, q: Tensor, axis: int) -> Tensor:
    """1 - corr(p, q) of every slice along `axis`, in [0, 2], as one expression.

    A slice whose standard deviation is at or below PEARSON_EPS is treated as
    degenerate and contributes distance 0 (and no gradient): a constant
    softmax row only arises from all-equal scores, and penalizing it would
    be arbitrary.
    """
    pc = p - p.mean(axis=axis, keepdims=True)
    qc = q - q.mean(axis=axis, keepdims=True)
    var_p = (pc * pc).mean(axis=axis)
    var_q = (qc * qc).mean(axis=axis)
    live = (np.sqrt(var_p.data) > PEARSON_EPS) & (np.sqrt(var_q.data) > PEARSON_EPS)
    # Degenerate slices divide by 1 instead of ~0, then are masked to 0 with
    # no gradient.
    dead = ~live
    corr = (pc * qc).mean(axis=axis) / (ad.sqrt(var_p + dead) * ad.sqrt(var_q + dead))
    return (1.0 - corr) * live


def _check_square_pair(m0: Tensor, m1: Tensor) -> int:
    if m0.shape != m1.shape or m0.data.ndim != 2 or m0.shape[0] != m0.shape[1]:
        raise ValueError(f"affinity matrices must be equal square shapes, got {m0.shape} and {m1.shape}")
    return m0.shape[0]


def soft_albef_loss(m0, m1) -> Tensor:
    """Pearson distance between softmaxed rows and columns of teacher/student.

    (1/b) sum_i d_p(softmax(M0[i,:]), softmax(M1[i,:]))
      + (1/b) sum_j d_p(softmax(M0[:,j]), softmax(M1[:,j]))
    """
    m0 = _as_constant(m0)
    m1 = _as_tensor(m1)
    b = _check_square_pair(m0, m1)
    rows = _pearson_distances(ad.softmax(m0, axis=1), ad.softmax(m1, axis=1), axis=1)
    cols = _pearson_distances(ad.softmax(m0, axis=0), ad.softmax(m1, axis=0), axis=0)
    return (rows.sum() + cols.sum()) * (1.0 / b)


def _symmetric_ce(logits: Tensor) -> Tensor:
    """Mean cross-entropy against identity targets, averaged over rows and columns."""
    b = logits.shape[0]
    eye = Tensor(np.eye(b, dtype=logits.dtype))
    row_ce = -(ad.log_softmax(logits, axis=1) * eye).sum() * (1.0 / b)
    col_ce = -(ad.log_softmax(logits, axis=0) * eye).sum() * (1.0 / b)
    return (row_ce + col_ce) * 0.5


def hard_albef_loss(m1) -> Tensor:
    """Identity-target symmetric cross-entropy: item i's audio is its positive."""
    m1 = _as_tensor(m1)
    if m1.data.ndim != 2 or m1.shape[0] != m1.shape[1]:
        raise ValueError(f"hard alignment needs a square matrix, got {m1.shape}")
    return _symmetric_ce(m1)


def contrastive_loss(scores, scale=1.0) -> Tensor:
    """Symmetric InfoNCE over a square score matrix with diagonal positives.

    `scale` is the positive logit multiplier (exp of the learnable logit
    scale, i.e. 1/temperature).
    """
    scores = _as_tensor(scores)
    if scores.data.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ValueError(f"contrastive loss needs a square batch matrix, got {scores.shape}")
    return _symmetric_ce(scores * scale)


def total_loss(contrastive: Tensor, alignment: Tensor | None) -> Tensor:
    """Equal-weight combination; a None alignment term (kind `none`, no audio
    branch, or too few teacher rows) leaves the contrastive loss alone."""
    return contrastive if alignment is None else contrastive + alignment
