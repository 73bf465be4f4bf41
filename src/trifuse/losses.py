"""Training objectives: contrastive retrieval loss and the alignment terms.

Alignment pulls the student's pre-fusion video-audio affinities towards
matched pairs. `soft_albef` (the default) distills a constant teacher
affinity matrix: the Pearson distance between softmaxed rows and columns of
teacher and student. `hard_albef` is ALBEF's identity-target cross-entropy,
the baseline it replaces; `none` trains on the contrastive loss alone. The
teacher matrix is a numpy array and never receives gradient: it enters the
graph as a constant. The student matrices and the scores are Tensors.
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


def _pearson_distances(p: np.ndarray, q: np.ndarray, axis: int) -> tuple:
    """1 - corr(p, q) of every slice along `axis`, in [0, 2], and the
    gradient of their sum with respect to q.

    A slice whose standard deviation is at or below PEARSON_EPS is treated as
    degenerate and contributes distance 0 (and no gradient): a constant
    softmax row only arises from all-equal scores, and penalizing it would
    be arbitrary. The gradient is minus d corr / d q = (p_c / sigma_p -
    corr q_c / sigma_q) / (n sigma_q), for centred slices p_c and q_c of
    length n and standard deviations sigma_p and sigma_q.
    """
    pc = p - p.mean(axis=axis, keepdims=True)
    qc = q - q.mean(axis=axis, keepdims=True)
    sd_p = np.sqrt((pc * pc).mean(axis=axis, keepdims=True))
    sd_q = np.sqrt((qc * qc).mean(axis=axis, keepdims=True))
    live = (sd_p > PEARSON_EPS) & (sd_q > PEARSON_EPS)
    # Degenerate slices divide by 1 instead of ~0, then are masked to 0.
    sd_p, sd_q = np.where(live, sd_p, 1.0), np.where(live, sd_q, 1.0)
    corr = (pc * qc).mean(axis=axis, keepdims=True) / (sd_p * sd_q)
    scale = live / (q.shape[axis] * sd_q)  # per slice, so each full-size pass is one product
    grad = qc * (corr * scale / sd_q)
    grad -= pc * (scale / sd_p)
    return np.where(live, 1.0 - corr, 0.0), grad


def _square_size(*matrices) -> int:
    """The size b of `matrices`, each (b, b); ValueError unless they are
    square and of one shape."""
    shape = matrices[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in matrices):
        raise ValueError(f"needs equal square matrices, got shapes {', '.join(str(m.shape) for m in matrices)}")
    return shape[0]


def _soft_albef_terms(m0: np.ndarray, m1: np.ndarray) -> tuple:
    """The summed row and column distances of `soft_albef_loss`, and their
    gradient with respect to m1."""
    loss, grad = 0.0, 0.0
    for axis in (1, 0):
        q = ad.softmax(Tensor(m1), axis=axis).data
        dist, g_q = _pearson_distances(ad.softmax(Tensor(m0), axis=axis).data, q, axis)
        loss = loss + dist.sum()
        grad = grad + q * (g_q - (g_q * q).sum(axis=axis, keepdims=True))  # through the softmax
    return loss, grad


def soft_albef_loss(m0: np.ndarray, m1: Tensor) -> Tensor:
    """Pearson distance between softmaxed rows and columns of the teacher
    affinity `m0`, a constant, and the student's `m1`:

    (1/b) sum_i d_p(softmax(M0[i,:]), softmax(M1[i,:]))
      + (1/b) sum_j d_p(softmax(M0[:,j]), softmax(M1[:,j]))

    as one tape node, which keeps its (b, b) gradient: the forward computes
    it from the softmaxes and distances it builds anyway, where recomputing
    them in backward would double the node's cost.
    """
    b = _square_size(m0, m1)
    m0 = np.asarray(m0)
    loss, grad = _soft_albef_terms(m0, m1.data)

    def backward(g):
        ad._accumulate(m1, grad * (g / b))

    return ad._node(np.asarray(loss * (1.0 / b), dtype=np.result_type(m0, m1.data)), (m1,), backward)


def _symmetric_ce(logits: Tensor) -> Tensor:
    """Mean cross-entropy against identity targets, averaged over rows and columns."""
    b = _square_size(logits)
    eye = Tensor(np.eye(b, dtype=logits.dtype))
    row_ce = -(ad.log_softmax(logits, axis=1) * eye).sum() * (1.0 / b)
    col_ce = -(ad.log_softmax(logits, axis=0) * eye).sum() * (1.0 / b)
    return (row_ce + col_ce) * 0.5


def hard_albef_loss(m1: Tensor) -> Tensor:
    """Identity-target symmetric cross-entropy: item i's audio is its positive."""
    return _symmetric_ce(m1)


def contrastive_loss(scores: Tensor, scale=1.0) -> Tensor:
    """Symmetric InfoNCE over a square score matrix with diagonal positives.

    `scale` is the positive logit multiplier (exp of the learnable logit
    scale, i.e. 1/temperature).
    """
    return _symmetric_ce(scores * scale)


def total_loss(contrastive: Tensor, alignment: Tensor | None) -> Tensor:
    """Equal-weight combination; a None alignment term (kind `none`, no audio
    branch, or too few teacher rows) leaves the contrastive loss alone."""
    return contrastive if alignment is None else contrastive + alignment
