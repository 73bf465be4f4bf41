"""Video-query scoring: global, local (log-sum-exp), combined, holistic, late.

Two routes share one set of formulas. The numpy route scores a precomputed
`VideoIndex` with no network evaluation (the online path). The autodiff route
(`batch_scores`) builds the differentiable score matrix the training losses
consume. Zero-norm vectors score 0 by convention so zero-filled missing
modalities cannot poison evaluation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import FusedBatch, FusionMode, VideoIndex

logger = logging.getLogger(__name__)

DEFAULT_SHARPNESS = 20.0

# Mirrors autodiff.NORM_EPS_SQ: unit-scale vectors untouched, zero vectors
# normalize to zero instead of NaN.
_EPS_SQ = ad.NORM_EPS_SQ


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True) + _EPS_SQ)
    return x / norm


def global_similarity(pooled: np.ndarray, query: np.ndarray) -> float:
    """Cosine of the pooled video vector and the query; zero-norm inputs score 0."""
    pooled = np.asarray(pooled, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if not np.any(pooled) or not np.any(query):
        logger.debug("degenerate zero-norm input to global_similarity")
        return 0.0
    return float(_unit_rows(pooled) @ _unit_rows(query))


def local_similarity(tokens: np.ndarray, query: np.ndarray, sharpness: float = DEFAULT_SHARPNESS) -> float:
    """(1/lam) * ln(mean_i exp(lam * cos(token_i, query))).

    Sits between the mean and the max of the token cosines; equals both when
    all cosines agree.
    """
    if sharpness <= 0:
        raise ValueError(f"sharpness must be > 0, got {sharpness}")
    tokens = np.asarray(tokens, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    cosines = _unit_rows(tokens) @ _unit_rows(query)
    shift = cosines.max() * sharpness
    return float((shift + np.log(np.mean(np.exp(sharpness * cosines - shift)))) / sharpness)


def combined_similarity(
    tokens: np.ndarray, pooled: np.ndarray, query: np.ndarray, sharpness: float = DEFAULT_SHARPNESS
) -> float:
    return 0.5 * (global_similarity(pooled, query) + local_similarity(tokens, query, sharpness))


@dataclass
class ScoreMatrix:
    values: np.ndarray  # (queries, videos)
    query_ids: list[str]
    item_ids: list[str]


def score_matrix(
    index: VideoIndex,
    queries: list,
    mode: FusionMode | None = None,
    sharpness: float = DEFAULT_SHARPNESS,
) -> ScoreMatrix:
    """Score every query against the whole index; O(n_videos * m * d) per query."""
    mode = index.mode if mode is None else FusionMode(mode)
    scorer = QueryScorer(index, mode, sharpness)
    q_mat = np.stack([np.asarray(q.embedding, dtype=np.float64) for q in queries])
    values = scorer.score_many(q_mat)
    return ScoreMatrix(values=values, query_ids=[q.query_id for q in queries], item_ids=list(index.item_ids))


class QueryScorer:
    """Prenormalized gallery arrays; per-query scoring touches no network."""

    def __init__(self, index: VideoIndex, mode: FusionMode, sharpness: float = DEFAULT_SHARPNESS):
        if sharpness <= 0:
            raise ValueError(f"sharpness must be > 0, got {sharpness}")
        self.mode = FusionMode(mode)
        self.sharpness = sharpness
        self.tokens = _unit_rows(index.tokens.astype(np.float64))  # (n, m, d)
        self.pooled = _unit_rows(index.pooled.astype(np.float64))  # (n, d)
        self.holistic = _unit_rows(index.holistic.astype(np.float64)) if index.holistic is not None else None
        self.speech_pool = (
            _unit_rows(index.speech_pool.astype(np.float64)) if index.speech_pool is not None else None
        )
        if self.mode == FusionMode.HOLISTIC and self.holistic is None:
            raise ValueError("holistic scoring needs an index built in holistic mode")
        if self.mode == FusionMode.LATE_FUSION and self.speech_pool is None:
            raise ValueError("late_fusion scoring needs an index built in late_fusion mode")

    def score_one(self, query: np.ndarray) -> np.ndarray:
        return self.score_many(np.asarray(query, dtype=np.float64)[None, :])[0]

    def score_many(self, q_mat: np.ndarray) -> np.ndarray:
        q = _unit_rows(q_mat.astype(np.float64))  # (t, d)
        if self.mode == FusionMode.HOLISTIC:
            return q @ self.holistic.T
        if self.mode == FusionMode.LATE_FUSION:
            return 0.5 * (q @ self.pooled.T) + 0.5 * (q @ self.speech_pool.T)
        lam = self.sharpness
        cosines = np.einsum("td,nmd->tnm", q, self.tokens)
        shift = cosines.max(axis=-1, keepdims=True) * lam
        local = (shift[..., 0] + np.log(np.mean(np.exp(lam * cosines - shift), axis=-1))) / lam
        global_ = q @ self.pooled.T
        return 0.5 * (global_ + local)


# -- differentiable batch scoring (training path) ---------------------------


def batch_scores(
    fused: FusedBatch,
    query_embeddings: np.ndarray,
    mode: FusionMode,
    sharpness: float = DEFAULT_SHARPNESS,
    params=None,
) -> Tensor:
    """Differentiable (queries x videos) score matrix of a fused batch.

    Query row i's ground truth is video i. Holistic mode needs `params` for
    its attention pool; late_fusion reads the batch's raw speech pools.
    """
    mode = FusionMode(mode)
    q_norm = Tensor(_unit_rows(np.asarray(query_embeddings)))  # constant (T, d)
    if mode == FusionMode.HOLISTIC:
        return ad.matmul(q_norm, ad.transpose(ad.l2_normalize(params.holistic(fused.tokens))))
    global_ = ad.matmul(q_norm, ad.transpose(ad.l2_normalize(fused.pooled)))  # (T, B)
    if mode == FusionMode.LATE_FUSION:
        speech = Tensor(q_norm.data @ _unit_rows(fused.speech_pool.astype(np.float64)).T)
        return global_ * 0.5 + speech * 0.5
    b, m, d = fused.tokens.shape
    tokens = ad.reshape(ad.l2_normalize(fused.tokens, axis=-1), (b * m, d))
    cosines = ad.reshape(ad.matmul(q_norm, ad.transpose(tokens)), (-1, b, m))  # (T, B, m)
    shift = cosines.data.max(axis=-1, keepdims=True) * sharpness
    lse = ad.log(ad.exp(cosines * sharpness - Tensor(shift)).mean(axis=-1))
    local = (lse + Tensor(shift[..., 0])) * (1.0 / sharpness)
    return (local + global_) * 0.5
