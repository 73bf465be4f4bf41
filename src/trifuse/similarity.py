"""Video-query scoring: global, local (log-sum-exp), combined, holistic, late.

One formula (`_scores`, built from autodiff ops) scores every fusion mode on
both routes. `QueryScorer` feeds it a precomputed `VideoIndex` as constant
tensors, with no network evaluation and no tape (the online path);
`batch_scores` feeds it a fused batch and returns the differentiable score
matrix the training losses consume. The scalar `global_/local_/
combined_similarity` are an independent reference written in numpy. Zero-norm
vectors score 0 by convention so zero-filled missing modalities cannot poison
evaluation.

Tokens are laid out token-major, (m, B, d), so the gallery axis of the
(T, m, B) cosines stays innermost when `logsumexp` reduces over m.
`QueryScorer` scores query rows in chunks whose cosine tensor stays under
SCORE_CHUNK_BYTES, so its memory is bounded by the gallery, not by the number
of queries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import DEFAULT_SHARPNESS, FusedBatch, FusionMode, VideoIndex

logger = logging.getLogger(__name__)

# Bytes of one scoring chunk's (rows, m, n) float64 cosine tensor. On 2 vCPUs
# (2 MiB L2 each, 105 MiB L3), 2,000 x 2,000 x 12 scoring took 509, 417, 450,
# 531, 562 and 824 ms at 1, 2, 4, 8, 16 and 64 MiB; 2 and 4 were within noise.
SCORE_CHUNK_BYTES = 4 << 20

# Mirrors autodiff.NORM_EPS_SQ: unit-scale vectors untouched, zero vectors
# normalize to zero instead of NaN.
_EPS_SQ = ad.NORM_EPS_SQ


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True) + _EPS_SQ)
    return x / norm


def _unit64(x: np.ndarray | None) -> np.ndarray | None:
    return None if x is None else _unit_rows(x.astype(np.float64))


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


def score_matrix(index: VideoIndex, queries: list, sharpness: float = DEFAULT_SHARPNESS) -> ScoreMatrix:
    """Score every query against the whole index in the index's mode."""
    scorer = QueryScorer(index, index.mode, sharpness)
    q_mat = np.array([q.embedding for q in queries], dtype=np.float64).reshape(len(queries), index.pooled.shape[-1])
    values = scorer.score_many(q_mat)
    return ScoreMatrix(values=values, query_ids=[q.query_id for q in queries], item_ids=list(index.item_ids))


def _cosines(q: Tensor, rows: Tensor) -> Tensor:
    return ad.matmul(q, ad.transpose(rows))


def _scores(
    q: Tensor, mode: FusionMode, sharpness: float, tokens: Tensor, pooled: Tensor,
    holistic: Tensor | None = None, speech_pool: Tensor | None = None,
) -> Tensor:
    """(T, B) scores of unit-norm (T, d) queries against unit-norm gallery
    arrays: tokens (m, B, d), token-major; pooled, holistic and speech_pool (B, d).

    The one formula of every fusion mode, for serving and for training.
    """
    if mode == FusionMode.HOLISTIC:
        return _cosines(q, holistic)
    if mode == FusionMode.LATE_FUSION:
        return (_cosines(q, pooled) + _cosines(q, speech_pool)) * 0.5
    m, b, d = tokens.shape
    # The sharpness scales the (T, d) queries, not the (T, m, B) cosines, and
    # the global term is computed last so it is not alive at the (T, m, B) peak.
    scaled = ad.reshape(_cosines(q * sharpness, ad.reshape(tokens, (m * b, d))), (q.shape[0], m, b))
    local = (ad.logsumexp(scaled, axis=1) - math.log(m)) * (1.0 / sharpness)
    return (local + _cosines(q, pooled)) * 0.5


class QueryScorer:
    """Prenormalized float64 copies of the gallery arrays the mode reads;
    per-query scoring touches no network."""

    def __init__(self, index: VideoIndex, mode: FusionMode, sharpness: float = DEFAULT_SHARPNESS):
        if sharpness <= 0:
            raise ValueError(f"sharpness must be > 0, got {sharpness}")
        self.mode = FusionMode(mode)
        self.sharpness = sharpness
        self.size = len(index.item_ids)
        single = self.mode in (FusionMode.HOLISTIC, FusionMode.LATE_FUSION)
        # (m, n, d): token-major, contiguous
        self.tokens = None if single else _unit_rows(np.ascontiguousarray(index.tokens.swapaxes(0, 1), np.float64))
        self.pooled = None if self.mode == FusionMode.HOLISTIC else _unit64(index.pooled)  # (n, d)
        self.holistic = _unit64(index.holistic) if self.mode == FusionMode.HOLISTIC else None
        self.speech_pool = _unit64(index.speech_pool) if self.mode == FusionMode.LATE_FUSION else None
        if self.mode == FusionMode.HOLISTIC and self.holistic is None:
            raise ValueError("holistic scoring needs an index built in holistic mode")
        if self.mode == FusionMode.LATE_FUSION and self.speech_pool is None:
            raise ValueError("late_fusion scoring needs an index built in late_fusion mode")

    def score_one(self, query: np.ndarray) -> np.ndarray:
        return self.score_many(np.asarray(query, dtype=np.float64)[None, :])[0]

    def score_many(self, q_mat: np.ndarray) -> np.ndarray:
        """(T, n) scores, written chunk by chunk; constant Tensors record no
        tape and copy no array."""
        q = _unit_rows(q_mat.astype(np.float64))
        arrays = [None if a is None else Tensor(a) for a in (self.tokens, self.pooled, self.holistic, self.speech_pool)]
        row_bytes = 8 * self.size * (1 if self.tokens is None else self.tokens.shape[0])
        rows = max(1, SCORE_CHUNK_BYTES // max(1, row_bytes))
        out = np.empty((len(q), self.size))
        for start in range(0, len(q), rows):
            out[start : start + rows] = _scores(Tensor(q[start : start + rows]), self.mode, self.sharpness, *arrays).data
        return out


# -- differentiable batch scoring (training path) ---------------------------


def batch_scores(
    fused: FusedBatch, query_embeddings: np.ndarray, mode: FusionMode, sharpness: float = DEFAULT_SHARPNESS
) -> Tensor:
    """Differentiable (queries x videos) score matrix of a fused batch.

    Query row i's ground truth is video i. The batch's tokens, pooled and
    holistic vectors are normalized inside the graph; its speech pools
    (late_fusion) are constants.
    """
    return _scores(
        Tensor(_unit_rows(np.asarray(query_embeddings))),
        FusionMode(mode),
        sharpness,
        ad.swapaxes(ad.l2_normalize(fused.tokens), 0, 1),
        ad.l2_normalize(fused.pooled),
        None if fused.holistic is None else ad.l2_normalize(fused.holistic),
        None if fused.speech_pool is None else Tensor(_unit64(fused.speech_pool)),
    )
