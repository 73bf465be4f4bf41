"""Video-query scoring: global, local (log-sum-exp) and their mean.

One formula (`_scores`, built from autodiff ops) scores every fusion mode on
both routes: the mean of the local term over the fused tokens and the global
cosine of their mean, `pooled`. It never asks for the mode. `QueryScorer`
feeds it a precomputed `VideoIndex` as constant tensors, with no network
evaluation and no tape (the online path); `batch_scores` feeds it a fused
batch and returns the differentiable score matrix the training losses
consume. The scalar `global_/local_/combined_similarity` are an independent
reference written in numpy. Zero-norm vectors score 0 by convention so
zero-filled missing modalities cannot poison evaluation.

The local term is one tape node, `autodiff.token_logmeanexp`: one matmul
into a fresh (T, m, B) buffer, exp in place, a sum over m and a log. Tokens
are laid out token-major, (m, B, d), so the gallery axis of that buffer stays
innermost when it is summed over m. Every cosine is in [-1, 1], so the node
needs no max shift as long as the sharpness is at most
`fusion.MAX_SHARPNESS`, which `QueryScorer` and `FusionParams` enforce.
`QueryScorer` scores query rows in chunks whose (rows, m, n) buffer stays
under SCORE_CHUNK_BYTES, so its memory is bounded by the gallery, not by the
number of queries.

Serving runs in float32, the dtype the index is stored and trained in: the
gallery, the queries and the returned scores are float32, and every score is
within 1e-6 of a float64 evaluation of the same formula.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check
from .fusion import ARCH_FIELDS, DEFAULT_SHARPNESS, FusedBatch, FusionMode, VideoIndex

logger = logging.getLogger(__name__)

# Bytes of one scoring chunk's (rows, m, n) float32 buffer. On 2 vCPUs (2 MiB
# L2 each, 300 MiB L3), 2,000 x 2,000 x 12 scoring took 202, 133, 115, 88, 87
# and 93 ms at 0.5, 1, 2, 4, 8 and 16 MiB (medians of 11, shared host); 4 and
# 8 were within noise (84 and 79 ms in a second sweep, quartiles overlapping).
SCORE_CHUNK_BYTES = 4 << 20


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return ad.unit_rows(x)[0]


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
    q_mat = np.array([q.embedding for q in queries], dtype=np.float32).reshape(len(queries), index.dim)
    values = scorer.score_many(q_mat)
    return ScoreMatrix(values=values, query_ids=[q.query_id for q in queries], item_ids=list(index.item_ids))


def _cosines(q: Tensor, rows: Tensor) -> Tensor:
    return ad.matmul(q, ad.transpose(rows))


def _scores(q: Tensor, sharpness: float, tokens: Tensor, pooled: Tensor) -> Tensor:
    """(T, B) scores of unit-norm (T, d) queries against a unit-norm gallery:
    the mean of the local term over token-major (m, B, d) tokens and the
    cosine with the (B, d) pooled vectors.

    The one formula of every fusion mode, for serving and for training.
    """
    # the local term comes first, so no global term is alive at the (T, m, B) peak
    return (ad.token_logmeanexp(q, tokens, sharpness) + _cosines(q, pooled)) * 0.5


class QueryScorer:
    """Unit-normalised float32 tokens (token-major) and pooled vectors of the
    index, the precision it is stored and trained in; per-query scoring
    touches no network."""

    def __init__(self, index: VideoIndex, mode: FusionMode, sharpness: float = DEFAULT_SHARPNESS):
        if FusionMode(mode) != index.mode:
            raise ValueError(f"cannot score a {index.mode.value} index in mode {FusionMode(mode).value}")
        self.sharpness = check(ARCH_FIELDS["sharpness"], "sharpness", sharpness)
        self.size = len(index.item_ids)
        # (m, n, d): token-major, contiguous, filled one token slot at a time
        # so the normalisation's temporaries stay at about one slot
        n, m, d = index.tokens.shape
        self.tokens = np.empty((m, n, d), np.float32)
        for k in range(m):
            self.tokens[k] = _unit_rows(np.asarray(index.tokens[:, k], np.float32))
        self.pooled = _unit_rows(np.asarray(index.pooled, np.float32))
        self.holistic = self.speech_pool = None  # perfbench/layers.py::gallery_bytes still reads both

    def score_one(self, query: np.ndarray) -> np.ndarray:
        return self.score_many(np.asarray(query)[None, :])[0]

    def score_many(self, q_mat: np.ndarray) -> np.ndarray:
        """(T, n) float32 scores, written chunk by chunk; constant Tensors
        record no tape and copy no array."""
        q = _unit_rows(np.asarray(q_mat, np.float32))
        tokens, pooled = Tensor(self.tokens), Tensor(self.pooled)
        rows = max(1, SCORE_CHUNK_BYTES // max(1, self.tokens.itemsize * self.size * self.tokens.shape[0]))
        out = np.empty((len(q), self.size), np.float32)
        for start in range(0, len(q), rows):
            out[start : start + rows] = _scores(Tensor(q[start : start + rows]), self.sharpness, tokens, pooled).data
        return out


# -- differentiable batch scoring (training path) ---------------------------


def batch_scores(fused: FusedBatch, query_embeddings: np.ndarray, sharpness: float = DEFAULT_SHARPNESS) -> Tensor:
    """Differentiable (queries x videos) score matrix of a fused batch, from
    the arrays the batch holds. Query row i's ground truth is video i."""
    return _scores(
        Tensor(_unit_rows(np.asarray(query_embeddings))),
        sharpness,
        ad.swapaxes(ad.l2_normalize(fused.tokens), 0, 1),
        ad.l2_normalize(fused.pooled),
    )
