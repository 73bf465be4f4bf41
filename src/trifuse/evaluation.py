"""Retrieval metrics (R@k, SumR) and group breakdowns over a `ScoreMatrix`.

Rank handling is pessimistic: the ground truth is placed after every
equal-scored competitor, and a non-finite ground-truth score ranks last, so
degenerate scores cannot inflate recall.
"""

from __future__ import annotations

import numpy as np

from .similarity import ScoreMatrix

RECALL_KS = (1, 5, 10)


def rank_of(scores: np.ndarray, gt_index: int) -> int:
    """Pessimistic 1-based rank: 1 + #better + #equal competitors; the gallery
    size when the ground-truth score is not finite."""
    scores = np.asarray(scores)
    if not 0 <= gt_index < scores.shape[0]:
        raise IndexError(f"ground-truth index {gt_index} outside gallery of {scores.shape[0]}")
    gt_score = scores[gt_index]
    if not np.isfinite(gt_score):
        return scores.shape[0]
    better = int(np.sum(scores > gt_score))
    tied = int(np.sum(scores == gt_score)) - 1  # the ground truth itself
    return 1 + better + tied


def _gt_columns(matrix: ScoreMatrix, ground_truth: dict[str, str]) -> list[int]:
    col_of = {item_id: j for j, item_id in enumerate(matrix.item_ids)}
    cols = []
    for qid in matrix.query_ids:
        if qid not in ground_truth or ground_truth[qid] not in col_of:
            raise ValueError(f"query {qid} lacks a ground-truth column")
        cols.append(col_of[ground_truth[qid]])
    return cols


def ranks_of_matrix(matrix: ScoreMatrix, ground_truth: dict[str, str]) -> np.ndarray:
    """`rank_of` of every row at its ground-truth column, in one pass."""
    values = matrix.values
    gt = values[np.arange(len(values)), _gt_columns(matrix, ground_truth)][:, None]
    ranks = np.count_nonzero(values >= gt, axis=1)
    return np.where(np.isfinite(gt[:, 0]), ranks, values.shape[1])


def summary_metrics(matrix: ScoreMatrix, ground_truth: dict[str, str]) -> dict[str, float]:
    """R@1/5/10 as fractions plus SumR on the paper-style 0-300 percent scale."""
    if len(matrix.query_ids) == 0:
        raise ValueError("no queries")
    return _recalls(ranks_of_matrix(matrix, ground_truth))


def _recalls(ranks: np.ndarray) -> dict[str, float]:
    out = {f"r{k}": float(np.mean(ranks <= k)) for k in RECALL_KS}
    out["sumr"] = 100.0 * (out["r1"] + out["r5"] + out["r10"])
    return out


def grouped_eval(
    matrix: ScoreMatrix, ground_truth: dict[str, str], groups: dict[str, str | None]
) -> dict[str, dict[str, float]]:
    """Metrics per query group; the full gallery stays as candidates.

    Groups with zero queries are simply absent from the result.
    """
    ranks = ranks_of_matrix(matrix, ground_truth)
    by_group: dict[str, list[int]] = {}
    for i, qid in enumerate(matrix.query_ids):
        tag = groups.get(qid) or "unknown"
        by_group.setdefault(tag, []).append(i)
    return {tag: _recalls(ranks[rows]) for tag, rows in sorted(by_group.items())}

