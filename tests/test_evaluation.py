"""Metrics against a brute-force sort oracle."""

import numpy as np
import pytest

from trifuse.evaluation import (
    grouped_eval,
    rank_of,
    ranks_of_matrix,
    summary_metrics,
)
from trifuse.similarity import ScoreMatrix


def sort_oracle_rank(scores: np.ndarray, gt_index: int) -> int:
    """Independent implementation: descending sort, ground truth after ties."""
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j != gt_index))
    # place gt behind every tie: count entries scoring >= gt, excluding itself
    gt = scores[gt_index]
    return int(np.sum(scores > gt) + np.sum(scores == gt))


class TestRankOf:
    def test_strictly_best_is_rank_one(self):
        assert rank_of(np.array([0.1, 0.9, 0.3]), 1) == 1

    def test_all_tied_four_videos_rank_four(self):
        assert rank_of(np.zeros(4), 2) == 4

    def test_strictly_worst_of_ten(self):
        scores = np.arange(10, dtype=float)  # index 0 scores lowest
        assert rank_of(scores, 0) == 10

    def test_adding_tied_competitor_never_improves(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.normal(size=6)
            base = rank_of(scores, 3)
            with_tie = np.append(scores, scores[3])
            assert rank_of(with_tie, 3) >= base

    def test_bad_index_rejected(self):
        with pytest.raises(IndexError):
            rank_of(np.zeros(3), 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ground_truth_ranks_last(self, bad):
        assert rank_of(np.array([bad, 0.5, 0.9]), 0) == 3


def random_matrix(rng, t=50, n=50):
    values = rng.normal(size=(t, n))
    # inject tie rows to exercise the pessimistic convention
    values[rng.integers(0, t)] = 0.0
    ties = rng.integers(0, t, size=5)
    for i in ties:
        j, k = rng.integers(0, n, size=2)
        values[i, k] = values[i, j]
    qids = [f"q{i}" for i in range(t)]
    iids = [f"v{j}" for j in range(n)]
    gt = {qids[i]: iids[rng.integers(0, n)] for i in range(t)}
    return ScoreMatrix(values, qids, iids), gt


class TestRanksOfMatrix:
    def test_matches_rank_of_loop_with_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            sm, gt = random_matrix(rng, t=30, n=int(rng.integers(1, 40)))
            sm.values[rng.integers(0, 30)] = np.nan
            sm.values[rng.integers(0, 30), rng.integers(0, sm.values.shape[1])] = np.inf
            sm.values = np.round(sm.values, 1)  # many ties
            col = {iid: j for j, iid in enumerate(sm.item_ids)}
            loop = [rank_of(sm.values[i], col[gt[q]]) for i, q in enumerate(sm.query_ids)]
            np.testing.assert_array_equal(ranks_of_matrix(sm, gt), loop)

    def test_non_finite_ground_truth_ranks_last(self):
        values = np.array([[np.nan, 0.5, 0.9], [0.1, np.nan, 0.0], [0.9, 0.5, 0.1]])
        sm = ScoreMatrix(values, ["a", "b", "c"], ["v0", "v1", "v2"])
        ranks = ranks_of_matrix(sm, {"a": "v0", "b": "v0", "c": "v0"})
        np.testing.assert_array_equal(ranks, [3, 1, 1])


def recall_at(matrix: ScoreMatrix, gt: dict[str, str], k: int) -> float:
    return float(np.mean(ranks_of_matrix(matrix, gt) <= k))


class TestRecall:
    def test_identity_dominant_matrix_perfect_r1(self):
        values = np.eye(5) + 0.01
        qids = [f"q{i}" for i in range(5)]
        iids = [f"v{i}" for i in range(5)]
        gt = {f"q{i}": f"v{i}" for i in range(5)}
        sm = ScoreMatrix(values, qids, iids)
        assert recall_at(sm, gt, 1) == 1.0

    def test_rank_three_counts_toward_r5_r10_only(self):
        values = np.array([[0.5, 0.9, 0.8, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        sm = ScoreMatrix(values, ["q0"], [f"v{j}" for j in range(10)])
        gt = {"q0": "v0"}
        assert recall_at(sm, gt, 1) == 0.0
        assert recall_at(sm, gt, 5) == 1.0
        assert recall_at(sm, gt, 10) == 1.0

    def test_matches_sort_oracle_on_100_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sm, gt = random_matrix(rng)
            col = {iid: j for j, iid in enumerate(sm.item_ids)}
            for k in (1, 5, 10):
                expect = np.mean(
                    [
                        sort_oracle_rank(sm.values[i], col[gt[q]]) <= k
                        for i, q in enumerate(sm.query_ids)
                    ]
                )
                assert recall_at(sm, gt, k) == expect

    def test_monotone_in_k_and_saturates(self):
        rng = np.random.default_rng(2)
        sm, gt = random_matrix(rng, t=20, n=8)
        recalls = [recall_at(sm, gt, k) for k in range(1, 9)]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == 1.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        sm, gt = random_matrix(rng, t=10, n=10)
        warped = ScoreMatrix(np.exp(2.0 * sm.values) + 1.0, sm.query_ids, sm.item_ids)
        for k in (1, 5, 10):
            assert recall_at(sm, gt, k) == recall_at(warped, gt, k)


class TestSummary:
    def test_perfect_retrieval_sums_to_300(self):
        values = np.eye(6) * 2.0
        ids = [f"x{i}" for i in range(6)]
        sm = ScoreMatrix(values, ids, ids)
        out = summary_metrics(sm, {i: i for i in ids})
        assert out["sumr"] == 300.0

    def test_paper_scale_arithmetic(self):
        """R@1=0.513, R@5=0.780, R@10=0.869 -> SumR 216.2 on the 0-300 scale."""
        assert 100.0 * (0.513 + 0.780 + 0.869) == pytest.approx(216.2, abs=1e-9)

    def test_nan_scores_give_zero_recall(self):
        """All-NaN scores (a NaN query embedding) must not read as perfect retrieval."""
        ids = [f"x{i}" for i in range(12)]
        sm = ScoreMatrix(np.full((12, 12), np.nan), ids, ids)
        out = summary_metrics(sm, {i: i for i in ids})
        assert out["sumr"] == 0.0

    def test_empty_queries_rejected(self):
        sm = ScoreMatrix(np.zeros((0, 3)), [], ["a", "b", "c"])
        with pytest.raises(ValueError, match="no queries"):
            summary_metrics(sm, {})


class TestGrouped:
    def test_single_group_equals_summary(self):
        rng = np.random.default_rng(4)
        sm, gt = random_matrix(rng, t=12, n=12)
        groups = {q: "visual" for q in sm.query_ids}
        out = grouped_eval(sm, gt, groups)
        assert out["visual"] == summary_metrics(sm, gt)

    def test_disjoint_perfect_and_failed_groups(self):
        values = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.9],
            ]
        )
        sm = ScoreMatrix(values, ["qa", "qb"], ["v0", "v1", "v2", "v3"])
        gt = {"qa": "v0", "qb": "v1"}
        out = grouped_eval(sm, gt, {"qa": "visual", "qb": "speech"})
        assert out["visual"]["r1"] == 1.0
        assert out["speech"]["r1"] == 0.0

    def test_groups_equal_summary_of_their_rows(self):
        rng = np.random.default_rng(7)
        sm, gt = random_matrix(rng, t=40, n=25)
        groups = {q: ("visual", "sound", "speech")[i % 3] for i, q in enumerate(sm.query_ids)}
        out = grouped_eval(sm, gt, groups)
        for tag in ("visual", "sound", "speech"):
            rows = [i for i, q in enumerate(sm.query_ids) if groups[q] == tag]
            sub = ScoreMatrix(sm.values[rows], [sm.query_ids[i] for i in rows], sm.item_ids)
            assert out[tag] == summary_metrics(sub, gt)

    def test_untagged_queries_fall_into_unknown(self):
        rng = np.random.default_rng(5)
        sm, gt = random_matrix(rng, t=4, n=4)
        out = grouped_eval(sm, gt, {})
        assert set(out) == {"unknown"}
