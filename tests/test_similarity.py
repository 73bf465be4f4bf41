"""Scoring formulas, LSE bounds, score-matrix assembly."""

import numpy as np
import pytest

from trifuse import similarity
from trifuse.autodiff import Tensor, finite_difference_check, parameter
from trifuse.data import QueryRecord
from trifuse.fusion import MAX_SHARPNESS, FusedBatch, FusionMode, VideoIndex
from trifuse.similarity import (
    QueryScorer,
    batch_scores,
    combined_similarity,
    global_similarity,
    local_similarity,
    score_matrix,
)


class TestGlobalSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert global_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert global_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_vectors(self):
        v = np.array([1.0, -2.0])
        assert global_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_scores_zero(self):
        assert global_similarity(np.zeros(4), np.ones(4)) == 0.0


class TestLocalSimilarity:
    def test_equal_cosines_collapse_to_that_value(self):
        # two tokens at the same angle to the query
        tokens = np.array([[1.0, 1.0], [2.0, 2.0]])
        query = np.array([1.0, 0.0])
        c = 1.0 / np.sqrt(2.0)
        for lam in (0.5, 1.0, 20.0, 500.0):
            assert local_similarity(tokens, query, lam) == pytest.approx(c, abs=1e-9)

    def test_large_sharpness_approaches_max(self):
        tokens = np.array([[0.0, 1.0], [1.0, 0.0]])  # cosines [0, 1]
        query = np.array([1.0, 0.0])
        assert local_similarity(tokens, query, 1000.0) == pytest.approx(1.0, abs=1e-2)

    def test_unit_sharpness_frozen_value(self):
        """cosines [0, 1], lam=1 -> ln((1 + e) / 2)."""
        tokens = np.array([[0.0, 1.0], [1.0, 0.0]])
        query = np.array([1.0, 0.0])
        expected = np.log((1.0 + np.e) / 2.0)
        got = local_similarity(tokens, query, 1.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.62011, abs=1e-5)

    def test_nonpositive_sharpness_rejected(self):
        with pytest.raises(ValueError, match="sharpness"):
            local_similarity(np.ones((2, 2)), np.ones(2), 0.0)

    def test_bounded_by_mean_and_max(self):
        """mean cos <= LSE <= max cos on 1000 random instances."""
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m, d = rng.integers(1, 8), rng.integers(2, 6)
            tokens = rng.normal(size=(m, d))
            query = rng.normal(size=d)
            lam = float(rng.uniform(0.1, 50.0))
            cosines = (tokens / np.linalg.norm(tokens, axis=1, keepdims=True)) @ (query / np.linalg.norm(query))
            s = local_similarity(tokens, query, lam)
            assert cosines.mean() - 1e-9 <= s <= cosines.max() + 1e-9

    def test_monotone_in_each_token_cosine(self):
        """Raising one token's cosine never lowers the aggregate."""
        rng = np.random.default_rng(1)
        query = np.array([1.0, 0.0, 0.0])
        for _ in range(200):
            angles = rng.uniform(0, np.pi, size=4)
            tokens = np.stack([[np.cos(a), np.sin(a), 0.0] for a in angles])
            base = local_similarity(tokens, query, 7.0)
            k = rng.integers(0, 4)
            bumped = tokens.copy()
            smaller_angle = angles[k] * 0.5  # strictly larger cosine
            bumped[k] = [np.cos(smaller_angle), np.sin(smaller_angle), 0.0]
            assert local_similarity(bumped, query, 7.0) >= base - 1e-12


class TestCombinedSimilarity:
    def test_average_of_global_and_local(self):
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(3, 4))
        query = rng.normal(size=4)
        pooled = tokens.mean(axis=0)
        s = combined_similarity(tokens, pooled, query)
        assert s == pytest.approx(
            0.5 * (global_similarity(pooled, query) + local_similarity(tokens, query)), abs=1e-12
        )

    def test_perfectly_aligned_scores_one(self):
        query = np.array([0.0, 2.0, 0.0])
        tokens = np.tile(query * 0.5, (4, 1))
        assert combined_similarity(tokens, tokens.mean(axis=0), query) == pytest.approx(1.0, abs=1e-9)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            tokens = rng.normal(size=(3, 5))
            query = rng.normal(size=5)
            s = combined_similarity(tokens, tokens.mean(axis=0), query)
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


def small_index(n=5, m=3, d=4, seed=0, mode=FusionMode.SAVE) -> VideoIndex:
    """Random arrays in place of the fused tokens and their means."""
    rng = np.random.default_rng(seed)
    tokens = rng.normal(size=(n, m, d)).astype(np.float32)
    pooled = rng.normal(size=(n, d)).astype(np.float32)
    return VideoIndex(mode=mode, item_ids=[f"it{i}" for i in range(n)], tokens=tokens, pooled=pooled)


def queries_for(index, t=3, seed=1):
    rng = np.random.default_rng(seed)
    d = index.dim
    return [QueryRecord(f"q{i}", rng.normal(size=d).astype(np.float32), index.item_ids[0]) for i in range(t)]


class TestScoreMatrix:
    def test_shape(self):
        index = small_index(5)
        sm = score_matrix(index, queries_for(index, 3))
        assert sm.values.shape == (3, 5)
        assert sm.item_ids == index.item_ids

    def test_duplicate_queries_duplicate_rows(self):
        index = small_index(4)
        qs = queries_for(index, 1)
        qs = [qs[0], QueryRecord("copy", qs[0].embedding.copy(), qs[0].ground_truth_item)]
        sm = score_matrix(index, qs)
        np.testing.assert_array_equal(sm.values[0], sm.values[1])

    def test_entries_match_scalar_oracle(self):
        index = small_index(6, seed=5)
        qs = queries_for(index, 4, seed=6)
        sm = score_matrix(index, qs)
        for i, q in enumerate(qs):
            for j in range(6):
                direct = combined_similarity(index.tokens[j], index.pooled[j], q.embedding)
                assert abs(sm.values[i, j] - direct) < 1e-6

    def test_invariant_sharpness_rejected(self):
        index = small_index(3)
        with pytest.raises(ValueError, match="sharpness"):
            QueryScorer(index, FusionMode.SAVE, sharpness=-1.0)

    def test_sharpness_above_max_rejected(self):
        """Up to MAX_SHARPNESS, exp needs no max shift; beyond it the scorer refuses."""
        index = small_index(3)
        with pytest.raises(ValueError, match="MAX_SHARPNESS"):
            QueryScorer(index, FusionMode.SAVE, sharpness=MAX_SHARPNESS + 0.5)
        sm = score_matrix(index, queries_for(index, 2), sharpness=MAX_SHARPNESS)
        assert np.all(np.isfinite(sm.values))


class TestBatchScores:
    def test_matches_numpy_route(self):
        """The differentiable score matrix equals the index-scoring route."""
        rng = np.random.default_rng(7)
        n, m, d = 4, 3, 5
        tokens = rng.normal(size=(n, m, d))
        fused = FusedBatch(Tensor(tokens), Tensor(tokens.mean(axis=1)))
        queries = rng.normal(size=(n, d))
        got = batch_scores(fused, queries).data
        for i in range(n):
            for j in range(n):
                expect = combined_similarity(tokens[j], tokens[j].mean(axis=0), queries[i])
                assert abs(got[i, j] - expect) < 1e-9

    def test_gradient_through_scores(self):
        rng = np.random.default_rng(8)
        tokens = parameter(rng.normal(size=(3, 2, 4)))
        queries = rng.normal(size=(3, 4))
        r = rng.normal(size=(3, 3))

        def f():
            return (batch_scores(FusedBatch(tokens, tokens.mean(axis=1)), queries) * r).sum()

        assert finite_difference_check(f, [tokens], eps=1e-5) < 1e-4


class TestChunkedScoring:
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
    def test_chunks_match_one_chunk(self, monkeypatch, mode, rows):
        """Chunks of 1 and 7 query rows give the scores and rankings of one chunk."""
        n, m = 9, 3
        index = small_index(n=n, m=m, mode=mode)
        queries = np.random.default_rng(1).normal(size=(20, 4))
        monkeypatch.setattr(similarity, "SCORE_CHUNK_BYTES", 1 << 40)
        whole = QueryScorer(index, mode).score_many(queries)

        seen = []
        inner = similarity._scores

        def spy(q, *args):
            seen.append(q.shape[0])
            return inner(q, *args)

        monkeypatch.setattr(similarity, "_scores", spy)
        monkeypatch.setattr(similarity, "SCORE_CHUNK_BYTES", rows * 8 * n * m)
        chunked = QueryScorer(index, mode).score_many(queries)
        assert seen == [rows] * (20 // rows) + ([20 % rows] if 20 % rows else [])
        assert chunked.shape == (20, n)
        assert np.max(np.abs(chunked - whole)) <= 1e-12
        np.testing.assert_array_equal(np.argsort(-chunked, axis=1, kind="stable"),
                                      np.argsort(-whole, axis=1, kind="stable"))

    @pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
    def test_empty_gallery(self, mode):
        scores = QueryScorer(small_index(n=0, mode=mode), mode).score_many(np.ones((3, 4)))
        assert scores.shape == (3, 0)

    def test_single_query_is_its_row(self):
        index = small_index(n=9)
        queries = np.random.default_rng(2).normal(size=(5, 4))
        scorer = QueryScorer(index, FusionMode.SAVE)
        np.testing.assert_allclose(scorer.score_one(queries[3]), scorer.score_many(queries)[3], rtol=0, atol=1e-12)
        assert scorer.score_many(queries[:1]).shape == (1, 9)

    def test_no_queries_give_empty_matrix(self):
        index = small_index(n=9)
        sm = score_matrix(index, [])
        assert sm.values.shape == (0, 9) and sm.query_ids == []
