"""Alignment and contrastive objectives against hand and numpy oracles."""

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse.autodiff import Tensor, parameter
from trifuse.data import ItemRecord
from trifuse.fusion import FusionMode, FusionParams, forward_video, pre_fusion_pooled
from trifuse.losses import (
    PEARSON_EPS,
    affinity_from_teacher,
    contrastive_loss,
    hard_albef_loss,
    soft_albef_loss,
    student_affinity,
    total_loss,
)

from gradcheck import finite_difference_check, reshape


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def pearson_row_distance(p, q, eps: float = PEARSON_EPS):
    """1 - corr(p, q) of two vectors, in [0, 2]: the per-row reference that
    `soft_albef_loss`'s vectorized distances are checked against.

    A vector whose standard deviation is at or below `eps` is degenerate and
    contributes distance 0 (and no gradient).
    """
    p = p if isinstance(p, Tensor) else Tensor(np.asarray(p, dtype=np.float64))
    q = q if isinstance(q, Tensor) else Tensor(np.asarray(q, dtype=np.float64))
    if p.shape != q.shape or p.data.ndim != 1:
        raise ValueError(f"pearson distance needs equal-length vectors, got {p.shape} and {q.shape}")
    pc = p - p.mean()
    qc = q - q.mean()
    sig_p = ad.sqrt((pc * pc).mean())
    sig_q = ad.sqrt((qc * qc).mean())
    if float(sig_p.data) <= eps or float(sig_q.data) <= eps:
        return Tensor(np.asarray(0.0, dtype=p.dtype))
    return 1.0 - ((pc * qc).mean() / (sig_p * sig_q))


class TestTeacherAffinity:
    def test_identical_teachers_give_all_ones(self):
        v = unit_rows(np.tile([1.0, 2.0, 2.0], (3, 1)))
        m0 = affinity_from_teacher(v, v.copy())
        np.testing.assert_allclose(m0, np.ones((3, 3)), atol=1e-12)

    def test_orthonormal_matched_pairs_give_identity(self):
        eye = np.eye(3)
        np.testing.assert_allclose(affinity_from_teacher(eye, eye), np.eye(3), atol=1e-12)

    def test_random_entries_match_dot_oracle(self):
        rng = np.random.default_rng(0)
        tv = unit_rows(rng.normal(size=(3, 5)))
        ta = unit_rows(rng.normal(size=(3, 5)))
        m0 = affinity_from_teacher(tv, ta)
        for i in range(3):
            for j in range(3):
                assert abs(m0[i, j] - float(tv[i] @ ta[j])) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            affinity_from_teacher(np.ones((2, 3)), np.ones((3, 3)))


class TestStudentAffinity:
    def test_matched_pairs_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(1)
        v = unit_rows(rng.normal(size=(2, 4)))
        m1 = student_affinity(Tensor(v), Tensor(v.copy())).data
        np.testing.assert_allclose(np.diag(m1), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(m1, m1.T, atol=1e-12)

    def test_matches_pairwise_cosine_oracle(self):
        rng = np.random.default_rng(2)
        v = unit_rows(rng.normal(size=(3, 4)))
        a = unit_rows(rng.normal(size=(3, 4)))
        m1 = student_affinity(Tensor(v), Tensor(a)).data
        for i in range(3):
            for j in range(3):
                assert abs(m1[i, j] - float(v[i] @ a[j])) < 1e-6

    def test_gradient_reaches_resampler(self):
        params = FusionParams(dim=4, frames=2, heads=2, seed=3, dtype=np.float64)
        rng = np.random.default_rng(3)
        items = [
            ItemRecord(f"i{k}", rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), None) for k in range(2)
        ]
        r = rng.normal(size=(2, 2))

        def f():
            v_mean, a_mean = pre_fusion_pooled(forward_video(items, params, FusionMode.AVIGATE))
            return (student_affinity(v_mean, a_mean) * r).sum()

        wrt = params.resampler.parameters()
        assert finite_difference_check(f, wrt, eps=1e-5) < 1e-4
        for p in wrt:
            p.grad = None
        f().backward()
        assert any(np.any(p.grad != 0.0) for p in wrt if p.grad is not None)


class TestPearsonDistance:
    def test_identical_nonconstant_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert float(pearson_row_distance(p, p.copy()).data) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_reversed_example(self):
        """[0.2,0.3,0.5] vs [0.5,0.3,0.2]; oracle: 1 - np.corrcoef."""
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.3, 0.2])
        expected = 1.0 - np.corrcoef(p, q)[0, 1]
        got = float(pearson_row_distance(p, q).data)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.9286, abs=1e-4)

    def test_uniform_vectors_score_zero_by_convention(self):
        u = np.full(4, 0.25)
        assert float(pearson_row_distance(u, u.copy()).data) == 0.0
        assert float(pearson_row_distance(u, np.array([0.1, 0.2, 0.3, 0.4])).data) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_row_distance(np.ones(3), np.ones(4))

    def test_range_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.uniform(size=5)
            q = rng.uniform(size=5)
            d = float(pearson_row_distance(p, q).data)
            assert -1e-12 <= d <= 2.0 + 1e-12

    def test_two_dim_same_ordering_is_zero(self):
        """For b=2, any two vectors with the same ordering correlate perfectly."""
        assert float(pearson_row_distance(np.array([0.3, 0.7]), np.array([0.1, 0.9])).data) == pytest.approx(
            0.0, abs=1e-12
        )


class TestSoftAlbef:
    def test_equal_matrices_zero(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        assert float(soft_albef_loss(m, Tensor(m.copy())).data) == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_antidiagonal_is_four(self):
        m0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        m1 = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert float(soft_albef_loss(m0, m1).data) == pytest.approx(4.0, abs=1e-6)

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(6)
        m0 = rng.normal(size=(3, 3))
        m1 = rng.normal(size=(3, 3))
        base = float(soft_albef_loss(m0, Tensor(m1)).data)
        for c in (-2.5, 0.7, 3.0):
            shifted = float(soft_albef_loss(m0, Tensor(m1 + c * np.ones((3, 3)))).data)
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_affine_rescale_is_not_generally_zero(self):
        rng = np.random.default_rng(7)
        m0 = rng.normal(size=(3, 3))
        assert float(soft_albef_loss(m0, Tensor(3.0 * m0 + 7.0)).data) > 1e-4

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m0 = rng.normal(size=(3, 3))
            m1 = Tensor(rng.normal(size=(3, 3)))
            assert float(soft_albef_loss(m0, m1).data) >= -1e-12

    def test_no_gradient_into_teacher(self):
        """Graph inspection: the teacher side stays constant. Every tape node
        requires a gradient, and the only leaf among them is the student."""
        m0 = np.random.default_rng(9).normal(size=(3, 3))
        m1 = parameter(np.random.default_rng(10).normal(size=(3, 3)))
        loss = soft_albef_loss(m0, m1)
        leaves, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
                leaves += [] if node._parents else [node]
        assert leaves == [m1]
        loss.backward()
        assert m1.grad is not None

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        m0 = rng.normal(size=(3, 3))
        m1 = parameter(rng.normal(size=(3, 3)))

        def f():
            return soft_albef_loss(m0, m1)

        assert finite_difference_check(f, [m1], eps=1e-5) < 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            soft_albef_loss(np.ones((2, 2)), Tensor(np.ones((3, 3))))

    @staticmethod
    def reference(m0, m1):
        """(1/b) * sum of pearson_row_distance over softmaxed rows and columns."""
        b = m1.shape[0]
        total = 0.0
        for axis in (0, 1):
            for i in range(b):
                p = ad.softmax(Tensor(np.take(m0, i, axis=axis)))
                q = ad.softmax(reshape(ad.take(m1, [i], axis=axis), (b,)))
                total = pearson_row_distance(p, q) + total
        return total * (1.0 / b)

    @pytest.mark.parametrize("constant", ["none", "teacher_row", "student_row", "student_col"])
    def test_matches_summed_pearson_row_distance(self, constant):
        """The vectorized loss and its gradient equal the per-row reference; a
        constant row contributes 0 and no gradient."""
        rng = np.random.default_rng(21)
        m0 = rng.normal(size=(5, 5))
        m1_data = rng.normal(size=(5, 5))
        if constant == "teacher_row":
            m0[2] = 0.3
        elif constant == "student_row":
            m1_data[1] = -0.8
        elif constant == "student_col":
            m1_data[:, 3] = 1.5
        m1 = parameter(m1_data)
        want = self.reference(m0, m1)
        want.backward()
        want_grad = m1.grad
        m1.grad = None
        got = soft_albef_loss(m0, m1)
        got.backward()
        assert float(got.data) == pytest.approx(float(want.data), rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(m1.grad, want_grad, rtol=1e-9, atol=1e-13)

    def test_all_constant_rows_contribute_zero_and_no_gradient(self):
        m0 = np.zeros((4, 4))
        m1 = parameter(np.full((4, 4), 0.5))
        loss = soft_albef_loss(m0, m1)
        loss.backward()
        assert float(loss.data) == 0.0
        np.testing.assert_array_equal(m1.grad, np.zeros((4, 4)))


class TestHardAlbef:
    def test_saturated_diagonal_approaches_zero(self):
        m1 = Tensor(50.0 * np.eye(3))
        assert float(hard_albef_loss(m1).data) < 1e-6

    def test_all_equal_b2_is_ln2(self):
        m1 = Tensor(np.full((2, 2), 0.37))
        assert float(hard_albef_loss(m1).data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_antidiagonal_worse_than_uniform(self):
        m1 = Tensor(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert float(hard_albef_loss(m1).data) > np.log(2.0)


class TestContrastive:
    def test_saturated_diagonal_approaches_zero(self):
        scores = Tensor(np.eye(3))
        assert float(contrastive_loss(scores, scale=50.0).data) < 1e-6

    def test_uniform_scores_b2_is_ln2(self):
        scores = Tensor(np.full((2, 2), 0.4))
        assert float(contrastive_loss(scores, scale=1.0).data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            contrastive_loss(Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        scores = parameter(rng.normal(size=(3, 3)))
        scale = parameter(np.asarray(2.0))

        def f():
            return contrastive_loss(scores, scale=scale)

        assert finite_difference_check(f, [scores, scale], eps=1e-5) < 1e-4

    def test_diagonal_dominance_minimizes_over_grid(self):
        """Brute force over 3x3 score grids with fixed off-diagonal mass."""
        values = np.linspace(-1.0, 1.0, 5)
        best = None
        best_loss = np.inf
        for d in values:
            for o in values:
                s = np.full((3, 3), o) + (d - o) * np.eye(3)
                loss = float(contrastive_loss(Tensor(s), scale=2.0).data)
                if loss < best_loss:
                    best_loss, best = loss, (d, o)
        d, o = best
        assert d == values.max() and o == values.min()


class TestTotalLoss:
    def test_none_kind_is_contrastive_alone(self):
        c = Tensor(np.asarray(0.7))
        assert total_loss(c, None) is c

    def test_equal_combination(self):
        c = Tensor(np.asarray(0.7))
        a = Tensor(np.asarray(0.3))
        assert float(total_loss(c, a).data) == pytest.approx(1.0, abs=1e-12)

    def test_swapping_kind_changes_only_alignment(self):
        rng = np.random.default_rng(20)
        m0 = rng.normal(size=(3, 3))
        m1 = Tensor(rng.normal(size=(3, 3)))
        c = Tensor(np.asarray(0.5))
        soft = float(total_loss(c, soft_albef_loss(m0, m1)).data)
        hard = float(total_loss(c, hard_albef_loss(m1)).data)
        assert soft - float(soft_albef_loss(m0, m1).data) == pytest.approx(0.5, abs=1e-12)
        assert hard - float(hard_albef_loss(m1).data) == pytest.approx(0.5, abs=1e-12)
