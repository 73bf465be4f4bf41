"""Core tape tests: forward values, gradient accumulation, finite differences."""

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse.autodiff import Tensor, finite_difference_check, parameter


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter([1.0, 2.0, 3.0])
        loss = x.sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_dot_is_bilinear(self):
        x = parameter([1.0, 2.0])
        y = parameter([3.0, 4.0])
        loss = (x * y).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        np.testing.assert_array_equal(y.grad, [1.0, 2.0])

    def test_reused_tensor_accumulates_branch_grads(self):
        """loss = sum(x*x) + sum(3*x) uses x twice; grad = 2x + 3."""
        x = parameter([0.5, -1.5, 2.0])

        def f():
            return (x * x).sum() + (x * 3.0).sum()

        err = finite_difference_check(f, [x], eps=1e-5)
        assert err < 1e-8
        x.grad = None
        f().backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0, rtol=1e-12)

    def test_backward_on_non_scalar_raises(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_second_backward_without_rebuild_raises(self):
        x = parameter([1.0, 2.0])
        loss = x.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already"):
            loss.backward()

    def test_grads_accumulate_across_separate_losses(self):
        x = parameter([1.0, 1.0])
        x.sum().backward()
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_no_grad_builds_no_tape(self):
        x = parameter([1.0, 2.0])
        with ad.no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert y._parents == ()


class TestSoftmax:
    def test_symmetric_pair(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_log3_pair(self):
        out = ad.softmax(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_max_shift_prevents_overflow(self):
        out = ad.softmax(Tensor([1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError, match="empty softmax axis"):
            ad.softmax(Tensor(np.zeros((2, 0))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = parameter(rng.normal(size=6))
        r = rng.normal(size=6)

        def f():
            return (ad.softmax(x) * r).sum()

        assert finite_difference_check(f, [x], eps=1e-5) < 1e-4

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 7)))
        out = ad.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


class TestFiniteDifferenceCheck:
    def test_linear_map_is_exact(self):
        """Central differences are exact for linear maps up to roundoff."""
        rng = np.random.default_rng(3)
        w = rng.uniform(0.5, 1.5, size=8) * rng.choice([-1.0, 1.0], size=8)
        x = parameter(rng.normal(size=8))

        def f():
            return (x * w).sum()

        assert finite_difference_check(f, [x], eps=1e-3) < 1e-9

    def test_rejects_float32(self):
        x = parameter(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            finite_difference_check(lambda: x.sum(), [x])

    def test_rejects_out_of_range_eps(self):
        x = parameter(np.zeros(3))
        with pytest.raises(ValueError, match="eps"):
            finite_difference_check(lambda: x.sum(), [x], eps=1e-2)


class TestOpGradients:
    """Every primitive survives a finite-difference check at random points."""

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_graph(self, seed):
        rng = np.random.default_rng(seed)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4, 2)))
        c = parameter(rng.normal(size=2))

        def f():
            h = ad.tanh(ad.matmul(a, b) + c)
            h = ad.gelu(h * 1.7)
            return (h * h).mean() + ad.sqrt((a * a).sum() + 1.0)

        assert finite_difference_check(f, [a, b, c], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_reductions_and_reshape(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = parameter(rng.normal(size=(2, 6)))

        def f():
            y = ad.reshape(x, (3, 4))
            z = ad.take(y * 2.0, [2, 0, 2, 3], axis=1)
            return ad.log(ad.exp(z).sum(axis=0)).sum() + ad.absolute(x).sum()

        assert finite_difference_check(f, [x], eps=1e-5) < 1e-4

    def test_l2_normalize_zero_vector_is_zero(self):
        out = ad.l2_normalize(Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_l2_normalize_unit_scale_untouched(self):
        v = np.array([3.0, 4.0])
        out = ad.l2_normalize(Tensor(v))
        np.testing.assert_allclose(out.data, v / 5.0, rtol=1e-15)

    def test_take_accumulates_repeated_indices(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        out = ad.take(x, [2, 0, 2], axis=-1)
        np.testing.assert_array_equal(out.data, [[2.0, 0.0, 2.0], [5.0, 3.0, 5.0]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])

    def test_matmul_folds_leading_dims(self):
        """(..., k) @ (k, n) and (..., k) @ (k,) match the per-row products."""
        rng = np.random.default_rng(12)
        a = parameter(rng.normal(size=(2, 3, 4)))
        b = parameter(rng.normal(size=(4, 5)))
        c = parameter(rng.normal(size=4))
        np.testing.assert_allclose(ad.matmul(a, b).data[1], a.data[1] @ b.data, rtol=1e-14)
        r = rng.normal(size=(2, 3, 5))
        s = rng.normal(size=(2, 3))

        def f():
            return (ad.matmul(a, b) * r).sum() + (ad.matmul(a, c) * s).sum()

        assert finite_difference_check(f, [a, b, c], eps=1e-5) < 1e-4

    def test_matmul_batch_mismatch_raises(self):
        with pytest.raises(ValueError, match="batch mismatch"):
            ad.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 5))))

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(11)
        a = parameter(rng.normal(size=(2, 3, 4)))
        b = parameter(rng.normal(size=(2, 4, 5)))
        r = rng.normal(size=(2, 3, 5))

        def f():
            return (ad.matmul(a, b) * r).sum()

        assert finite_difference_check(f, [a, b], eps=1e-5) < 1e-4


class TestFiniteForward:
    def test_finite_inputs_yield_finite_outputs(self):
        """Softmax max-shift and log-sum-exp composition stay finite at extremes."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = Tensor(rng.uniform(-500, 500, size=(3, 5)))
            s = ad.softmax(x, axis=-1)
            assert np.all(np.isfinite(s.data))
            ls = ad.log_softmax(x, axis=-1)
            assert np.all(np.isfinite(ls.data))
