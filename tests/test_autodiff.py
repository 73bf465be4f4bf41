"""Core tape tests: forward values, gradient accumulation, finite differences."""

import tracemalloc

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import nn
from trifuse.autodiff import _GELU_C, Tensor, parameter
from trifuse.fusion import MAX_SHARPNESS

from gradcheck import batched_matmul, feed_forward_node, finite_difference_check, layer_norm_node, reshape


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

    @pytest.mark.parametrize("add_first", [True, False], ids=["add_first", "add_last"])
    def test_shared_first_gradient_is_never_written_through(self, add_first):
        """`add` hands one gradient array to both parents, and both store it
        without a copy; x's second branch must give x the sum and leave y's
        gradient, the same array, unchanged."""
        x = parameter([0.5, -1.5, 2.0])
        y = parameter([1.0, 3.0, -2.0])
        c = np.array([0.25, -4.0, 1.5])
        shared, other = ((x + y) * c).sum(), (x * x).sum()
        (shared + other if add_first else other + shared).backward()
        np.testing.assert_array_equal(y.grad, c)
        np.testing.assert_array_equal(x.grad, c + 2.0 * x.data)

    def test_tensor_added_to_itself_gets_both_branches(self):
        x = parameter([1.0, -2.0])
        ((x + x) * np.array([3.0, 5.0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0, 10.0])

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
        # a shared intermediate passes on each loss's gradient once
        w = parameter([2.0])
        y = w * 3.0
        y.sum().backward()
        (y * 1.0).sum().backward()
        np.testing.assert_array_equal(w.grad, [6.0])

    def test_integer_inputs_enter_as_float64(self):
        assert parameter([1, 2, 3]).dtype == np.float64
        assert ad.mul(np.arange(3), 2).dtype == np.float64
        assert (parameter([1.0]) + np.array([True])).dtype == np.float64

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
        ff = [parameter(rng.normal(size=s)) for s in ((2, 8), (8,), (8, 2), (2,))]

        def f():
            h = ad.tanh(ad.matmul(a, b) + c)
            h = feed_forward_node(h * 1.7, *ff)
            return (h * h).mean() + ad.sqrt((a * a).sum() + 1.0)

        assert finite_difference_check(f, [a, b, c, *ff], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_reductions_and_reshape(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = parameter(rng.normal(size=(2, 6)))

        def f():
            y = reshape(x, (3, 4))
            z = ad.take(y * 2.0, [2, 0, 2, 3], axis=1)
            return ad.logsumexp(z, axis=0).sum() + ad.tanh(x).sum()

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
        """(..., k) @ (k, n) matches the per-row products."""
        rng = np.random.default_rng(12)
        a = parameter(rng.normal(size=(2, 3, 4)))
        b = parameter(rng.normal(size=(4, 5)))
        np.testing.assert_allclose(ad.matmul(a, b).data[1], a.data[1] @ b.data, rtol=1e-14)
        r = rng.normal(size=(2, 3, 5))

        def f():
            return (ad.matmul(a, b) * r).sum()

        assert finite_difference_check(f, [a, b], eps=1e-5) < 1e-4

    def test_matmul_rejects_a_vector_right_operand(self):
        """Refused in the forward pass, not later inside backward."""
        with pytest.raises(ValueError, match=r"2-D right operand, got \(4,\)"):
            ad.matmul(parameter(np.ones((3, 4))), parameter(np.ones(4)))

    def test_matmul_rejects_a_batched_right_operand(self):
        """src multiplies by 2-D right operands only; the batched product of
        the composite references is `gradcheck.batched_matmul`."""
        with pytest.raises(ValueError, match=r"2-D right operand, got \(2, 4, 5\)"):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(11)
        a = parameter(rng.normal(size=(2, 3, 4)))
        b = parameter(rng.normal(size=(2, 4, 5)))
        r = rng.normal(size=(2, 3, 5))
        with pytest.raises(ValueError, match="batch mismatch"):
            batched_matmul(a, Tensor(np.ones((3, 4, 5))))

        def f():
            return (batched_matmul(a, b) * r).sum()

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


def _composite_softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _composite_logsumexp(x, axis, keepdims):
    shift = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - shift).sum(axis=axis, keepdims=True)) + shift
    return out if keepdims else np.squeeze(out, axis)


def _composite_gelu(x):
    return x * (np.tanh((x + x * x * x * 0.044715) * np.sqrt(2.0 / np.pi)) + 1.0) * 0.5


def _identity_feed_forward(x):
    """The feed-forward helpers with identity weights and zero biases, whose
    products and sums are exact: the GELU they fold in."""
    eye, zero = Tensor(np.eye(x.shape[-1], dtype=x.dtype)), Tensor(np.zeros(x.shape[-1], x.dtype))
    return feed_forward_node(x, eye, zero, eye, zero)


def _composite_standardize(x, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)


# id -> (op, the numpy composite it replaced, axis whose entries are keys or None)
SINGLE_NODE_OPS = {
    "softmax_axis0": (lambda x: ad.softmax(x, axis=0), lambda x: _composite_softmax(x, 0), 0),
    "softmax_axis1": (lambda x: ad.softmax(x, axis=1), lambda x: _composite_softmax(x, 1), 1),
    "softmax_axis-1": (lambda x: ad.softmax(x, axis=-1), lambda x: _composite_softmax(x, -1), -1),
    "logsumexp": (lambda x: ad.logsumexp(x, axis=1), lambda x: _composite_logsumexp(x, 1, False), 1),
    "logsumexp_keepdims": (
        lambda x: ad.logsumexp(x, axis=-1, keepdims=True), lambda x: _composite_logsumexp(x, -1, True), -1
    ),
    # x - logsumexp: a masked key's output is -inf, so no finite loss has a gradient there to check
    "log_softmax": (
        lambda x: ad.log_softmax(x, axis=1), lambda x: x - _composite_logsumexp(x, 1, True), None
    ),
    "gelu": (_identity_feed_forward, _composite_gelu, None),
    # a layer norm at unit gain and zero bias: the block's `standardize` and its backward
    "standardize": (
        lambda x: layer_norm_node(x, Tensor(np.ones(x.shape[-1], x.dtype)), Tensor(np.zeros(x.shape[-1], x.dtype))),
        lambda x: _composite_standardize(x, ad.LAYER_NORM_EPS),
        None,
    ),
}


def _weighted_sum(out):
    return (out * np.random.default_rng(0).normal(size=out.shape).astype(out.dtype)).sum()


def _weighted_loss(op, x):
    return _weighted_sum(op(x))


@pytest.mark.parametrize("name", list(SINGLE_NODE_OPS))
class TestSingleNodeOps:
    """Each single-node nonlinearity keeps the contract of the composite it replaced."""

    SHAPE = (3, 4, 5)

    def test_input_bits_unchanged(self, name):
        op = SINGLE_NODE_OPS[name][0]
        x = parameter(np.random.default_rng(1).normal(size=self.SHAPE) * 2.0)
        before = x.data.tobytes()
        _weighted_loss(op, x).backward()
        assert x.data.tobytes() == before
        assert x.grad is not None

    def test_float32_stays_float32(self, name):
        op = SINGLE_NODE_OPS[name][0]
        x = parameter(np.random.default_rng(2).normal(size=self.SHAPE).astype(np.float32))
        out = op(x)
        assert out.dtype == np.float32
        _weighted_loss(op, x).backward()
        assert x.grad.dtype == np.float32

    def test_matches_composite(self, name):
        op, composite, _ = SINGLE_NODE_OPS[name]
        x = np.random.default_rng(3).normal(size=self.SHAPE) * 3.0
        got = op(Tensor(x)).data
        want = composite(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_gradient_matches_finite_differences(self, name):
        op = SINGLE_NODE_OPS[name][0]
        x = parameter(np.random.default_rng(4).normal(size=(2, 3, 4)))
        assert finite_difference_check(lambda: _weighted_loss(op, x), [x], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_inputs_do_not_overflow(self, name, dtype):
        op = SINGLE_NODE_OPS[name][0]
        rng = np.random.default_rng(5)
        x = parameter((rng.choice([-1e4, 1e4], size=self.SHAPE) + rng.normal(size=self.SHAPE)).astype(dtype))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = op(x)
            _weighted_loss(op, x).backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))


@pytest.mark.parametrize("name", [name for name, (*_, key_axis) in SINGLE_NODE_OPS.items() if key_axis is not None])
def test_masked_key_gets_zero_weight_and_gradient(name):
    """A key that is -inf in every row: softmax gives it weight 0, and so does
    logsumexp's gradient, which is that softmax."""
    op, _, key_axis = SINGLE_NODE_OPS[name]
    data = np.random.default_rng(6).normal(size=TestSingleNodeOps.SHAPE)
    masked = (slice(None),) * (key_axis % data.ndim) + (2,)
    data[masked] = -np.inf
    x = parameter(data)
    out = op(x)
    assert np.all(np.isfinite(out.data))
    if name.startswith("softmax"):
        assert np.all(out.data[masked] == 0.0)
    _weighted_loss(op, x).backward()
    assert np.all(x.grad[masked] == 0.0)
    assert np.all(np.isfinite(x.grad))


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _composite_token_logmeanexp(q, tokens, s):
    """The matmul + logsumexp graph `token_logmeanexp` replaced in the scorer."""
    m, b, d = tokens.shape
    scaled = reshape(ad.matmul(q * s, ad.transpose(reshape(tokens, (m * b, d)))), (q.shape[0], m, b))
    return (ad.logsumexp(scaled, axis=1) - np.log(m)) * (1.0 / s)


class TestTokenLogMeanExp:
    """The scorer's local term as one node: unit-norm (T, d) queries against
    token-major unit-norm (m, B, d) tokens, no max shift."""

    def _inputs(self, seed, t=3, m=4, b=5, d=6):
        rng = np.random.default_rng(seed)
        return _unit(rng.normal(size=(t, d))), _unit(rng.normal(size=(m, b, d)))

    @pytest.mark.parametrize("sharpness", [1.0, 20.0])
    def test_gradient_matches_finite_differences(self, sharpness):
        q, tokens = (parameter(x) for x in self._inputs(7, t=2, m=3, b=2, d=4))
        r = np.random.default_rng(8).normal(size=(2, 2))
        f = lambda: (ad.token_logmeanexp(q, tokens, sharpness) * r).sum()
        assert finite_difference_check(f, [q, tokens], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("zero_items", [(), (1, 3)], ids=["dense", "zero_filled"])
    def test_matches_composite(self, zero_items):
        q, tokens = self._inputs(9)
        tokens[:, list(zero_items)] = 0.0
        for s in (0.5, 20.0, 80.0):
            got = ad.token_logmeanexp(Tensor(q), Tensor(tokens), s).data
            want = _composite_token_logmeanexp(Tensor(q), Tensor(tokens), s).data
            assert got.shape == want.shape == (3, 5)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_input_bits_unchanged(self):
        q, tokens = (parameter(x) for x in self._inputs(10))
        before = q.data.tobytes(), tokens.data.tobytes()
        (ad.token_logmeanexp(q, tokens, 20.0) * np.random.default_rng(0).normal(size=(3, 5))).sum().backward()
        assert (q.data.tobytes(), tokens.data.tobytes()) == before
        assert q.grad is not None and tokens.grad is not None

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["aligned", "opposed"])
    def test_float32_finite_at_max_sharpness(self, sign):
        """exp(+-MAX_SHARPNESS) summed over m tokens fits float32, without a shift."""
        q = _unit(np.random.default_rng(11).normal(size=(2, 6))).astype(np.float32)
        tokens = parameter(np.broadcast_to(sign * q[0], (12, 3, 6)).astype(np.float32))
        qt = parameter(q)
        with np.errstate(over="raise", under="raise", invalid="raise", divide="raise"):
            out = ad.token_logmeanexp(qt, tokens, MAX_SHARPNESS)
            (out * np.float32(1e3)).sum().backward()
        assert out.dtype == np.float32 and tokens.grad.dtype == np.float32
        assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(tokens.grad)) and np.all(np.isfinite(qt.grad))
        assert abs(out.data[0, 0] - sign) < 1e-5


def _composite_attention(q, k, v, heads, mask):
    """Masked multi-head attention as a graph of primitive ops."""
    d = q.shape[-1]

    def split(x):
        return ad.swapaxes(reshape(x, x.shape[:-1] + (heads, d // heads)), -2, -3)

    scores = batched_matmul(split(q), ad.transpose(split(k))) * (1.0 / np.sqrt(d // heads))
    if mask is not None:
        scores = scores + Tensor(np.where(mask, 0.0, -np.inf)[..., None, None, :])
    pooled = ad.swapaxes(batched_matmul(ad.softmax(scores, axis=-1), split(v)), -2, -3)
    return reshape(pooled, pooled.shape[:-2] + (d,))


def _composite_layer_norm(x, eps):
    """`_composite_standardize` in primitive ops, so that it has a gradient."""
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / ad.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)


def _composite_block(block, q, kv, mask):
    """`nn.CrossAttentionBlock` as the graph of primitive ops that its one
    node replaces: per-sublayer nodes would record the same arithmetic."""

    def norm(x, ln):
        return _composite_layer_norm(x, ad.LAYER_NORM_EPS) * ln.gain + ln.bias

    def linear(x, layer):
        return ad.matmul(x, layer.weight) + layer.bias

    attn = block.attn
    kv_hat = norm(kv, block.ln_kv)
    pooled = _composite_attention(
        linear(norm(q, block.ln_q), attn.wq), linear(kv_hat, attn.wk), linear(kv_hat, attn.wv), block.heads, mask)
    x = q + linear(pooled, attn.wo)
    h = linear(norm(x, block.ln_ff), block.ff.fc1)
    return x + linear(h * (ad.tanh((h + h * h * h * 0.044715) * _GELU_C) + 1.0) * 0.5, block.ff.fc2)


# id -> (model dim, heads, queries per item, each item's key count, parameter
# scale, input scale, input offset). Every case masks a zero-padded batch of
# mixed key lengths. "linear" draws every weight and bias at unit scale
# rather than 0.5, "layer_norm" feeds inputs far from zero mean and unit
# variance, "single_kv_token" gives an item one valid key, "padded_keys"
# pads with more heads.
BLOCK_CASES = {
    "linear": (8, 2, 3, [4, 2], 1.0, 1.0, 0.0),
    "layer_norm": (8, 2, 2, [3, 4], 0.5, 3.0, 2.0),
    "masked_mixed_lengths": (8, 2, 2, [5, 1, 3], 0.5, 1.0, 0.0),
    "single_kv_token": (8, 4, 3, [1, 3], 0.5, 1.0, 0.0),
    "padded_keys": (8, 4, 3, [2, 4], 0.5, 1.0, 0.0),
}


def _block_case(name, dtype=np.float64):
    """(block, q, kv, mask). Every parameter is random, so every gradient path
    carries signal (at init fc2 is zero and wv, wo are the identity); padded
    key and value rows hold random values, not zeros, so only the mask keeps
    them out."""
    dim, heads, m, lengths, scale, x_scale, offset = BLOCK_CASES[name]
    rng = np.random.default_rng(30)
    block = nn.CrossAttentionBlock(dim, heads, rng, dtype=dtype)
    for p in block.parameters():
        p.data = (rng.normal(size=p.shape) * scale).astype(dtype)
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    q = (rng.normal(size=(len(lengths), m, dim)) * x_scale + offset).astype(dtype)
    kv = (rng.normal(size=mask.shape + (dim,)) * x_scale + offset).astype(dtype)
    return block, q, kv, mask


def _block_grads(fn, block, q, kv, mask, constant=None):
    """The output and the gradients of every block parameter, q and kv of
    `_weighted_sum(fn(block, q, kv, mask))`; the input named `constant`
    ("q" or "kv") enters as a constant, whose gradient is None."""
    for p in block.parameters():
        p.grad = None
    q, kv = (Tensor(x) if key == constant else parameter(x) for key, x in (("q", q), ("kv", kv)))
    out = fn(block, q, kv, mask)
    _weighted_sum(out).backward()
    return out.data, [p.grad for p in block.parameters()] + [q.grad, kv.grad]


def _block_node(block, q, kv, mask):
    return block(q, kv, mask)


@pytest.mark.parametrize("name", list(BLOCK_CASES))
class TestSublayerOps:
    """The cross-attention block's one node against the primitive-op graph of
    its sublayers (layer norms, projections, masked attention, feed-forward
    layer, residuals), in float64."""

    def test_matches_composite(self, name):
        block, q, kv, mask = _block_case(name)
        got = block(Tensor(q), Tensor(kv), mask).data
        want = _composite_block(block, Tensor(q), Tensor(kv), mask).data
        assert got.shape == want.shape == q.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gradient_matches_finite_differences(self, name):
        """Over every block parameter and both token inputs."""
        block, q, kv, mask = _block_case(name)
        q, kv = parameter(q), parameter(kv)
        wrt = block.parameters() + [q, kv]
        assert finite_difference_check(lambda: _weighted_sum(block(q, kv, mask)), wrt, eps=1e-5) < 1e-4

    def test_gradient_matches_composite(self, name):
        block, q, kv, mask = _block_case(name)
        _, got = _block_grads(_block_node, block, q, kv, mask)
        _, want = _block_grads(_composite_block, block, q, kv, mask)
        assert len(got) == len(want) == 20
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-11 * max(1.0, np.max(np.abs(w)))

    @pytest.mark.parametrize("constant", ["q", "kv"])
    def test_constant_input_keeps_parameter_gradients(self, name, constant):
        """Training feeds the block constant keys and values (the speech
        stack's raw speech tokens) and constant queries: the node then skips
        that input's gradient products, and nothing else changes."""
        block, q, kv, mask = _block_case(name)
        want_out, want = _block_grads(_block_node, block, q, kv, mask)
        got_out, got = _block_grads(_block_node, block, q, kv, mask, constant)
        assert np.max(np.abs(got_out - want_out)) <= 1e-12 * np.max(np.abs(want_out))
        for g, w in zip(got[:18], want[:18]):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * max(1.0, np.max(np.abs(w)))
        grads = dict(zip(("q", "kv"), got[18:]))
        assert grads.pop(constant) is None
        assert next(iter(grads.values())) is not None

    def test_input_bits_unchanged(self, name):
        block, q, kv, mask = _block_case(name)
        q, kv = parameter(q), parameter(kv)
        tensors = block.parameters() + [q, kv]
        before = [t.data.tobytes() for t in tensors]
        _weighted_sum(block(q, kv, mask)).backward()
        assert [t.data.tobytes() for t in tensors] == before
        assert all(t.grad is not None for t in tensors)


def _attention_case(name):
    """(q, k, v, heads, mask) projected inputs in float64. Padded key and
    value rows hold random values, not zeros, so only the mask keeps them out."""
    rng = np.random.default_rng(30)
    if name == "masked_mixed_lengths":
        mask = np.arange(5) < np.array([5, 1, 3])[:, None]
        return rng.normal(size=(3, 2, 8)), rng.normal(size=(3, 5, 8)), rng.normal(size=(3, 5, 8)), 2, mask
    mask = np.array([[True, True, False, False], [True, True, True, True]])  # padded_keys
    return rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 4, 8)), rng.normal(size=(2, 4, 8)), 4, mask


@pytest.mark.parametrize("name", ["masked_mixed_lengths", "padded_keys"])
def test_attention_padded_keys_get_zero_weight_and_gradient(name):
    q, k, v, heads, mask = _attention_case(name)
    weights = ad.attention_weights(q, k, heads, mask)  # (L, ..., heads, m)
    padded = np.logical_not(np.moveaxis(mask, -1, 0))
    assert np.all(weights[padded] == 0.0) and np.all(weights[~padded] > 0.0)
    g = np.random.default_rng(0).normal(size=q.shape)
    _, gk, gv = ad.attention_backward(g, q, k, v, weights, heads)
    assert np.all(gk[~mask] == 0.0) and np.all(gv[~mask] == 0.0)
    assert np.all(gv[mask] != 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_mask_is_bit_equal_to_an_all_true_mask(dtype):
    """Full-length batches reach the block with no mask (`fusion._stack`); the
    values and gradients are those of a mask that keeps every key."""
    block, q, kv, _ = _block_case("masked_mixed_lengths", dtype)
    runs = [_block_grads(_block_node, block, q, kv, mask) for mask in (None, np.ones(kv.shape[:-1], dtype=bool))]
    for unmasked, masked in zip(*[[out, *grads] for out, grads in runs]):
        assert unmasked.dtype == masked.dtype == dtype
        assert unmasked.tobytes() == masked.tobytes()


def reference_gelu(x: np.ndarray):
    """The single-node GELU that the feed-forward helpers fold in, kept
    verbatim as the reference for their bits: its output and its backward."""
    # In place, in the composite's order: t = tanh((x + x^3 * 0.044715) * c)
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = t + 1.0
    out_data *= x
    out_data *= 0.5

    def backward(g):  # d/dx of 0.5 x (1 + t), with t = tanh(c (x + 0.044715 x^3))
        # In place, in the order of ((x^2 * 3 * 0.044715 + 1) c (1 - t^2) x + t + 1) g / 2
        slope = x * x
        slope *= 3.0 * 0.044715
        slope += 1.0
        slope *= _GELU_C
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        slope *= dt
        slope *= x
        slope += t
        slope += 1.0
        slope *= g
        slope *= 0.5
        return slope

    return out_data, backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 3, 8), (5, 8)], ids=["batch", "single"])
def test_feed_forward_is_bit_equal_to_linear_gelu_linear(dtype, shape):
    """The feed-forward helpers recompute the hidden layer in backward, by the
    chain's own expressions: the output and all five gradients keep the bits
    of linear, GELU, linear."""
    rng = np.random.default_rng(41)
    x, w1, b1, w2, b2 = (rng.normal(size=s).astype(dtype) for s in (shape, (8, 32), (32,), (32, 8), (8,)))
    g = rng.normal(size=shape).astype(dtype)

    act, gelu_backward = reference_gelu(ad.linear(x, w1, b1))
    g_act, gw2, gb2 = ad.linear_backward(g, act, w2)
    gx, gw1, gb1 = ad.linear_backward(gelu_backward(g_act), x, w1)
    chain = [ad.linear(act, w2, b2), gx, gw1, gb1, gw2, gb2]
    node = [ad.feed_forward(x, w1, b1, w2, b2), *ad.feed_forward_backward(g, x, w1, b1, w2)]
    for got, want in zip(node, chain):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _retained_bytes(forward) -> int:
    """Bytes allocated by `forward()` that are still alive after it returns,
    with its output (and so its tape node) held."""
    tracemalloc.start()
    try:
        out = forward()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return retained


def _float32_block(length):
    """A block at its init, a masked float32 batch of 32 items with 12
    queries and `length` keys and values each, the queries a parameter, and
    the bytes the block node keeps: its output, the mid-block residual and
    the attention output (each the queries' size), the (L, B, heads, m)
    softmax weights and three per-row 1/sigma."""
    rng = np.random.default_rng(42)
    block = nn.CrossAttentionBlock(16, 4, rng)
    q = parameter(rng.normal(size=(32, 12, 16)).astype(np.float32))
    kv = Tensor(rng.normal(size=(32, length, 16)).astype(np.float32))
    mask = np.arange(length) < rng.integers(1, length + 1, size=32)[:, None]
    kept = 3 * q.data.nbytes + (length * 4 * 12 + 2 * 12 + length) * 32 * 4
    return block, q, kv, mask, kept


class TestRetainedMemory:
    """Nodes that recompute an intermediate in backward do not keep it. Half
    the queries' size covers the Python objects of a node."""

    def test_feed_forward_keeps_no_hidden_layer(self):
        """The feed-forward hidden layer is 4x the queries' size."""
        block, q, kv, mask, kept = _float32_block(12)
        assert _retained_bytes(lambda: block(q, kv, mask)) <= kept + q.data.nbytes // 2

    def test_layer_norm_keeps_no_normalized_input(self):
        """Neither the normalized queries, keys and values nor their
        projections: with 64 keys each key or value array is 5.3x the
        queries' size."""
        block, q, kv, mask, kept = _float32_block(64)
        assert _retained_bytes(lambda: block(q, kv, mask)) <= kept + q.data.nbytes // 2

    def test_token_logmeanexp_keeps_no_exponentials(self):
        rng = np.random.default_rng(44)
        t, m, b, d = 8, 12, 64, 16
        q = parameter(_unit(rng.normal(size=(t, d))).astype(np.float32))
        tokens = parameter(_unit(rng.normal(size=(m, b, d))).astype(np.float32))
        assert _retained_bytes(lambda: ad.token_logmeanexp(q, tokens, 20.0)) < t * m * b * 4
