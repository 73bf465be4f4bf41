"""Fusion building blocks: shape contracts, symmetries, gradient integrity."""

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import nn
from trifuse.autodiff import Tensor, parameter

from gradcheck import finite_difference_check, layer_norm, layer_norm_node


def make_rng(seed=0):
    return np.random.default_rng(seed)


def _weights(block, q, kv, mask=None):
    """(..., heads, m, L) softmax weights of `block`'s attention projections
    on these inputs, from the helper the block node uses."""
    def project(x, layer):
        return ad.linear(x.data, layer.weight.data, layer.bias.data)

    w = ad.attention_weights(project(q, block.attn.wq), project(kv, block.attn.wk), block.heads, mask)
    return np.moveaxis(w, 0, -1)


def _tape_nodes(out):
    """Op nodes (tensors with a backward closure) reachable from `out`."""
    seen, stack, nodes = {id(out)}, [out], 0
    while stack:
        t = stack.pop()
        nodes += t._backward is not None
        for parent in t._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


class TestLayerNorm:
    """A whole layer norm (`gradcheck.layer_norm`, on the block's helper
    `autodiff.standardize`), at the gain and bias a block starts with."""

    def test_constant_input_maps_to_zero(self):
        out, _ = layer_norm(np.full(3, 5.0), np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-12)

    def test_already_normalized_is_fixed_point(self):
        """Zero mean and unit variance: only the variance guard
        `LAYER_NORM_EPS` moves the row."""
        out, _ = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2))
        np.testing.assert_allclose(out, np.array([1.0, -1.0]) / np.sqrt(1.0 + ad.LAYER_NORM_EPS), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(5)
        gain, bias = parameter(rng.normal(size=4)), parameter(rng.normal(size=4))
        x = parameter(rng.normal(size=4))
        r = rng.normal(size=4)

        def f():
            return (layer_norm_node(x, gain, bias) * r).sum()

        assert finite_difference_check(f, [x, gain, bias], eps=1e-5) < 1e-4


class TestCrossAttention:
    def test_single_kv_token_attention_weight_is_one(self):
        rng = make_rng(1)
        block = nn.CrossAttentionBlock(8, 4, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(3, 8)))
        kv = Tensor(rng.normal(size=(1, 8)))
        weights = _weights(block, q, kv)
        np.testing.assert_array_equal(weights, np.ones((4, 3, 1)))

    def test_kv_permutation_invariance(self):
        rng = make_rng(2)
        block = nn.CrossAttentionBlock(8, 2, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(3, 8)))
        kv = rng.normal(size=(5, 8))
        out = block(q, Tensor(kv))
        perm = rng.permutation(5)
        out_perm = block(q, Tensor(kv[perm]))
        np.testing.assert_allclose(out.data, out_perm.data, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        rng = make_rng(3)
        block = nn.CrossAttentionBlock(8, 2, rng)
        with pytest.raises(ValueError, match="dim mismatch"):
            block(Tensor(np.zeros((2, 8), dtype=np.float32)), Tensor(np.zeros((3, 6), dtype=np.float32)))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError, match="divisible"):
            nn.CrossAttentionBlock(6, 4, make_rng())

    def test_full_jacobian_matches_finite_differences(self):
        """Every output entry, every parameter; m=2, L=3, d=4, 64-bit."""
        rng = make_rng(4)
        block = nn.CrossAttentionBlock(4, 2, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(2, 4)))
        kv = Tensor(rng.normal(size=(3, 4)))
        params = block.parameters()
        for i in range(2):
            for j in range(4):

                def f(i=i, j=j):
                    out = block(q, kv)
                    return ad.take(ad.take(out, [i], axis=0), [j], axis=1).sum()

                assert finite_difference_check(f, params, eps=1e-5) < 1e-4

    def test_masked_mixed_length_batch_matches_items(self):
        """A zero-padded batch with a key mask gives each item's own output."""
        rng = make_rng(17)
        block = nn.CrossAttentionBlock(8, 2, rng, dtype=np.float64)
        q = rng.normal(size=(3, 2, 8))
        lengths = [5, 1, 3]
        kv = np.zeros((3, 5, 8))
        for b, n in enumerate(lengths):
            kv[b, :n] = rng.normal(size=(n, 8))
        mask = np.arange(5) < np.array(lengths)[:, None]
        batched = block(Tensor(q), Tensor(kv), mask)
        for b, n in enumerate(lengths):
            alone = block(Tensor(q[b]), Tensor(kv[b, :n]))
            np.testing.assert_allclose(batched.data[b], alone.data, rtol=0, atol=1e-12)

    def test_padded_keys_get_zero_weight(self):
        rng = make_rng(18)
        block = nn.CrossAttentionBlock(8, 4, rng, dtype=np.float64)
        kv = Tensor(rng.normal(size=(2, 4, 8)))
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        weights = _weights(block, Tensor(rng.normal(size=(2, 3, 8))), kv, mask)
        assert weights.shape == (2, 4, 3, 4)
        assert np.all(weights[0, :, :, 2:] == 0.0) and np.all(weights[1] > 0.0)

    def test_masked_block_records_one_tape_node(self):
        """Layer norms, projections, attention, feed-forward layer and both
        residual adds are one node, whose parents are the block's 18
        parameters (its token inputs here need no gradient)."""
        rng = make_rng(21)
        block = nn.CrossAttentionBlock(8, 2, rng)
        q = Tensor(rng.normal(size=(3, 2, 8)).astype(np.float32))
        kv = Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32))
        mask = np.arange(5) < np.array([5, 1, 3])[:, None]
        out = block(q, kv, mask)
        assert _tape_nodes(out) == 1
        assert out._parents == tuple(block.parameters())

    def test_gradient_reaches_inputs(self):
        rng = make_rng(6)
        block = nn.CrossAttentionBlock(8, 4, rng, dtype=np.float64)
        q = parameter(rng.normal(size=(2, 8)))
        kv = parameter(rng.normal(size=(4, 8)))
        r = rng.normal(size=(2, 8))

        def f():
            return (block(q, kv) * r).sum()

        assert finite_difference_check(f, [q, kv], eps=1e-5) < 1e-4


class TestGatedFusion:
    def test_zero_gate_yields_exact_zero_matrix(self):
        rng = make_rng(7)
        fusion = nn.GatedFusion(8, 4, 2, rng)
        v = Tensor(rng.normal(size=(3, 8)).astype(np.float32))
        a = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
        out = fusion(v, a)
        np.testing.assert_array_equal(out.data, np.zeros((3, 8), dtype=np.float32))

    def test_saturated_gate_equals_raw_stack(self):
        rng = make_rng(8)
        fusion = nn.GatedFusion(8, 2, 1, rng, dtype=np.float64)
        fusion.gate.data = np.array(25.0)
        v = Tensor(rng.normal(size=(2, 8)))
        a = Tensor(rng.normal(size=(3, 8)))
        gated = fusion(v, a)
        raw = fusion.stack(v, a)
        np.testing.assert_allclose(gated.data, raw.data, atol=1e-5)

    def test_gate_gradient_matches_finite_differences(self):
        rng = make_rng(9)
        fusion = nn.GatedFusion(4, 2, 2, rng, dtype=np.float64)
        fusion.gate.data = np.array(0.3)  # off zero so the stack output matters
        v = Tensor(rng.normal(size=(2, 4)))
        a = Tensor(rng.normal(size=(3, 4)))
        r = rng.normal(size=(2, 4))

        def f():
            return (fusion(v, a) * r).sum()

        assert finite_difference_check(f, [fusion.gate], eps=1e-5) < 1e-4

    def test_full_stack_gradient(self):
        rng = make_rng(10)
        fusion = nn.GatedFusion(4, 2, 2, rng, dtype=np.float64)
        fusion.gate.data = np.array(0.5)
        v = Tensor(rng.normal(size=(2, 4)))
        a = Tensor(rng.normal(size=(3, 4)))
        r = rng.normal(size=(2, 4))

        def f():
            return (fusion(v, a) * r).sum()

        assert finite_difference_check(f, fusion.parameters(), eps=1e-5) < 1e-4


class TestResampler:
    def test_batch_output_shape(self):
        rng = make_rng(19)
        rs = nn.Resampler(8, 4, 12, rng, depth=1, max_len=64)
        tokens = Tensor(rng.normal(size=(3, 40, 8)).astype(np.float32))
        assert rs(tokens).shape == (3, 12, 8)

    def test_output_length_is_query_count(self):
        rng = make_rng(11)
        rs = nn.Resampler(8, 4, 12, rng, depth=1, max_len=64)
        tokens = Tensor(rng.normal(size=(40, 8)).astype(np.float32))
        assert rs(tokens).shape == (12, 8)

    @pytest.mark.parametrize("length", [1, 5, 64])
    def test_any_input_length(self, length):
        rng = make_rng(12)
        rs = nn.Resampler(8, 2, 4, rng, depth=1, max_len=64)
        out = rs(Tensor(rng.normal(size=(length, 8)).astype(np.float32)))
        assert out.shape == (4, 8)

    def test_too_long_input_rejected(self):
        rng = make_rng(13)
        rs = nn.Resampler(8, 2, 4, rng, depth=1, max_len=16)
        with pytest.raises(ValueError, match="max_len"):
            rs(Tensor(np.zeros((17, 8), dtype=np.float32)))

    def test_zero_inputs_give_parameter_only_output(self):
        """All-zero inputs: output depends only on parameters, bit-equal across items."""
        rng = make_rng(14)
        rs = nn.Resampler(8, 2, 4, rng, depth=1, max_len=64)
        first = rs(Tensor(np.zeros((6, 8), dtype=np.float32)))
        second = rs(Tensor(np.zeros((6, 8), dtype=np.float32)))
        np.testing.assert_array_equal(first.data, second.data)

    def test_gradient_check(self):
        rng = make_rng(15)
        rs = nn.Resampler(4, 2, 3, rng, depth=1, max_len=8, dtype=np.float64)
        tokens = Tensor(rng.normal(size=(3, 4)))
        r = rng.normal(size=(3, 4))

        def f():
            return (rs(tokens) * r).sum()

        assert finite_difference_check(f, rs.parameters(), eps=1e-5) < 1e-4


class TestBlockEvalCounter:
    def test_counter_increments_per_block_call(self):
        rng = make_rng(16)
        stack = nn.CrossAttentionStack(4, 2, 3, rng)
        q = Tensor(np.zeros((2, 4), dtype=np.float32))
        kv = Tensor(np.zeros((3, 4), dtype=np.float32))
        before = nn.BLOCK_EVAL_COUNTER["count"]
        stack(q, kv)
        assert nn.BLOCK_EVAL_COUNTER["count"] == before + 3

    def test_counter_adds_one_per_item_per_block(self):
        rng = make_rng(20)
        stack = nn.CrossAttentionStack(4, 2, 3, rng)
        q = Tensor(np.zeros((5, 2, 4), dtype=np.float32))
        kv = Tensor(np.zeros((5, 3, 4), dtype=np.float32))
        before = nn.BLOCK_EVAL_COUNTER["count"]
        stack(q, kv)
        assert nn.BLOCK_EVAL_COUNTER["count"] == before + 15
