"""Cross-attention building blocks for the fusion network.

All blocks are pre-norm transformer sub-modules built from `autodiff` ops:
a cross-attention block (layer norms, multi-head cross attention,
feed-forward layer), a gated cross-attention stack (scalar tanh gate,
zero-initialized so the stack contributes exactly nothing at init), and a
resampler that maps any input sequence to a fixed number of learned query
tokens. A `CrossAttentionBlock` call records one tape node
(`autodiff.cross_attention_block`), whose parents are the block's own 18
tensors in `parameters()` order.

Blocks take token tensors of shape (..., n, d): one item as (n, d) or a batch
as (B, n, d). A batch whose items have different key/value lengths is
zero-padded to the longest, and a boolean key mask of shape (..., L) marks
each item's own tokens; padded keys get exactly zero attention weight.

`BLOCK_EVAL_COUNTER` counts cross-attention block evaluations, one per item
per block: a block call on a batch of B items adds B. Criterion 8 of the
acceptance suite and perfbench's query workload read it around query scoring,
and fail if it moves.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Items through cross-attention blocks, one count per item per block; read by
# criterion 8 (tests/test_acceptance.py) and perfbench/run.py.
BLOCK_EVAL_COUNTER = {"count": 0}


class Module:
    """Minimal parameter container; children discovered from attributes.
    `Module(**attrs)` is a plain namespace of tensors and modules."""

    def __init__(self, **attrs):
        vars(self).update(attrs)

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, elem in enumerate(value):
                    if isinstance(elem, Module):
                        yield from elem.named_parameters(prefix=f"{key}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out)).astype(dtype)


class CrossAttentionBlock(Module):
    """Pre-norm cross attention + feed-forward, both with residual connections.

    Its 18 tensors sit in plain `Module` namespaces (`ln_q.gain`,
    `attn.wq.weight`, ..., `ff.fc2.bias`), named and ordered as checkpoints
    and Adam's buffer hold them. No positional encoding lives inside the
    block, so the output is invariant to permutations of the key/value rows.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dtype=np.float32):
        if dim % heads != 0:
            raise ValueError(f"model dim {dim} not divisible by head count {heads}")
        self.dim = dim
        self.heads = heads

        def linear(weight):
            return Module(weight=ad.parameter(weight), bias=ad.parameter(np.zeros(weight.shape[1], dtype=dtype)))

        def norm():
            return Module(gain=ad.parameter(np.ones(dim, dtype=dtype)), bias=ad.parameter(np.zeros(dim, dtype=dtype)))

        self.ln_q = norm()
        self.ln_kv = norm()
        # Identity value/output starts and a zero write-back keep a fresh block
        # a pass-through that forwards an average of its KV tokens: a gated
        # stack gets gradient only through tanh(gate) * output, so an opening
        # gate must already forward meaningful KV content.
        self.attn = Module(wq=linear(_xavier(rng, dim, dim, dtype)), wk=linear(_xavier(rng, dim, dim, dtype)),
                           wv=linear(np.eye(dim, dtype=dtype)), wo=linear(np.eye(dim, dtype=dtype)))
        self.ln_ff = norm()
        self.ff = Module(fc1=linear(_xavier(rng, dim, 4 * dim, dtype)),
                         fc2=linear(np.zeros((4 * dim, dim), dtype=dtype)))

    def __call__(self, q_tokens: Tensor, kv_tokens: Tensor, kv_mask=None) -> Tensor:
        if q_tokens.shape[-1] != self.dim or kv_tokens.shape[-1] != self.dim:
            raise ValueError(
                f"block dim mismatch: got {q_tokens.shape[-1]} and {kv_tokens.shape[-1]}, expected {self.dim}"
            )
        if kv_tokens.shape[-2] < 1:
            raise ValueError("attention needs at least one key/value token")
        out = ad.cross_attention_block(q_tokens, kv_tokens, kv_mask, self.parameters(), self.heads)
        BLOCK_EVAL_COUNTER["count"] += math.prod(out.shape[:-2])
        return out


class CrossAttentionStack(Module):
    """Blocks applied in sequence; every layer re-attends to the same KV tokens."""

    def __init__(self, dim: int, heads: int, depth: int, rng: np.random.Generator, dtype=np.float32):
        self.blocks = [CrossAttentionBlock(dim, heads, rng, dtype) for _ in range(depth)]

    def __call__(self, q_tokens: Tensor, kv_tokens: Tensor, kv_mask=None) -> Tensor:
        x = q_tokens
        for block in self.blocks:
            x = block(x, kv_tokens, kv_mask)
        return x


class GatedFusion(Module):
    """Cross-attention stack scaled by tanh of a learnable scalar gate.

    The gate starts at zero, so a freshly initialized stack contributes an
    exactly-zero matrix regardless of its inputs.
    """

    def __init__(self, dim: int, heads: int, depth: int, rng: np.random.Generator, dtype=np.float32):
        self.stack = CrossAttentionStack(dim, heads, depth, rng, dtype)
        self.gate = ad.parameter(np.zeros((), dtype=dtype))

    def __call__(self, visual_tokens: Tensor, modality_tokens: Tensor, modality_mask=None) -> Tensor:
        return ad.tanh(self.gate) * self.stack(visual_tokens, modality_tokens, modality_mask)

    def gate_value(self) -> float:
        return math.tanh(float(self.gate.data))


class Resampler(Module):
    """Maps (..., L, d) tokens to exactly (..., n_queries, d) via learned queries.

    Learned positional embeddings are added to the *inputs* before attention;
    inputs longer than `max_len` are rejected. `mask` (..., L) marks each
    item's own tokens in a zero-padded batch.
    """

    def __init__(
        self,
        dim: int,
        heads: int,
        n_queries: int,
        rng: np.random.Generator,
        depth: int,
        max_len: int,
        dtype=np.float32,
    ):
        scale = 1.0 / math.sqrt(dim)
        self.queries = ad.parameter(rng.normal(0.0, scale, size=(n_queries, dim)).astype(dtype))
        self.pos = ad.parameter(rng.normal(0.0, scale, size=(max_len, dim)).astype(dtype))
        self.stack = CrossAttentionStack(dim, heads, depth, rng, dtype)
        self.max_len = max_len

    def __call__(self, tokens: Tensor, mask=None) -> Tensor:
        length = tokens.shape[-2]
        if length < 1:
            raise ValueError("resampler input must have at least one token")
        if length > self.max_len:
            raise ValueError(f"resampler input length {length} exceeds max_len {self.max_len}")
        kv = tokens + ad.take(self.pos, np.arange(length))
        # one copy of the learned queries per item
        queries = self.queries + Tensor(np.zeros(tokens.shape[:-2] + (1, 1), dtype=self.queries.dtype))
        return self.stack(queries, kv, mask)
