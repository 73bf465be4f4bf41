"""Gradient checking for the tests: central differences; tape nodes over
the cross-attention block's numpy helpers, so that each helper's backward can
be checked on its own; and the two tape ops that only the tests' composite
references build graphs with, `reshape` and `batched_matmul`
(`autodiff.matmul` takes 2-D right operands only).

Training runs in float32; gradient checking builds the same graphs in float64
(`finite_difference_check` refuses nothing else, 1e-4 tolerances are not
reachable in single precision).
"""

from __future__ import annotations

import numpy as np

from trifuse import autodiff as ad
from trifuse.autodiff import Tensor


def finite_difference_check(f, wrt, eps: float = 1e-5) -> float:
    """Compare analytic gradients of the scalar `f()` against central differences.

    `f` is re-evaluated after perturbing each coordinate of each tensor in
    `wrt` by +/-eps: numeric = (f(x+eps) - f(x-eps)) / (2 eps). Returns the
    max over coordinates of |analytic - numeric| / max(|analytic|, |numeric|),
    with an absolute floor of 1e-8: deviations below the floor score 0 (a
    parameter whose true gradient is exactly zero, e.g. the key bias of an
    attention layer, would otherwise amplify pure FD roundoff). Tensors must
    be float64; eps belongs in [1e-6, 1e-3].
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    wrt = list(wrt)
    for t in wrt:
        if t.data.dtype != np.float64:
            raise ValueError("finite_difference_check requires float64 tensors")
        t.grad = None

    loss = f()
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]

    worst = 0.0
    for t, ga in zip(wrt, analytic):
        flat = t.data.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f().data)
            flat[i] = orig - eps
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            diff = abs(ga_flat[i] - numeric)
            if diff < 1e-8:
                continue
            worst = max(worst, diff / max(abs(ga_flat[i]), abs(numeric)))
    return worst


def _helper_node(out: np.ndarray, inputs: tuple, backward) -> Tensor:
    """A tape node whose `backward(g)` returns one gradient per input."""

    def accumulate(g):
        for t, gt in zip(inputs, backward(g)):
            if t.requires_grad:
                ad._accumulate(t, gt)

    return ad._node(out, inputs, accumulate)


def layer_norm_node(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """`autodiff.layer_norm` and `layer_norm_backward` as one tape node."""
    out, inv_std = ad.layer_norm(x.data, gain.data, bias.data)
    return _helper_node(out, (x, gain, bias), lambda g: ad.layer_norm_backward(
        g, ad.normalized(x.data, inv_std), inv_std, gain.data, x.requires_grad))


def feed_forward_node(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """`autodiff.feed_forward` and `feed_forward_backward` as one tape node."""
    out = ad.feed_forward(x.data, w1.data, b1.data, w2.data, b2.data)
    return _helper_node(out, (x, w1, b1, w2, b2),
                        lambda g: ad.feed_forward_backward(g, x.data, w1.data, b1.data, w2.data))


def reshape(a: Tensor, shape) -> Tensor:
    """`a` reshaped, as a tape node."""
    return _helper_node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (..., k, n) with equal batch dims, as a tape node."""
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"batched_matmul batch mismatch: {a.shape} @ {b.shape}")
    return _helper_node(a.data @ b.data, (a, b),
                        lambda g: (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g))
