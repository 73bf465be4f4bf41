"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

A small tape: every differentiable op produces a `Tensor` that remembers its
parent tensors and a closure pushing the incoming gradient back to them.
Calling `backward()` on a scalar walks the tape in reverse topological order
and accumulates gradients additively, so a tensor used twice receives the sum
of both branch gradients.

Only the ops needed by the fusion stacks and training losses are provided.
Training runs in float32; gradient checking builds the same graphs in float64
(`finite_difference_check` refuses nothing else, 1e-4 tolerances are not
reachable in single precision).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy array plus, when it participates in a graph, its tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar loss.

        Gradients accumulate into `.grad` of every reachable tensor with
        `requires_grad`. A second backward from the same loss node raises;
        backward from a *different* loss over shared leaves accumulates.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss, got shape %s" % (self.shape,))
        if self._consumed:
            raise RuntimeError("backward already called on this graph; rebuild the loss")
        self._consumed = True

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other, self.dtype)))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other, self.dtype), self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


def parameter(data, dtype=None) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(_floating(np.array(data, dtype=dtype, copy=True)), requires_grad=True)


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(_floating(np.asarray(x, dtype=dtype)))


def _floating(arr: np.ndarray) -> np.ndarray:
    """Data entering the graph from outside: integers and bools become float64.
    Op results are floats already, so `Tensor` itself does not check."""
    return arr if np.issubdtype(arr.dtype, np.floating) else arr.astype(np.float64)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reverse numpy broadcasting: reduce gradient back to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gdim, sdim) in enumerate(zip(g.shape, shape)):
        if sdim == 1 and gdim != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
        return out
    return Tensor(data)


# -- primitive ops ------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a = _wrap(a, getattr(b, "dtype", None))
    b = _wrap(b, a.dtype)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _sum_to_shape(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _sum_to_shape(g, b.shape))

    return _node(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g)

    return _node(-a.data, (a,), backward)


def mul(a: Tensor, b) -> Tensor:
    a = _wrap(a, getattr(b, "dtype", None))
    b = _wrap(b, a.dtype)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _sum_to_shape(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _sum_to_shape(g * a.data, b.shape))

    return _node(out_data, (a, b), backward)


def div(a: Tensor, b) -> Tensor:
    a = _wrap(a, getattr(b, "dtype", None))
    b = _wrap(b, a.dtype)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _sum_to_shape(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _sum_to_shape(-g * a.data / (b.data * b.data), b.shape))

    return _node(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (..., k) @ (k, n) or (k,), 1D @ 2D, or batched
    (..., m, k) @ (..., k, n) with equal batch dims."""
    if b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul batch mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = np.multiply.outer(g, b.data) if b.data.ndim == 1 else g @ b.data.swapaxes(-1, -2)
            _accumulate(a, ga)
        if b.requires_grad:
            if b.data.ndim > 2:
                gb = a.data.swapaxes(-1, -2) @ g
            else:  # fold a's leading dims into its rows
                a2 = a.data.reshape(-1, a.data.shape[-1])
                gb = a2.T @ g.reshape(a2.shape[0], *b.data.shape[1:])
            _accumulate(b, gb)

    return _node(out_data, (a, b), backward)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def backward(g):
        _accumulate(a, g.swapaxes(ax1, ax2))

    return _node(a.data.swapaxes(ax1, ax2), (a,), backward)


def transpose(a: Tensor) -> Tensor:
    return swapaxes(a, -1, -2)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _node(out_data, (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g / a.data)

    return _node(np.log(a.data), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / out_data)

    return _node(out_data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g * np.sign(a.data))

    return _node(np.abs(a.data), (a,), backward)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather `indices` along `axis`; a repeated index accumulates its gradients."""
    indices = np.asarray(indices, dtype=np.intp)
    axis = axis % a.data.ndim
    where = (slice(None),) * axis + (indices,)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, where, g)
        _accumulate(a, full)

    return _node(a.data[where], (a,), backward)


# -- composed ops --------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form), differentiable everywhere."""
    inner = mul(add(a, mul(mul(mul(a, a), a), 0.044715)), _GELU_C)
    return mul(mul(a, add(tanh(inner), 1.0)), 0.5)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax with detached max-shift; arbitrarily large inputs do not overflow."""
    if x.data.shape[axis] == 0:
        raise ValueError("empty softmax axis")
    shift = np.max(x.data, axis=axis, keepdims=True)
    e = exp(add(x, Tensor(-shift)))
    return div(e, reduce_sum(e, axis=axis, keepdims=True))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.shape[axis] == 0:
        raise ValueError("empty softmax axis")
    shift = np.max(x.data, axis=axis, keepdims=True)
    xs = add(x, Tensor(-shift))
    return add(xs, neg(log(reduce_sum(exp(xs), axis=axis, keepdims=True))))


# Squared-eps guard: unit-scale vectors are untouched (1 + 1e-24 rounds to 1),
# an exactly-zero vector normalizes to zero instead of NaN.
NORM_EPS_SQ = 1e-24


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    norm = sqrt(add(reduce_sum(mul(x, x), axis=axis, keepdims=True), NORM_EPS_SQ))
    return div(x, norm)


# -- gradient checking ----------------------------------------------------


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
