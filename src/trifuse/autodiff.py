"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

A small tape: every differentiable op produces a `Tensor` that remembers its
parent tensors and a closure pushing the incoming gradient back to them.
Calling `backward()` on a scalar walks the tape in reverse topological order
and accumulates gradients additively, so a tensor used twice receives the sum
of both branch gradients.

Gradients are stored without a copy: a tensor's first gradient is the array
its child's backward pass produced (cast only when the dtype differs), so one
array may be the `.grad` of several tensors and also be read by a backward
pass still to run. The rule that keeps this safe: nothing writes into a
`.grad` array in place (no backward closure, no clipping, no optimizer);
whoever changes a gradient assigns a new array, as `_accumulate` itself does
from the second gradient on. Some backward passes recompute an array of their
forward from the node's inputs and parameters instead of keeping it, so a
second rule: nothing a backward recomputes from may be written in place
between the forward and that backward. Adam, which writes the parameters in
place, steps only after backward.

Only the ops needed by the fusion stacks, the scorer and the training losses
are provided. The transformer sublayers and the nonlinearities are single
tape nodes with closed-form backward passes. Each keeps only what its
backward cannot recompute from the inputs it holds anyway:
- `linear` (x @ w + b) keeps nothing more;
- `layer_norm` keeps 1/sigma and recomputes the normalized input from x;
- `feed_forward` (linear, the smooth GELU in tanh form, linear) keeps
  nothing more and recomputes the (..., 4d) hidden layer;
- `attention` (multi-head scaled dot-product attention of projected queries,
  keys and values, heads split and merged inside) keeps the softmax weights;
- `softmax` keeps its output, and `logsumexp` its exponentials and their sum
  (`log_softmax` is x minus it);
- `token_logmeanexp` (the scorer's local term: cosines, log-mean-exp over
  the token axis and the 1/sharpness scale) keeps the sum of its
  exponentials and recomputes them.
A recompute repeats the forward's numpy expressions in the same order, so
its arrays, and the gradients made from them, keep their bits. Composed of
primitive ops, each node would record 2-13 nodes with a full-size temporary
apiece.

`softmax`, `logsumexp` and `attention` reduce over a C-order array with the
reduced axis in front: numpy reduces a short last axis (an attention row's 12
or 32 keys) in one slow inner loop per output, but a leading axis in a few
passes over whole contiguous rows. `softmax` and `logsumexp` make that array
as a copy, so they never write into their input. `attention` computes its scores straight
into it, and its head-merged products straight into a fresh (..., n, d)
array. `token_logmeanexp` needs no copy either: its matmul writes the token
axis in the middle of a fresh (T, m, B) buffer, and its inputs are unit-norm,
so it skips the max shift too.

Operands are shaped for BLAS: `linear` and `layer_norm` fold the leading
dims of a (B, n, k) input into one row axis, so each product is one 2-D
matrix product or mat-vec instead of B small ones, and `attention` takes the
scores of all heads of an item in one product (`_head_scores`).

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

    def backward(self) -> None:
        """Backpropagate from a scalar loss.

        Gradients accumulate into `.grad` of every reachable leaf with
        `requires_grad`. An op node drops its gradient as soon as its closure
        has run, so intermediate gradients do not outlive their use. A second
        backward from the same loss node raises; backward from a *different*
        loss accumulates into the shared leaves, and starts a shared op node
        from zero.
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
                node.grad = None

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
    """Add `g` to `t.grad`; a first gradient is stored as is (module docstring)."""
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
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
    """Matrix product: (..., k) @ (k, n), or batched (..., m, k) @ (..., k, n)
    with equal batch dims. The right operand has at least 2 dims."""
    if b.data.ndim < 2:
        raise ValueError(f"matmul needs a right operand with at least 2 dims, got {b.shape}")
    if b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul batch mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
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


# -- single-node nonlinearities ---------------------------------------------


def _leading(x: np.ndarray, axis: int) -> np.ndarray:
    """A C-order copy of `x` with `axis` moved to the front (see the module
    docstring). Not `np.ascontiguousarray`: for a leading `axis` that returns
    `x` itself, and the caller writes into the result."""
    if x.shape[axis] == 0:
        raise ValueError("empty softmax axis")
    return np.moveaxis(x, axis, 0).copy()


def _softmax_leading(y: np.ndarray) -> np.ndarray:
    """Softmax over axis 0, in place, with a max shift."""
    y -= y.max(axis=0)
    np.exp(y, out=y)
    y /= y.sum(axis=0)
    return y


def _softmax_leading_grad(g: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The gradient of the scores, given `g`, the gradient of their softmax
    `y` over axis 0; written into `out` when given (which may be `g`)."""
    out = np.subtract(g, (g * y).sum(axis=0), out=out)
    out *= y
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax with a max shift; arbitrarily large inputs do not overflow, and
    a -inf entry (a masked key) gets weight exactly 0."""
    y = _softmax_leading(_leading(x.data, axis))

    def backward(g):
        _accumulate(x, np.moveaxis(_softmax_leading_grad(np.moveaxis(g, axis, 0), y), 0, axis))

    return _node(np.moveaxis(y, 0, axis), (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log(sum(exp(x))) along `axis`, shifted by the (constant) maximum."""
    e = _leading(x.data, axis)
    shift = e.max(axis=0)
    e -= shift
    np.exp(e, out=e)
    total = e.sum(axis=0)
    out_data = np.log(total)
    out_data += shift
    if keepdims:
        out_data = np.expand_dims(out_data, axis)

    def backward(g):
        if keepdims:
            g = np.squeeze(g, axis)
        _accumulate(x, np.moveaxis(e * (g / total), 0, axis))

    return _node(out_data, (x,), backward)


def token_logmeanexp(q: Tensor, tokens: Tensor, sharpness: float) -> Tensor:
    """(T, B) local scores (1/s) log(mean_i exp(s q_t . tokens[i, b])) of
    unit-norm (T, d) queries against unit-norm token-major (m, B, d) tokens.

    Every product is a cosine in [-1, 1], so exp(s cos) needs no max shift
    while m e^s and e^-s fit the dtype (s <= fusion.MAX_SHARPNESS in float32).
    One fresh (T, m, B) buffer holds the scaled cosines and then, in place,
    their exponentials; the gradient is two matmuls with weights e / total.
    The node keeps `total` and recomputes e in backward.
    """
    m, b, d = tokens.shape
    flat = tokens.data.reshape(m * b, d)

    def exponentials():
        e = ((q.data * sharpness) @ flat.T).reshape(q.shape[0], m, b)
        return np.exp(e, out=e)

    total = exponentials().sum(axis=1)
    out_data = np.log(total)
    out_data -= math.log(m)
    out_data *= 1.0 / sharpness

    def backward(g):
        w = exponentials()
        w /= total[:, None, :]
        w *= g[:, None, :]
        w = w.reshape(q.shape[0], m * b)
        if q.requires_grad:
            _accumulate(q, w @ flat)
        if tokens.requires_grad:
            _accumulate(tokens, (w.T @ q.data).reshape(m, b, d))

    return _node(out_data, (q, tokens), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x - logsumexp(x, axis=axis, keepdims=True)


# -- single-node transformer sublayers --------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for (..., k) inputs, a (k, n) weight and an (n,) bias. x's
    leading dims are folded into one row axis, so every product is one 2-D
    BLAS call."""
    x2 = x.data.reshape(-1, x.shape[-1])
    out_data = (x2 @ w.data).reshape(x.shape[:-1] + (w.shape[-1],))
    out_data += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, x2.T @ g2)
        if b.requires_grad:
            _accumulate(b, _sum_to_shape(g, b.shape))

    return _node(out_data, (x, w, b), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2), with the smooth GELU (tanh
    form), for (..., k) inputs, as one node. It keeps no hidden layer: the
    backward recomputes it from x, by the forward's own expressions."""
    x2 = x.data.reshape(-1, x.shape[-1])

    def hidden():
        """fc1's (rows, n) output h, t = tanh(c (h + 0.044715 h^3)) and the
        GELU 0.5 h (1 + t)."""
        h = x2 @ w1.data
        h += b1.data
        # In place, in the composite's order: t = tanh((h + h^3 * 0.044715) * c)
        t = h * h
        t *= h
        t *= 0.044715
        t += h
        t *= _GELU_C
        np.tanh(t, out=t)
        act = t + 1.0
        act *= h
        act *= 0.5
        return h, t, act

    out_data = (hidden()[2] @ w2.data).reshape(x.shape[:-1] + (w2.shape[-1],))
    out_data += b2.data

    def backward(g):
        h, t, act = hidden()
        g2 = g.reshape(-1, g.shape[-1])
        if w2.requires_grad:
            _accumulate(w2, act.T @ g2)
        if b2.requires_grad:
            _accumulate(b2, _sum_to_shape(g, b2.shape))
        del act  # one hidden-size array fewer while the slope is built
        # d/dh of 0.5 h (1 + t), in place, in the order of
        # ((h^2 * 3 * 0.044715 + 1) c (1 - t^2) h + t + 1) g_act / 2
        slope = h * h
        slope *= 3.0 * 0.044715
        slope += 1.0
        slope *= _GELU_C
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        slope *= dt
        slope *= h
        slope += t
        slope += 1.0
        slope *= g2 @ w2.data.T
        slope *= 0.5
        if x.requires_grad:
            _accumulate(x, (slope @ w1.data.T).reshape(x.shape))
        if w1.requires_grad:
            _accumulate(w1, x2.T @ slope)
        # Summed in fc1's (..., n) output shape, as `linear` summed it:
        # `_sum_to_shape` sums one leading axis at a time, so the bits depend on it.
        if b1.requires_grad:
            _accumulate(b1, _sum_to_shape(slope.reshape(x.shape[:-1] + (-1,)), b1.shape))

    return _node(out_data, (x, w1, b1, w2, b2), backward)


def _row_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v over the last axis, as one 2-D mat-vec, with a trailing axis of 1."""
    return (a.reshape(-1, a.shape[-1]) @ v).reshape(a.shape[:-1] + (1,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis. The
    means are matrix-vector products, which run several times faster than
    numpy's reduction over a short last axis; the node keeps only
    1/sqrt(var + eps), and the backward recomputes the normalized input from x."""
    mean = np.full(x.shape[-1], 1.0 / x.shape[-1], dtype=x.dtype)

    def centred():
        return x.data - _row_dot(x.data, mean)

    centred_x = centred()
    inv_std = _row_dot(centred_x * centred_x, mean)
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    centred_x *= inv_std
    out_data = centred_x * gain.data
    out_data += bias.data

    def backward(g):
        xhat = centred()
        xhat *= inv_std
        if gain.requires_grad:
            _accumulate(gain, _sum_to_shape(g * xhat, gain.shape))
        if bias.requires_grad:
            _accumulate(bias, _sum_to_shape(g, bias.shape))
        if x.requires_grad:  # in place, in the order of ((g - mean(g)) - xhat mean(g xhat)) / sigma
            gx = g * gain.data
            gxhat = gx * xhat
            centre, slope = _row_dot(gx, mean), _row_dot(gxhat, mean)
            gx -= centre
            gx -= np.multiply(xhat, slope, out=gxhat)
            gx *= inv_std
            _accumulate(x, gx)

    return _node(out_data, (x, gain, bias), backward)


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> a (..., heads, n, d / heads) view."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, c) -> (..., n, heads * c); a view where the strides allow."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


def _matmul_merged(a: np.ndarray, b: np.ndarray, heads: int) -> np.ndarray:
    """a @ b over (..., heads, n, c) operands, written straight into a fresh
    (..., n, heads * c) array: the heads merged back, with no copy."""
    out = np.empty(a.shape[:-3] + (a.shape[-2], heads * b.shape[-1]), dtype=np.result_type(a, b))
    np.matmul(a, b, out=_heads(out, heads))
    return out


def _head_scores(q: np.ndarray, k: np.ndarray, heads: int) -> np.ndarray:
    """q_h @ k_h^T for every head h of (..., m, d) queries and (..., L, d)
    keys, as a fresh key-major (L, ..., heads, m) array (module docstring).
    One matrix product per item, not per item and head: the queries enter as
    a block-diagonal (d, heads * m) matrix, and the products with its zeros
    add exactly nothing to the sums."""
    *lead, m, d = q.shape
    n, length, c = math.prod(lead), k.shape[-2], d // heads
    blocks = np.zeros((n, heads, c, heads, m), dtype=np.result_type(q, k))
    split = q.reshape(n, m, heads, c)
    for h in range(heads):
        blocks[:, h, :, h, :] = split[:, :, h, :].swapaxes(-1, -2)
    out = np.empty((length, n, heads * m), dtype=blocks.dtype)
    np.matmul(k.reshape(n, length, d), blocks.reshape(n, d, heads * m), out=out.swapaxes(0, 1))
    return out.reshape((length, *lead, heads, m))


def attention_weights(q: np.ndarray, k: np.ndarray, heads: int, mask=None) -> np.ndarray:
    """Softmax weights of projected (..., m, d) queries over projected
    (..., L, d) keys, both split into `heads` heads, as a fresh
    (L, ..., heads, m) array: the key axis leads, so the softmax reduces over
    it (module docstring). `mask` (..., L), when given, marks the valid keys;
    the others get weight exactly 0."""
    w = _head_scores(q, k, heads)
    w *= 1.0 / math.sqrt(q.shape[-1] // heads)
    if mask is not None:
        np.copyto(w, -np.inf, where=np.logical_not(np.moveaxis(mask, -1, 0))[..., None, None])
    return _softmax_leading(w)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None) -> Tensor:
    """Multi-head scaled dot-product attention: projected (..., m, d) queries
    over projected (..., L, d) keys and values with the same leading dims,
    heads split and merged inside. Returns the (..., m, d) attention output
    before the output projection. `mask` (..., L) marks the valid keys; the
    others get exactly zero weight and zero gradient; None means every key is
    valid. The backward keeps the softmax weights and views of the inputs."""
    if q.shape[:-2] != k.shape[:-2] or k.shape != v.shape:
        raise ValueError(f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    w = attention_weights(q.data, k.data, heads, mask)  # (L, ..., heads, m)
    weights = np.moveaxis(w, 0, -1)  # (..., heads, m, L)

    def backward(g):
        gs = _head_scores(g, v.data, heads)
        _softmax_leading_grad(gs, w, out=gs)
        g = _heads(g, heads)  # (..., heads, m, c)
        if v.requires_grad:
            _accumulate(v, _matmul_merged(weights.swapaxes(-1, -2), g, heads))
        gs *= 1.0 / math.sqrt(q.shape[-1] // heads)
        gs = np.ascontiguousarray(np.moveaxis(gs, 0, -1))  # (..., heads, m, L), BLAS operand
        if q.requires_grad:
            _accumulate(q, _matmul_merged(gs, _heads(k.data, heads), heads))
        # The key gradient stays a strided view of the (..., heads, c, L)
        # product: no copy, and `_sum_to_shape` sums in memory order, so a
        # C-order copy would round the key bias's gradient differently.
        if k.requires_grad:
            _accumulate(k, _merge_heads((_heads(q.data, heads).swapaxes(-1, -2) @ gs).swapaxes(-1, -2)))

    return _node(_matmul_merged(weights, _heads(v.data, heads), heads), (q, k, v), backward)


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
