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
are provided; `matmul` takes 2-D right operands only, the one kind they
multiply by. The nonlinearities, `l2_normalize` and the whole pre-norm
cross-attention block are single tape nodes with closed-form backward passes
(so is `losses.soft_albef_loss`, which keeps its (b, b) gradient). Each keeps
only what its backward cannot recompute from the inputs it holds anyway:
- `cross_attention_block` (layer norms, query/key/value projections,
  multi-head attention, output projection, residual, layer norm, the
  feed-forward layer and residual) folds each layer norm's gain and bias
  into the projection it feeds (`_fold`: diag(gain) W and bias W + b), so it
  only standardizes its inputs (`standardize`, whose variance guard is the
  one constant `LAYER_NORM_EPS`) and projects them with the folded weights.
  It keeps the three layer norms' 1/sigma, the mid-block residual, the
  softmax weights and the attention output, and recomputes the standardized
  inputs, the folded weights, the projections and the (..., 4d) hidden
  layer. Its backward takes the gain, bias, weight and bias gradients from
  the folded weights' gradients (`_unfold`, d x d products), and skips the
  input-gradient products of a query or key/value input that needs no
  gradient. Its sublayers `linear`, `standardize`, `attention_weights` with
  `attention`, and `feed_forward` (linear, the smooth GELU in tanh form,
  linear) are numpy functions, each with a `*_backward`, not nodes;
- `softmax` keeps its output, and `logsumexp` its exponentials and their sum
  (`log_softmax` is x minus it);
- `l2_normalize` keeps the norms;
- `token_logmeanexp` (the scorer's local term: cosines, log-mean-exp over
  the token axis and the 1/sharpness scale) keeps the sum of its
  exponentials and recomputes them.
A recompute repeats the forward's numpy expressions in the same order, so
its arrays, and the gradients made from them, keep their bits. Composed of
primitive ops, a nonlinearity would record 2-13 nodes and a block dozens,
with a full-size temporary apiece.

`softmax`, `logsumexp` and `attention_weights` reduce over a C-order array
with the reduced axis in front: numpy reduces a short last axis (an attention
row's 12 or 32 keys) in one slow inner loop per output, but a leading axis in
a few passes over whole contiguous rows. `softmax` and `logsumexp` make that
array as a copy, so they never write into their input. `attention_weights`
computes its scores straight into it, and `attention` its head-merged
products straight into a fresh (..., n, d) array. `token_logmeanexp` needs no
copy either: its matmul writes the token axis in the middle of a fresh
(T, m, B) buffer, and its inputs are unit-norm, so it skips the max shift too.

Operands are shaped for BLAS: `linear` and `standardize` fold the leading
dims of a (B, n, k) input into one row axis, so each product is one 2-D
matrix product or mat-vec instead of B small ones, and `attention_weights`
takes the scores of all heads of an item in one product (`_head_scores`).
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
    """Matrix product (..., k) @ (k, n) of any left operand and a 2-D right
    operand; the backward folds a's leading dims into its rows."""
    if b.data.ndim != 2:
        raise ValueError(f"matmul needs a 2-D right operand, got {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            _accumulate(a, ga)
        if b.requires_grad:
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


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
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


# -- the cross-attention block: one tape node ---------------------------------
#
# The sublayers are numpy functions, the forward and backward halves of the
# block node at the end of this section; none of them records a tape node.


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b for (..., k) inputs, a (k, n) weight and an (n,) bias. x's
    leading dims are folded into one row axis, so the product is one 2-D BLAS
    call."""
    out = (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[-1],))
    out += b
    return out


def linear_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray, input_grad: bool = True) -> tuple:
    """The gradients of `linear(x, w, b)` with respect to x (None unless
    `input_grad`), w and b, given the gradient `g` of its output."""
    g2 = g.reshape(-1, g.shape[-1])
    gx = (g2 @ w.T).reshape(x.shape) if input_grad else None
    return gx, x.reshape(-1, x.shape[-1]).T @ g2, _sum_to_shape(g, (w.shape[-1],))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_hidden(x2: np.ndarray, w1: np.ndarray, b1: np.ndarray) -> tuple:
    """fc1's (rows, n) output h, t = tanh(c (h + 0.044715 h^3)) and the GELU
    0.5 h (1 + t), for (rows, k) inputs."""
    h = x2 @ w1
    h += b1
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


def feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """linear(gelu(linear(x, w1, b1)), w2, b2), with the smooth GELU (tanh
    form), for (..., k) inputs."""
    out = (_gelu_hidden(x.reshape(-1, x.shape[-1]), w1, b1)[2] @ w2).reshape(x.shape[:-1] + (w2.shape[-1],))
    out += b2
    return out


def feed_forward_backward(g: np.ndarray, x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray) -> tuple:
    """The gradients of `feed_forward(x, w1, b1, w2, b2)` with respect to x,
    w1, b1, w2 and b2, given the gradient `g` of its output. The hidden
    layer is recomputed from x by the forward's own expressions."""
    x2 = x.reshape(-1, x.shape[-1])
    h, t, act = _gelu_hidden(x2, w1, b1)
    g2 = g.reshape(-1, g.shape[-1])
    gw2, gb2 = act.T @ g2, _sum_to_shape(g, (w2.shape[-1],))
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
    slope *= g2 @ w2.T
    slope *= 0.5
    # b1's gradient is summed in fc1's (..., n) output shape: `_sum_to_shape`
    # sums one leading axis at a time, so the bits depend on it.
    gb1 = _sum_to_shape(slope.reshape(x.shape[:-1] + (-1,)), (w1.shape[-1],))
    return (slope @ w1.T).reshape(x.shape), x2.T @ slope, gb1, gw2, gb2


def _row_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v over the last axis, as one 2-D mat-vec, with a trailing axis of 1."""
    return (a.reshape(-1, a.shape[-1]) @ v).reshape(a.shape[:-1] + (1,))


def _mean_weights(x: np.ndarray) -> np.ndarray:
    """The vector whose `_row_dot` with x is the mean over x's last axis."""
    return np.full(x.shape[-1], 1.0 / x.shape[-1], dtype=x.dtype)


def normalized(x: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """x-hat = (x - mean) * `inv_std` over the last axis; with the forward's
    1/sigma, the forward's x-hat to the bit."""
    xhat = x - _row_dot(x, _mean_weights(x))
    xhat *= inv_std
    return xhat


# The variance guard of every layer norm: a constant row maps to zero.
LAYER_NORM_EPS = 1e-5


def standardize(x: np.ndarray) -> tuple:
    """A layer norm without its gain and bias: x-hat = (x - mean) /
    sqrt(var + LAYER_NORM_EPS) over the last axis, and the (..., 1)
    1/sqrt(var + LAYER_NORM_EPS) that `normalized` rebuilds x-hat from. The
    means are matrix-vector products, which run several times faster than
    numpy's reduction over a short last axis."""
    xhat = x - _row_dot(x, _mean_weights(x))
    inv_std = _row_dot(xhat * xhat, _mean_weights(x))
    inv_std += LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    return xhat, inv_std


def standardize_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """The gradient of `standardize(x)` with respect to x, given the gradient
    `g` of its x-hat output, which it overwrites, and x's `normalized` x-hat."""
    # In place, in the order of ((g - mean(g)) - xhat mean(g xhat)) / sigma
    mean = _mean_weights(xhat)
    gxhat = g * xhat
    centre, slope = _row_dot(g, mean), _row_dot(gxhat, mean)
    g -= centre
    g -= np.multiply(xhat, slope, out=gxhat)
    g *= inv_std
    return g


def _fold(gain: np.ndarray, bias: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple:
    """The weight diag(gain) w and bias bias @ w + b of `linear(x-hat * gain
    + bias, w, b)` as a linear map of x-hat: a layer norm's affine folded into
    the projection it feeds."""
    return gain[:, None] * w, bias @ w + b


def _unfold(gw: np.ndarray, gb: np.ndarray, gain: np.ndarray, bias: np.ndarray, w: np.ndarray) -> tuple:
    """The gradients of gain, bias, w and b, given the gradients `gw` and
    `gb` of the `_fold`ed weight and bias: d x d products, no row pass."""
    return (gw * w).sum(axis=1), w @ gb, gain[:, None] * gw + np.outer(bias, gb), gb


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
    the others get weight exactly 0: their scores become -inf by adding a
    broadcast 0 / -inf bias, which is faster than a masked copy and changes
    no weight's bits (x + 0 differs from x only for x = -0, whose exp is 1)."""
    w = _head_scores(q, k, heads)
    w *= 1.0 / math.sqrt(q.shape[-1] // heads)
    if mask is not None:
        w += np.where(np.moveaxis(mask, -1, 0), 0.0, -np.inf).astype(w.dtype)[..., None, None]
    return _softmax_leading(w)


def attention(w: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """The (..., m, d) multi-head attention output, heads merged, of
    `attention_weights` w over projected (..., L, d) values."""
    return _matmul_merged(np.moveaxis(w, 0, -1), _heads(v, heads), heads)


def attention_backward(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray, w: np.ndarray,
                       heads: int) -> tuple:
    """The gradients of `attention(attention_weights(q, k, heads, mask), v,
    heads)` with respect to q, k and v, given the gradient `g` of its output
    and its weights `w`. A masked key gets exactly zero gradient."""
    gs = _head_scores(g, v, heads)
    _softmax_leading_grad(gs, w, out=gs)
    gv = _matmul_merged(np.moveaxis(w, 0, -1).swapaxes(-1, -2), _heads(g, heads), heads)
    gs *= 1.0 / math.sqrt(q.shape[-1] // heads)
    gs = np.ascontiguousarray(np.moveaxis(gs, 0, -1))  # (..., heads, m, L), BLAS operand
    gq = _matmul_merged(gs, _heads(k, heads), heads)
    # The key gradient stays a strided view of the (..., heads, c, L)
    # product: no copy, and `_sum_to_shape` sums in memory order, so a
    # C-order copy would round the key bias's gradient differently.
    gk = _merge_heads((_heads(q, heads).swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
    return gq, gk, gv


def cross_attention_block(q: Tensor, kv: Tensor, mask, params, heads: int) -> Tensor:
    """The pre-norm cross-attention block as one tape node:

        x   = q + linear(attention(ln_q(q) Wq, ln_kv(kv) Wk, ln_kv(kv) Wv), Wo)
        out = x + feed_forward(ln_ff(x))

    for (..., m, d) queries `q` and (..., L, d) keys and values `kv` with the
    same leading dims. `mask` (..., L) marks the valid keys; the others get
    exactly zero weight and gradient; None means every key is valid.
    `params` are the block's 18 tensors in `nn.CrossAttentionBlock`'s
    parameter order: gain and bias of ln_q and of ln_kv, weight and bias of
    Wq, Wk, Wv and Wo, gain and bias of ln_ff, weight and bias of the
    feed-forward layer's two linear maps.

    Each layer norm's gain and bias are folded into the projection it feeds
    (`_fold` into Wq, Wk and Wv, and fc1), so the forward standardizes each
    input and projects it with the folded weights; the backward refolds
    them, never kept, and takes the parameter gradients from the folded
    ones' (`_unfold`). The node keeps its inputs, the three 1/sigma, the
    mid-block residual x, the softmax weights and the attention output: each
    product of many small per-head matrices, slow to recompute. The backward
    recomputes the standardized inputs and the projections from them, and
    skips the input-gradient products of `q` or `kv` when it needs none.
    """
    if q.shape[:-2] != kv.shape[:-2]:
        raise ValueError(f"block shape mismatch: queries {q.shape}, keys and values {kv.shape}")
    (gain_q, bias_q, gain_kv, bias_kv, wq, bq, wk, bk, wv, bv, wo, bo,
     gain_ff, bias_ff, w1, b1, w2, b2) = (p.data for p in params)

    def project(xhat_q, xhat_kv):
        """The folded (weight, bias) of Wq, Wk and Wv, and the standardized
        inputs' projections by them."""
        folded = _fold(gain_q, bias_q, wq, bq), _fold(gain_kv, bias_kv, wk, bk), _fold(gain_kv, bias_kv, wv, bv)
        return folded, [linear(xhat, *f) for xhat, f in zip((xhat_q, xhat_kv, xhat_kv), folded)]

    xhat_q, inv_q = standardize(q.data)
    xhat_kv, inv_kv = standardize(kv.data)
    _, (qp, kp, vp) = project(xhat_q, xhat_kv)
    w = attention_weights(qp, kp, heads, mask)
    pooled = attention(w, vp, heads)
    x = q.data + linear(pooled, wo, bo)
    del xhat_q, xhat_kv, qp, kp, vp
    xhat, inv_ff = standardize(x)
    out_data = x + feed_forward(xhat, *_fold(gain_ff, bias_ff, w1, b1), w2, b2)

    def backward(g):
        xhat = normalized(x, inv_ff)
        fw1, fb1 = _fold(gain_ff, bias_ff, w1, b1)
        g_xhat, gfw1, gfb1, gw2, gb2 = feed_forward_backward(g, xhat, fw1, fb1, w2)
        g_x = standardize_backward(g_xhat, xhat, inv_ff)
        g_x += g  # out = x + feed_forward(...)
        del xhat, g_xhat
        xhat_q, xhat_kv = normalized(q.data, inv_q), normalized(kv.data, inv_kv)
        ((fq, _), (fk, _), (fv, _)), (qp, kp, vp) = project(xhat_q, xhat_kv)
        g_att, gwo, gbo = linear_backward(g_x, pooled, wo)
        g_qp, g_kp, g_vp = attention_backward(g_att, qp, kp, vp, w, heads)
        del g_att, qp, kp, vp
        g_q, gfq, gfbq = linear_backward(g_qp, xhat_q, fq, q.requires_grad)
        g_kv, gfk, gfbk = linear_backward(g_kp, xhat_kv, fk, kv.requires_grad)
        g_v, gfv, gfbv = linear_backward(g_vp, xhat_kv, fv, kv.requires_grad)
        ggain_q, gbias_q, gwq, gbq = _unfold(gfq, gfbq, gain_q, bias_q, wq)
        ggain_k, gbias_k, gwk, gbk = _unfold(gfk, gfbk, gain_kv, bias_kv, wk)
        ggain_v, gbias_v, gwv, gbv = _unfold(gfv, gfbv, gain_kv, bias_kv, wv)
        ggain_ff, gbias_ff, gw1, gb1 = _unfold(gfw1, gfb1, gain_ff, bias_ff, w1)
        # the key and value projections read the same standardized kv
        grads = (ggain_q, gbias_q, ggain_k + ggain_v, gbias_k + gbias_v, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                 ggain_ff, gbias_ff, gw1, gb1, gw2, gb2)
        for p, gp in zip(params, grads):
            if p.requires_grad:
                _accumulate(p, gp)
        if q.requires_grad:  # the residual's gradient, then ln_q's
            _accumulate(q, g_x)
            _accumulate(q, standardize_backward(g_q, xhat_q, inv_q))
        if kv.requires_grad:
            g_kv += g_v
            _accumulate(kv, standardize_backward(g_kv, xhat_kv, inv_kv))

    return _node(out_data, (q, kv, *params), backward)


# Squared-eps guard: unit-scale vectors are untouched (1 + 1e-24 rounds to 1),
# an exactly-zero vector normalizes to zero instead of NaN.
NORM_EPS_SQ = 1e-24


def unit_rows(x: np.ndarray) -> tuple:
    """x / |x| over the last axis, and the (..., 1) norms sqrt(|x|^2 +
    NORM_EPS_SQ) it was divided by."""
    norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True) + NORM_EPS_SQ)
    return x / norm, norm


def l2_normalize(x: Tensor) -> Tensor:
    """`unit_rows` as one node. The gradient of y = x / n, with n the norm,
    is (g - y (y . g)) / n; the node keeps n."""
    y, norm = unit_rows(x.data)

    def backward(g):
        gx = g - y * _row_dot(g * y, np.ones(y.shape[-1], y.dtype))
        gx /= norm
        _accumulate(x, gx)

    return _node(y, (x,), backward)
