"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64. A Tensor wraps an ndarray plus a closure that knows
how to push gradients to its parents; backward() walks the tape in reverse
topological order. Only the primitives the model actually needs are
implemented.

backward() frees each non-leaf gradient once that node's closure has pushed
it to its parents, so after backward() only leaves (tensors without a
closure, such as parameters) and the root hold a `grad`. Calling backward()
again on the same tape, after zeroing the leaves, gives the same leaf
gradients.

Aliasing rule: a backward closure never writes into the arrays it closed
over (forward inputs and saved intermediates) or into the incoming gradient.
Gradients are passed on and accumulated without copies. Fused closures build
their result in fresh arrays: attention keeps its softmax weights and no other
score-sized array, and gelu keeps its derivative instead of x and s. Row sums
over the last axis are BLAS matvecs or einsum, so they can differ from numpy's
pairwise `x.sum(axis=-1)` in the last ulps.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (forward-only evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad back down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- graph machinery -----------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self, seed: np.ndarray | None = None):
        """Accumulate gradients of self into every leaf on the tape; each
        non-leaf gradient is freed once its closure has used it."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.asarray(seed, dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None

    def _accum(self, g: np.ndarray):
        # No closure mutates gradient arrays in place, so aliasing is safe.
        self.grad = g if self.grad is None else self.grad + g

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, key):
        return getitem(self, key)

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ValueError("T is defined for 2-D tensors only")
        return transpose(self, (1, 0))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return tsum(self, axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _on_tape(parents) -> bool:
    """Whether an op over `parents` records a tape node."""
    return _GRAD_ENABLED and any(p.requires_grad or p._backward is not None for p in parents)


def _make(data, parents, backward) -> Tensor:
    """Build an op output; drop the tape when grad is off or no parent needs it."""
    if _on_tape(parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


# -- arithmetic primitives --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    out_data = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        a._accum(_unbroadcast(ga, a.shape))
        b._accum(_unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), backward)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            ga = np.broadcast_to(g, a.shape)
        elif keepdims:
            ga = np.broadcast_to(g, a.shape)
        else:
            ga = np.broadcast_to(np.expand_dims(g, axis), a.shape)
        a._accum(ga.astype(np.float64))

    return _make(out_data, (a,), backward)


# -- elementwise nonlinearities ----------------------------------------------


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        a._accum(g * out_data)

    return _make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        a._accum(g / a.data)

    return _make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        a._accum(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A, _GELU_B = -2.0 * _GELU_C * 0.044715, -2.0 * _GELU_C  # -2u = (A x^2 + B) x


def gelu(a: Tensor) -> Tensor:
    # tanh approximation 0.5 x (1 + tanh u), u = C (x + 0.044715 x^3), in the
    # equal form x * sigmoid(2u) = x / (1 + exp(-2u)): 1 + tanh u cancels for
    # x < -2 and is exactly 0 below x ~ -7.2. Where exp(-2u) overflows to inf,
    # sigmoid's limit 0 is the right value. Smooth, so finite-difference checks
    # behave. The cubic term is built from products: numpy's float64 pow costs
    # ~40x a multiply. On the tape the forward turns x^2 into the derivative
    # s + x s (1 - s) 2u', the one array backward keeps; off it, into the output.
    x = a.data
    sq = np.multiply(x, x, out=np.empty_like(x))  # an array also for 0-d x
    s = np.multiply(sq, _GELU_A, out=np.empty_like(x))
    s += _GELU_B
    s *= x
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    if not _on_tape((a,)):
        return Tensor(np.multiply(x, s, out=sq))
    sq *= 6.0 * _GELU_C * 0.044715  # x 2u' = x (2C + 6C 0.044715 x^2)
    sq += 2.0 * _GELU_C
    sq *= x
    out_data = np.subtract(1.0, s)
    out_data *= s
    sq *= out_data
    sq += s  # the derivative
    np.multiply(x, s, out=out_data)

    def backward(g):
        a._accum(g * sq)

    return _make(out_data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        a._accum(g * _sigmoid(x))

    return _make(out_data, (a,), backward)


# -- shape ops ----------------------------------------------------------------


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accum(g.reshape(a.shape))

    return _make(out_data, (a,), backward)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    out_data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        a._accum(g.transpose(inv))

    return _make(out_data, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accum(piece)

    return _make(out_data, tuple(tensors), backward)


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing only: with an array key, a repeated index would get
    only its last gradient; take_rows and gather_elements accumulate."""
    if any(isinstance(k, (np.ndarray, list)) for k in (key if isinstance(key, tuple) else (key,))):
        raise TypeError("getitem takes basic indices only; use take_rows or gather_elements")
    out_data = a.data[key]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        a._accum(ga)

    return _make(out_data, (a,), backward)


# -- gather / scatter ---------------------------------------------------------


def _row_sum(idx: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """out[r] = sum of values[i] over idx[i] == r; rows no index names stay 0.

    A stable sort groups equal indices and np.add.reduceat sums each group,
    which is far cheaper than np.add.at's unbuffered per-element loop. It adds
    a group's first row to a pairwise sum of the rest, so a sum can differ
    from np.add.at's running one in the last ulps. `idx` is 1-D and
    non-negative.
    """
    out = np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
    if idx.size == 0:
        return out
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_idx[1:] != sorted_idx[:-1])))
    if starts.size == idx.size:
        out[idx] = values
    else:
        out[sorted_idx[starts]] = np.add.reduceat(values[order], starts, axis=0)
    return out


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = a[idx[i]]; duplicate indices accumulate in the backward pass."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def backward(g):
        a._accum(_row_sum(idx, g, a.shape[0]))

    return _make(out_data, (a,), backward)


def scatter_rows(base: Tensor, idx: np.ndarray, values: Tensor) -> Tensor:
    """Functional row replacement: out = base with out[idx] = values.

    `idx` must not contain duplicates, otherwise the forward value (last write
    wins) and the gradient (sum over writes) would disagree.
    """
    idx = np.asarray(idx, dtype=np.intp)
    values = _as_tensor(values)
    out_data = base.data.copy()
    out_data[idx] = values.data

    def backward(g):
        gb = g.copy()
        gb[idx] = 0.0
        base._accum(gb)
        values._accum(g[idx])

    return _make(out_data, (base, values), backward)


def segment_sum(a: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of a (E, d) tensor into num_segments buckets."""
    seg = np.asarray(seg, dtype=np.intp)
    out_data = _row_sum(seg, a.data, num_segments)

    def backward(g):
        a._accum(g[seg])

    return _make(out_data, (a,), backward)


def gather_elements(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """out[k] = a[rows[k], cols[k]] for a 2-D tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out_data = a.data[rows, cols]

    def backward(g):
        flat = _row_sum(rows * a.shape[1] + cols, g, a.size)
        a._accum(flat.reshape(a.shape))

    return _make(out_data, (a,), backward)


# -- fused numerical primitives ------------------------------------------------


def _softmax_(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the fresh array x, in place when x is
    C-contiguous. The row max goes one column at a time and the row sums are
    one BLAS matvec: numpy's per-row reductions cost far more on short rows."""
    rows = x.reshape(-1, x.shape[-1])
    top = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        np.maximum(top, rows[:, j], out=top)
    rows -= top[:, None]
    np.exp(rows, out=rows)
    rows /= (rows @ np.ones(rows.shape[1]))[:, None]
    return rows.reshape(x.shape)


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis. `mask` is an additive constant array
    (0 for keep, -inf for drop) broadcastable to a's shape."""
    out_data = _softmax_(a.data.copy() if mask is None else a.data + mask)

    def backward(g):
        ga = g - np.einsum("...i,...i->...", g, out_data)[..., None]
        ga *= out_data
        a._accum(ga)

    return _make(out_data, (a,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(hd) + mask) v as one tape node, for
    (N, T, d) q over (N, T', d) k and v; `mask` is an additive (N, T') array
    (0 keep, -inf drop). Heads are strided views of d = heads * hd columns;
    backward keeps the weights, the one score-sized array."""
    hd = q.shape[-1] // heads
    scale = 1.0 / np.sqrt(hd)

    def split(x):  # (N, L, d) -> (N, heads, L, hd) view
        return x.reshape(x.shape[0], x.shape[1], heads, hd).transpose(0, 2, 1, 3)

    kh, vh = split(k.data), split(v.data)
    w = split(q.data * scale) @ kh.transpose(0, 1, 3, 2)
    if mask is not None:
        w += mask[:, None, None, :]
    w = _softmax_(w)
    out_data = np.empty(q.shape)
    np.matmul(w, vh, out=split(out_data))

    def backward(g):
        gh = split(g)
        gq, gk, gv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
        np.matmul(w.transpose(0, 1, 3, 2), gh, out=split(gv))
        gs = gh @ vh.transpose(0, 1, 3, 2)  # then the softmax Jacobian and the scale
        gs -= np.einsum("...i,...i->...", gs, w)[..., None]
        gs *= w
        gs *= scale
        np.matmul(gs, kh, out=split(gq))
        np.matmul(gs.transpose(0, 1, 3, 2), split(q.data), out=split(gk))
        q._accum(gq)
        k._accum(gk)
        v._accum(gv)

    return _make(out_data, (q, k, v), backward)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    shift = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - shift)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(np.log(s) + shift, axis=axis)
    soft = e / s

    def backward(g):
        a._accum(np.expand_dims(g, axis) * soft)

    return _make(out_data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    n = a.shape[-1]
    x = a.data.reshape(-1, n)
    mean_of = np.full(n, 1.0 / n)
    xhat = x - (x @ mean_of)[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / n + eps)[:, None]
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g):
        g2 = g.reshape(-1, n)
        # d/dx of (x - mu) / sqrt(var + eps), all reductions over last axis
        ga = g2 * gain.data
        dot = np.einsum("ij,ij->i", ga, xhat) / n
        ga -= (ga @ mean_of)[:, None]
        ga -= xhat * dot[:, None]
        ga *= inv
        a._accum(ga.reshape(a.shape))
        gain._accum(np.einsum("ij,ij->j", g2, xhat))
        bias._accum(np.ones(len(g2)) @ g2)

    return _make(out_data.reshape(a.shape), (a, gain, bias), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) as one tape node, flattening leading axes so numpy issues
    one big GEMM; the bias is added into the GEMM's output in place."""
    x2d = x.data.reshape(-1, x.shape[-1])
    out_data = x2d @ w.data
    if b is not None:
        out_data += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        x._accum((g2 @ w.data.T).reshape(x.shape))
        w._accum(x2d.T @ g2)
        if b is not None:
            b._accum(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data.reshape(x.shape[:-1] + (w.shape[-1],)), parents, backward)
