"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus a closure that knows how to push gradients
to its parents; backward() walks the tape in reverse topological order. Only
the primitives the model actually needs are implemented.

Dtype rule: a Tensor keeps the floating dtype it is given (other input is
made float64, numpy's default), and an op's output and the gradients it
passes back have its tensor operands' dtype. A constant operand (a Python
scalar or an ndarray, such as a mask) takes the dtype of the tensor it meets,
so float32 stays float32 through every op. Model parameters are float32
(encoder.init_params); the oracle and finite-difference tests run the same
ops in float64. Sums accumulate in the operands' dtype: numpy's pairwise
sums, and BLAS dot products for matmuls and for row sums. Row sums over the
last axis are BLAS matvecs or einsum, so they can differ from numpy's
pairwise `x.sum(axis=-1)` in the last ulps.

backward() frees each non-leaf gradient once that node's closure has pushed
it to its parents, so afterwards only leaves and the root hold a `grad`; a
second backward() on the same tape, after zeroing the leaves, gives the same
leaf gradients. A backward closure never writes into the arrays it closed
over or into the incoming gradient, so gradients pass on without copies. No
op writes into its inputs but post_norm_block given x's buffer as `out`.

A fused node keeps only what its backward cannot rebuild cheaply: embed
keeps only its ids, gelu its derivative, stage_aggregate the neighbor mean,
and post_norm_block, the whole post-norm Transformer block, LN2's inv, one
float per row. Its backward rebuilds LN2's xhat from the block's output as
(out - bias) / gain, and recomputes the attention sublayer and the MLP's
hidden layer from the block's input, one tile of sequences at a time. A
fused node's output has the bits of the ops it fuses; its gradients have
them too, apart from the block's, which the rebuilt xhat moves by rounding.
The block plans its tiles itself, the same on and off the tape: sequences
sorted by length, each tile trimmed of PAD.
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
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

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
        self.grad = np.asarray(seed, dtype=self.data.dtype)
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
        return add(self, _as_tensor(other, self))

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    def __getitem__(self, key):
        return getitem(self, key)

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ValueError("T is defined for 2-D tensors only")
        return transpose(self, (1, 0))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    """x as a Tensor; a constant meeting the tensor `like` takes its dtype
    (numpy 2 would promote float32 times a float64 array, even a 0-d one)."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x if like is None else np.asarray(x, dtype=like.data.dtype))


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
        a._accum(ga.astype(a.data.dtype))

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


def _gelu_(x: np.ndarray, fresh: bool, derivative: bool):
    # (gelu(x), its derivative or None), by the tanh approximation 0.5 x (1 +
    # tanh u), u = C (x + 0.044715 x^3), in the equal form x * sigmoid(2u) =
    # x / (1 + exp(-2u)): 1 + tanh u cancels for x < -2 and is exactly 0 below
    # x ~ -7.2. Where exp(-2u) overflows to inf, sigmoid's limit 0 is the right
    # value. Smooth, so finite-difference checks behave. The cubic term is built
    # from products: numpy's float64 pow costs ~40x a multiply. x^2 turns into
    # the derivative s + x s (1 - s) 2u' or, without one, into the output. The
    # output goes over x when x is a `fresh` scratch array.
    sq = np.multiply(x, x, out=np.empty_like(x))  # an array also for 0-d x
    s = np.multiply(sq, _GELU_A, out=np.empty_like(x))
    s += _GELU_B
    s *= x
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    if not derivative:
        return np.multiply(x, s, out=x if fresh else sq), None
    sq *= 6.0 * _GELU_C * 0.044715  # x 2u' = x (2C + 6C 0.044715 x^2)
    sq += 2.0 * _GELU_C
    sq *= x
    tmp = np.subtract(1.0, s)
    tmp *= s
    sq *= tmp
    sq += s  # the derivative
    return np.multiply(x, s, out=x if fresh else tmp), sq


def gelu(a: Tensor) -> Tensor:
    out_data, deriv = _gelu_(a.data, False, _on_tape((a,)))

    def backward(g):
        a._accum(g * deriv)

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
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
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


def embed(table: Tensor, pos: Tensor, ids: np.ndarray) -> Tensor:
    """table[ids] + pos[:T] for (N, T) ids as one tape node that keeps only the
    ids, with the bits of take_rows (repeated ids sum), reshape and the add."""
    ids, t = np.asarray(ids, dtype=np.intp), ids.shape[1]
    out_data = table.data[ids]
    out_data += pos.data[:t]

    def backward(g):
        table._accum(_row_sum(ids.reshape(-1), g.reshape(-1, g.shape[-1]), len(table.data)))
        gp = np.zeros_like(pos.data)
        gp[:t] = g.sum(axis=0)
        pos._accum(gp)

    return _make(out_data, (table, pos), backward)


def scatter_rows(base: Tensor, idx: np.ndarray, values: Tensor) -> Tensor:
    """Functional row replacement: out = base with out[idx] = values.

    `idx` must not contain duplicates, otherwise the forward value (last write
    wins) and the gradient (sum over writes) would disagree.
    """
    idx = np.asarray(idx, dtype=np.intp)
    values = _as_tensor(values, base)
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


def stage_aggregate(cls_all: Tensor, n: int, nbr_flat: np.ndarray, nbr_seg: np.ndarray,
                    w1: Tensor, w2: Tensor) -> Tensor:
    """mean_nbr @ w1.T + cls_all[:n] @ w2.T, a stage's aggregation, as one tape
    node that keeps only mean_nbr: row i is the mean of the rows nbr_flat[j]
    with nbr_seg[j] == i, or 0 without any. Output and gradients have the
    bits of take_rows, segment_sum, the 1/count scale and two matmuls."""
    counts = np.bincount(nbr_seg, minlength=n)[:, None]
    scale = (1.0 / np.maximum(counts, 1.0)).astype(cls_all.dtype)
    mean = _row_sum(nbr_seg, cls_all.data[nbr_flat], n)
    mean *= scale
    out_data = mean @ w1.data.T
    out_data += cls_all.data[:n] @ w2.data.T

    def backward(g):
        g_mean = g @ w1.data
        g_mean *= scale
        g_cls = _row_sum(nbr_flat, g_mean[nbr_seg], len(cls_all.data))
        g_cls[:n] += g @ w2.data
        cls_all._accum(g_cls)
        w1._accum((mean.T @ g).T)
        w2._accum((cls_all.data[:n].T @ g).T)

    return _make(out_data, (cls_all, w1, w2), backward)


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
    rows /= (rows @ np.ones(rows.shape[1], rows.dtype))[:, None]
    return rows.reshape(x.shape)


def _attention_weights(q: np.ndarray, k: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """softmax(q @ k^T + mask) over the keys, a fresh (S, heads, Tq, T') array
    for scaled queries q and keys k, with `mask` additive (S, T') or None."""
    w = q @ k.transpose(0, 1, 3, 2)
    if mask is not None:
        w += mask[:, None, None, :]
    return _softmax_(w)


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis. `mask` is an additive constant array
    (0 for keep, -inf for drop) broadcastable to a's shape."""
    x = a.data.copy()
    if mask is not None:
        x += mask  # in place: the mask takes a's dtype
    out_data = _softmax_(x)

    def backward(g):
        ga = g - np.einsum("...i,...i->...", g, out_data)[..., None]
        ga *= out_data
        a._accum(ga)

    return _make(out_data, (a,), backward)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    shift = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - shift)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(np.log(s) + shift, axis=axis)
    soft = e / s

    def backward(g):
        a._accum(np.expand_dims(g, axis) * soft)

    return _make(out_data, (a,), backward)


def _layer_norm_(x: np.ndarray, gain: Tensor, bias: Tensor, into=(None, None, None)):
    """(out, xhat, inv) of layer_norm over the rows of the 2-D x, written into
    the arrays of `into` where given."""
    n = x.shape[1]
    out, xhat, inv = into
    xhat = np.subtract(x, (x @ np.full(n, 1.0 / n, x.dtype))[:, None], out=xhat)
    inv = np.divide(1.0, np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / n + 1e-12)[:, None],
                    out=inv)
    xhat *= inv
    out = np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return out, xhat, inv


def _layer_norm_grad(g, xhat, inv, gain: Tensor, bias: Tensor) -> np.ndarray:
    """Accumulate gain's and bias's gradients from the 2-D g; return x's."""
    n = xhat.shape[1]
    # d/dx of (x - mu) / sqrt(var + eps), all reductions over rows
    ga = g * gain.data
    dot = np.einsum("ij,ij->i", ga, xhat) / n
    ga -= (ga @ np.full(n, 1.0 / n, ga.dtype))[:, None]
    ga -= xhat * dot[:, None]
    ga *= inv
    gain._accum(np.einsum("ij,ij->j", g, xhat))
    bias._accum(np.ones(len(g), g.dtype) @ g)
    return ga


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis (variance eps 1e-12), then scale and shift."""
    n = a.shape[-1]
    out_data, xhat, inv = _layer_norm_(a.data.reshape(-1, n), gain, bias)

    def backward(g):
        a._accum(_layer_norm_grad(g.reshape(-1, n), xhat, inv, gain, bias).reshape(a.shape))

    return _make(out_data.reshape(a.shape), (a, gain, bias), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) as one tape node, flattening leading axes so numpy issues
    one big GEMM; the bias is added into the GEMM's output in place."""
    x2d = x.data.reshape(-1, x.shape[-1])
    out_data = x2d @ w.data
    if b is not None:
        out_data += b.data

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        x._accum((g @ w.data.T).reshape(x.shape))
        w._accum(x2d.T @ g)
        if b is not None:
            b._accum(np.ones(len(g), g.dtype) @ g)

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data.reshape(x.shape[:-1] + (w.shape[-1],)), parents, backward)


# Rows per MLP tile (attention takes twice as many, of d-wide rows): at d=32 a
# 256 x 4d float32 hidden tile is 128 KiB, which malloc reuses from step to
# step; tiles of 512 rows or more faulted 2-7x as many fresh pages.
_TILE = 256


def _row_tiles(n: int, tile: int) -> list[slice]:
    """Slices of `tile` rows over n rows. A last tile of one row joins the one
    before: numpy runs a one-row product as a matrix-vector product, whose
    bits can differ from the GEMM's."""
    starts = list(range(0, n, tile))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _tile_plan(lengths: np.ndarray, t: int, full: int) -> list[tuple]:
    """post_norm_block's tiles as (sequences, their lengths, query rows per
    sequence), the sequences a slice where sorting leaves them in order. The
    first `full` sequences query with every token, the others with [CLS]
    alone. Each group is stable-sorted by length and cut into tiles of 4k
    sequences whose query and key rows come to about 4 _TILE (a [CLS]-only
    tile holds about twice as many), each trimmed to its longest, the last."""
    tiles = []
    for a, b, cls_only in ((0, full, False), (full, len(lengths), True)):
        order = a + np.argsort(lengths[a:b], kind="stable")
        in_order = (np.diff(order) > 0).all()  # then slices, whose tiles are views
        for part in _row_tiles(b - a, 4 * max(1, _TILE // (t + (1 if cls_only else t)))):
            seqs = slice(a + part.start, a + part.stop) if in_order else order[part]
            lens = lengths[seqs]
            tiles.append((seqs, lens, 1 if cls_only else int(lens[-1])))
    return tiles


def _split_heads(a: np.ndarray, rows: int, heads: int) -> np.ndarray:
    """(S * rows, d) -> (S, heads, rows, d / heads) view."""
    return a.reshape(-1, rows, heads, a.shape[-1] // heads).transpose(0, 2, 1, 3)


def _attention_residual_norm(x: Tensor, agg: Tensor | None, ws, heads: int, seqs,
                             lens: np.ndarray, tq: int):
    """post_norm_block's attention sublayer over the sequences `seqs` of
    lengths `lens`, trimmed to the last, each querying with its first tq
    tokens: h as (S * tq, d) rows, and what its backward reads."""
    wq, bq, wk, wv, bv, wo, bo, gain, bias = ws
    width, d = int(lens[-1]), x.shape[2]
    xs = x.data[seqs, :width]
    kv = xs if agg is None else np.concatenate([agg.data[seqs, None], xs], axis=1)
    tk = kv.shape[1]
    mask = None if lens[0] == width else np.where(  # over kv; the agg token is never PAD
        np.arange(tk) < (lens + tk - width)[:, None], 0.0, -np.inf).astype(x.dtype)
    xq, kv = xs[:, :tq].reshape(-1, d), kv.reshape(-1, d)
    q, v = (np.add(p, b.data, out=p) for p, b in ((xq @ wq.data, bq), (kv @ wv.data, bv)))
    k = kv @ wk.data
    scale = float(1.0 / np.sqrt(d // heads))  # a numpy float64 would upcast float32 q
    w = _attention_weights(_split_heads(q * scale, tq, heads), _split_heads(k, tk, heads), mask)
    ctx = np.empty(q.shape, q.dtype)  # the heads' weighted values
    np.matmul(w, _split_heads(v, tk, heads), out=_split_heads(ctx, tq, heads))
    z = ctx @ wo.data
    z += bo.data
    z += xq
    h, xhat, inv = _layer_norm_(z, gain, bias)
    return h, (xq, kv, q, k, v, w, ctx, xhat, inv)


def _attention_residual_norm_grad(gh: np.ndarray, saved, ws, heads: int, seqs, width: int,
                                  gx: np.ndarray, gagg: np.ndarray | None):
    """Accumulate the attention sublayer's parameter gradients over the
    sequences `seqs`, trimmed to `width`, from gh, h's gradient, and write
    x's and, with an agg token, agg's into gx[seqs] and gagg[seqs]."""
    wq, bq, wk, wv, bv, wo, bo, gain, bias = ws
    xq, kv, q, k, v, w, ctx, xhat, inv = saved
    s, _, tq, tk = w.shape
    d = xq.shape[1]
    gz = _layer_norm_grad(gh, xhat, inv, gain, bias)  # the residual's gradient
    bo._accum(np.ones(len(gz), gz.dtype) @ gz)
    wo._accum(ctx.T @ gz)
    gctx = _split_heads(gz @ wo.data.T, tq, heads)
    gq, gk, gv = (np.empty(a.shape, gz.dtype) for a in (q, k, v))
    np.matmul(w.transpose(0, 1, 3, 2), gctx, out=_split_heads(gv, tk, heads))
    # the weights' gradient, then the softmax Jacobian and the scale
    gs = gctx @ _split_heads(v, tk, heads).transpose(0, 1, 3, 2)
    gs -= np.einsum("...i,...i->...", gs, w)[..., None]
    gs *= w
    gs *= float(1.0 / np.sqrt(d // heads))
    np.matmul(gs, _split_heads(k, tk, heads), out=_split_heads(gq, tq, heads))
    np.matmul(gs.transpose(0, 1, 3, 2), _split_heads(q, tq, heads),
              out=_split_heads(gk, tk, heads))
    wk._accum(kv.T @ gk)
    for a, ga, wp, bp in ((xq, gq, wq, bq), (kv, gv, wv, bv)):
        wp._accum(a.T @ ga)
        bp._accum(np.ones(len(ga), ga.dtype) @ ga)
    # the residual's gradient and q's part, then k's and v's
    gx[seqs, :tq] = (gz + gq @ wq.data.T).reshape(s, tq, d)
    # as in the unfused ops, k's part and v's go one at a time, or with agg summed
    parts = [gk @ wk.data.T, gv @ wv.data.T]
    if gagg is not None:
        parts = [(parts[0] + parts[1]).reshape(s, tk, d)]
        gagg[seqs] = parts[0][:, 0]
    for part in parts:
        gx[seqs, :width] += part.reshape(s, tk, d)[:, tk - width:]


def _mlp_hidden(h: np.ndarray, w_up: Tensor, b_up: Tensor, derivative: bool):
    u = h @ w_up.data
    u += b_up.data
    return _gelu_(u, True, derivative)


def _mlp_residual_norm(h: np.ndarray, ws, into):
    """post_norm_block's MLP sublayer over the rows of h, the hidden layer in
    tiles of _TILE rows: (out, xhat, inv) of LN2, written into `into`. The
    block passes its output rows as both out and xhat, so LN2 normalizes
    straight into them and keeps no xhat."""
    w_up, b_up, w_down, b_down, gain, bias = ws
    z = np.empty(h.shape, into[0].dtype)
    for rows in _row_tiles(len(h), _TILE):
        np.matmul(_mlp_hidden(h[rows], w_up, b_up, False)[0], w_down.data, out=z[rows])
    z += b_down.data
    z += h
    _layer_norm_(z, gain, bias, into)


def _mlp_residual_norm_grad(g: np.ndarray, h: np.ndarray, xhat, inv, ws):
    """Accumulate the MLP sublayer's parameter gradients from g, its output's
    gradient, recomputing the hidden layer tile by tile; return h's."""
    w_up, b_up, w_down, b_down, gain, bias = ws
    gz = _layer_norm_grad(g, xhat, inv, gain, bias)  # the residual's, then h's gradient
    b_down._accum(np.ones(len(gz), gz.dtype) @ gz)
    for rows in _row_tiles(len(h), _TILE):
        a, deriv = _mlp_hidden(h[rows], w_up, b_up, True)
        w_down._accum(a.T @ gz[rows])
        gu = gz[rows] @ w_down.data.T
        gu *= deriv
        w_up._accum(h[rows].T @ gu)
        b_up._accum(np.ones(len(gu), gu.dtype) @ gu)
        gz[rows] += gu @ w_up.data.T
    return gz


def post_norm_block(x: Tensor, agg: Tensor | None, wq, bq, wk, wv, bv, wo, bo, gain1, bias1,
                    w_up, b_up, w_down, b_down, gain2, bias2, heads: int,
                    lengths: np.ndarray, full: int, out: np.ndarray | None = None) -> Tensor:
    """layer_norm(h + gelu(h @ w_up + b_up) @ w_down + b_down, gain2, bias2) with
    h = layer_norm(xq + attention(xq @ wq + bq, kv @ wk, kv @ wv + bv) @ wo
    + bo, gain1, bias1), the post-norm Transformer block, as one tape node
    over (N, T, d) states x of real lengths `lengths`: kv is a sequence's real
    tokens behind its (N, d) agg row, if any, and xq its tokens for the first
    `full` sequences, its [CLS] for the others. There is no key bias: it
    would add one shift to every score of a query's row, which softmax
    ignores, so no output would depend on it. The (N, T, d) output ((N, 1, d)
    if `full` is 0) is exactly 0, with no gradient, at PAD positions and,
    past the first `full` sequences, at all but [CLS].

    On and off the tape it runs the tiles of _tile_plan, each with a key
    mask only if it holds PAD, the MLP's hidden layer in sub-tiles of _TILE
    rows, and LN2 normalizes straight into the output; the node keeps only
    LN2's inv, one float per row. Off the tape with `full` = N, it writes
    into `out`, if given, an (N, T, d) array that may be x's own buffer: a
    tile reads its sequences of x before it writes them, and zeros their
    rows past its width. On the tape, where backward reads x, or with `full`
    < N, `out` raises ValueError. Backward rebuilds each tile's LN2 xhat as
    (out - bias2) / gain2 (at PAD rows out and its gradient are 0, so those
    rows add nothing), recomputes its attention sublayer with the forward's
    bits, then runs the gradients and sums the parameter gradients tile by
    tile. The rebuild needs every entry of gain2 to be nonzero: on the tape
    a zero entry raises FloatingPointError; off it nothing divides. The
    rebuilt xhat is off by about ulp(bias2) / |gain2| per entry, so the
    gradients drift from the unfused ops' as |bias2| / |gain2| grows: in
    float32 with bias2 at 1, by 4.9e-7 of a gradient's largest entry at
    gain 1, 8.1e-6 at 1e-2 and 1.7e-4 at 1e-4; only an exact 0 raises. A GEMM's
    row does not depend on the other rows, and OpenBLAS's matrix-vector
    kernel, which sums the layer norms' rows, sums them 4 at a time and a
    tail of 2 or 3 with other bits, so with tiles of 4k sequences and
    without PAD the output has the unfused ops' bits however the sequences
    are tiled; trimming PAD keys moves outputs only by rounding. The
    gradients match the unfused ops' to rounding, from the rebuilt xhat and
    the per-tile sums, and have their bits within one tile while gain2 is 1
    and bias2 is 0, as at init."""
    n, t, d = x.shape
    attn = (wq, bq, wk, wv, bv, wo, bo, gain1, bias1)
    mlp = (w_up, b_up, w_down, b_down, gain2, bias2)
    parents = tuple(p for p in (x, agg, *attn, *mlp) if p is not None)
    if _on_tape(parents) and (gain2.data == 0).any():
        raise FloatingPointError(f"LN2 gain entry {np.flatnonzero(gain2.data == 0)[0]} is 0: "
                                 "backward divides by it to rebuild LN2's normalized rows")
    if out is not None and (_on_tape(parents) or full < n):
        raise ValueError("out is only for an off-tape block whose every sequence keeps its tokens")
    tiles = _tile_plan(np.asarray(lengths), t, full)
    dtype = np.result_type(*(p.data for p in parents))
    out = np.empty((n, t if full else 1, d), dtype) if out is None else out
    ends = np.cumsum([0] + [len(lens) * tq for _, lens, tq in tiles])  # of LN2's rows
    inv = np.empty((ends[-1], 1), dtype)
    for (seqs, lens, tq), a, b in zip(tiles, ends, ends[1:]):
        h = _attention_residual_norm(x, agg, attn, heads, seqs, lens, tq)[0]
        view = isinstance(seqs, slice) and tq == out.shape[1]  # LN2 then writes into out
        o = out[seqs].reshape(-1, d) if view else np.empty(h.shape, dtype)
        _mlp_residual_norm(h, mlp, (o, o, inv[a:b]))
        o = o.reshape(-1, tq, d)
        if lens[0] < tq:
            o[np.arange(tq) >= lens[:, None]] = 0.0  # PAD queries
        out[seqs, :tq] = o  # a no-op for a view: numpy skips a copy onto itself
        out[seqs, tq:] = 0.0  # past the tile's width: PAD, or all but [CLS]

    def backward(g):
        gx = np.zeros(x.shape, dtype)
        gagg = None if agg is None else np.empty(agg.shape, dtype)
        for (seqs, lens, tq), a, b in zip(tiles, ends, ends[1:]):
            gt = g[seqs, :tq]
            if lens[0] < tq:  # PAD queries get no gradient
                gt = gt * (np.arange(tq) < lens[:, None])[:, :, None]
            h, saved = _attention_residual_norm(x, agg, attn, heads, seqs, lens, tq)
            xhat = np.subtract(out[seqs, :tq], bias2.data).reshape(-1, d)  # LN2's, rebuilt
            xhat /= gain2.data
            gh = _mlp_residual_norm_grad(gt.reshape(-1, d), h, xhat, inv[a:b], mlp)
            _attention_residual_norm_grad(gh, saved, attn, heads, seqs, int(lens[-1]), gx, gagg)
        x._accum(gx)
        if agg is not None:
            agg._accum(gagg)

    return _make(out, parents, backward)
