"""Shared test oracles: central finite differences, reference forms of the
autodiff primitives, of the per-pair losses and of the per-node forward, and
random tensors."""

import logging
from dataclasses import dataclass, field

import numpy as np

from odin import autodiff as ad
from odin.autodiff import Tensor
from odin.encoder import embed_batch, transformer_block

log = logging.getLogger(__name__)


def finite_diff_check(fn, tensors, step=1e-5, rtol=1e-4, atol=1e-8, probes=None, rng=None):
    """Compare analytic gradients of scalar fn(tensors) against central differences.

    fn must be a pure function of the tensors' data. `probes` limits the check
    to that many randomly chosen scalar entries per tensor (all entries when
    None). Returns the worst relative error seen.
    """
    loss = fn()
    for t in tensors:
        t.zero_grad()
    loss.backward()
    worst = 0.0
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        idxs = range(flat.size)
        if probes is not None and flat.size > probes:
            assert rng is not None
            idxs = rng.choice(flat.size, size=probes, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            hi = fn().item()
            flat[i] = orig - step
            lo = fn().item()
            flat[i] = orig
            num = (hi - lo) / (2 * step)
            ana = grad.reshape(-1)[i]
            err = abs(num - ana) / max(abs(num), abs(ana), atol / rtol)
            worst = max(worst, err)
            assert err < rtol, f"grad mismatch at entry {i}: analytic {ana}, numeric {num}"
    return worst


def gelu_oracle(x):
    """The tanh-approximation GELU written directly, cubic term by pow."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def gelu_longdouble_oracle(x):
    """The same tanh approximation as x * sigmoid(2u), evaluated in long double."""
    x = np.asarray(x, dtype=np.longdouble)
    c = np.sqrt(np.longdouble(2) / np.longdouble(np.pi))
    u = c * (x + np.longdouble(0.044715) * x * x * x)
    return x / (1 + np.exp(-2 * u))


def linear_oracle(x, w, b=None):
    """x @ w (+ b) composed from reshape, matmul, add and reshape tape nodes."""
    lead = x.shape[:-1]
    flat = ad.reshape(x, (-1, x.shape[-1])) if x.ndim != 2 else x
    out = ad.matmul(flat, w)
    if b is not None:
        out = ad.add(out, b)
    if x.ndim != 2:
        out = ad.reshape(out, lead + (w.shape[-1],))
    return out


def softmax_oracle(a, mask=None):
    """Softmax over the last axis with numpy's row sums, in fresh arrays."""
    x = a.data if mask is None else a.data + mask
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        a._accum((g - dot) * out_data)

    return ad._make(out_data, (a,), backward)


def layer_norm_oracle(a, gain, bias, eps=1e-12):
    """Layer norm with numpy's row means and a fresh array per step."""
    x = a.data
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    out_data = gain.data * xhat + bias.data

    def backward(g):
        dxhat = g * gain.data
        a._accum(inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)))
        red = tuple(range(g.ndim - 1))
        gain._accum((g * xhat).sum(axis=red))
        bias._accum(g.sum(axis=red))

    return ad._make(out_data, (a, gain, bias), backward)


def split_heads(x, heads):
    """(N, T, d) -> (N, heads, T, d / heads) as reshape and transpose nodes."""
    n, t, d = x.shape
    return ad.transpose(ad.reshape(x, (n, t, heads, d // heads)), (0, 2, 1, 3))


def merge_heads(x):
    """(N, heads, T, hd) -> (N, T, heads * hd), the inverse of split_heads."""
    n, h, t, hd = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (n, t, h * hd))


def attention_oracle(q, k, v, heads, mask=None):
    """Multi-head attention composed of tape nodes: split the heads, scale
    the scores, softmax_oracle, weight the values, merge the heads."""
    hd = q.shape[-1] // heads
    qh, kh, vh = (split_heads(x, heads) for x in (q, k, v))
    scores = ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    weights = softmax_oracle(scores, None if mask is None else mask[:, None, None, :])
    return merge_heads(ad.matmul(weights, vh))


def add_at_oracle(idx, values, num_rows):
    """out[r] = sum of values[i] over idx[i] == r, by unbuffered np.add.at."""
    out = np.zeros((num_rows,) + np.shape(values)[1:])
    np.add.at(out, idx, values)
    return out


def rel_err(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def rand_tensor(rng, *shape, scale=1.0, requires_grad=True):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def mnp_pair_loop_oracle(cls_by_node, plan):
    """The contrastive node loss built one pair at a time:
    softplus(s- - s+) per (anchor, positive, negative), summed."""
    total = None
    for v in sorted(plan.node_pairs):
        anchor = cls_by_node[v]
        for v_pos, v_neg in plan.node_pairs[v]:
            s_pos = (anchor * cls_by_node[v_pos]).sum()
            s_neg = (anchor * cls_by_node[v_neg]).sum()
            term = ad.softplus(s_neg - s_pos)
            total = term if total is None else total + term
    return total


def in_batch_pair_loop_oracle(query_by_id, key_by_id, pairs):
    """The in-batch softmax built one pair at a time: the query of each
    (query, key) pair scores every key of key_by_id, in sorted id order, and
    its own key is the gold class; summed over pairs."""
    ids = sorted(key_by_id)
    key_mat = ad.concat([ad.reshape(key_by_id[k], (1, -1)) for k in ids], axis=0)
    total = None
    for q, k in pairs:
        scores = ad.reshape(ad.matmul(key_mat, ad.reshape(query_by_id[q], (-1, 1))), (1, -1))
        term = ad.logsumexp(scores, axis=-1)[0] - scores[0, ids.index(k)]
        total = term if total is None else total + term
    return total


# -- per-node forward -----------------------------------------------------------


def tg_aggregate(cls_self: Tensor, cls_neighbors, w1: Tensor, w2: Tensor) -> Tensor:
    """w1 @ mean(neighbor [CLS]) + w2 @ own [CLS] for one node; empty
    neighborhoods contribute a zero mean term."""
    if cls_self.shape != (w2.shape[1],):
        raise ValueError(
            f"dimension mismatch: state {cls_self.shape} vs weights {w2.shape}"
        )
    out = ad.matmul(w2, ad.reshape(cls_self, (-1, 1)))
    if cls_neighbors:
        stack = ad.concat([ad.reshape(c, (1, -1)) for c in cls_neighbors], axis=0)
        mean = stack.mean(axis=0).reshape(-1, 1)
        out = out + ad.matmul(w1, mean)
    return ad.reshape(out, (-1,))


@dataclass
class AggCache:
    """The last graph-enhanced token of every node, the stage that produced
    it, and the stage weights for parameter reuse."""

    stages: list
    tokens: dict = field(default_factory=dict)  # node -> (d,) token
    stage: int | None = None

    @property
    def primed(self) -> bool:
        return self.stage is not None


def simple_aggregate(strategy, cls_self, cls_neighbors, cache: AggCache, node: int):
    """The four cheap strategies for one node. Returns None when no token is
    injected; PE and PG before any aggregation stage degrade to VA."""
    if strategy == "VA":
        return None
    if strategy == "ME":
        stack = ad.concat(
            [ad.reshape(cls_self, (1, -1))] + [ad.reshape(c, (1, -1)) for c in cls_neighbors],
            axis=0,
        )
        return stack.mean(axis=0)
    if not cache.primed:
        log.warning("%s requested before the first aggregation stage; using VA", strategy)
        return None
    if strategy == "PE":
        return cache.tokens[node]
    if strategy == "PG":
        sp = cache.stages[cache.stage]
        return tg_aggregate(cls_self, cls_neighbors, sp.w1, sp.w2)
    raise ValueError(f"unknown strategy {strategy!r}")


def per_node_forward(sub, tokens_by_node, params, schedule):
    """The fused forward one node at a time: unpadded one-row blocks, and
    each layer updates every node of its frontier from the previous layer's
    [CLS] states while the other nodes keep theirs. Returns node -> (1, T, d)
    final token states."""
    heads = params.dims.heads
    states = {v: transformer_block(embed_batch(tokens_by_node[v][None], params), None,
                                   params.layers[0], heads)
              for v in sub.base}
    cache = AggCache(params.stages)
    m = 0
    for layer in range(1, schedule.depth):
        cls = {v: x[0, 0] for v, x in states.items()}
        tg = schedule.is_tg(layer)
        updated, aggs = {}, {}
        for v in sub.budget(min(m, sub.hop_count)):
            nbrs = [cls[u] for u in sub.sampled_adj.get(v, ())]
            if tg:
                sp = params.stages[m]
                agg = aggs[v] = tg_aggregate(cls[v], nbrs, sp.w1, sp.w2)
            else:
                agg = simple_aggregate(schedule.strategy, cls[v], nbrs, cache, v)
            agg = None if agg is None else ad.reshape(agg, (1, -1))
            updated[v] = transformer_block(states[v], agg, params.layers[layer], heads)
        states.update(updated)
        if tg:
            cache.tokens.update(aggs)
            cache.stage = m
            m += 1
    return states
