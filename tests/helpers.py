"""Shared test oracles: central finite differences, reference forms of the
autodiff primitives, of the unfused attention sublayer and stage
aggregation, of the per-pair losses, of the per-node forward and of the
forward without a row plan, a tape walker, random tensors, and a writer of
an older checkpoint format."""

import logging
from dataclasses import dataclass, field

import numpy as np

from odin import autodiff as ad
from odin import fusion
from odin.autodiff import Tensor
from odin.checkpoint import load_arrays, save_arrays, save_model
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


def attention_node(q, k, v, heads, mask=None):
    """Multi-head softmax(q k^T / sqrt(hd) + mask) v as one tape node, for
    (N, T, d) q over (N, T', d) k and v, with `mask` an additive (N, T')
    array: the op the attention sublayer ran before it was fused, with its
    bits (scale on q, BLAS row sums) and its backward."""
    hd = q.shape[-1] // heads
    scale = float(1.0 / np.sqrt(hd))

    def split(x):  # (N, L, d) -> (N, heads, L, hd) view
        return x.reshape(x.shape[0], x.shape[1], heads, hd).transpose(0, 2, 1, 3)

    kh, vh = split(k.data), split(v.data)
    w = split(q.data * scale) @ kh.transpose(0, 1, 3, 2)
    if mask is not None:
        w += mask[:, None, None, :]
    w = ad._softmax_(w)
    out_data = np.empty(q.shape, q.dtype)
    np.matmul(w, vh, out=split(out_data))

    def backward(g):
        gh = split(g)
        gq, gk, gv = (np.empty(t.shape, t.dtype) for t in (q, k, v))
        np.matmul(w.transpose(0, 1, 3, 2), gh, out=split(gv))
        gs = gh @ vh.transpose(0, 1, 3, 2)
        gs -= np.einsum("...i,...i->...", gs, w)[..., None]
        gs *= w
        gs *= scale
        np.matmul(gs, kh, out=split(gq))
        np.matmul(gs.transpose(0, 1, 3, 2), split(q.data), out=split(gk))
        q._accum(gq)
        k._accum(gk)
        v._accum(gv)

    return ad._make(out_data, (q, k, v), backward)


def attention_sublayer(x, agg, wq, bq, wk, wv, bv, wo, bo, gain, bias, heads, mask,
                       cls_only, attend=attention_node, linear=ad.linear,
                       layer_norm=ad.layer_norm):
    """The attention sublayer of ad.post_norm_block, h = LN1(xq + attention @
    wo + bo), as unfused ops: concat the agg row, the q, k and v linears (k's
    without a bias), `attend`, the output linear, the residual and the layer
    norm. With the default ops it has the node's bits for h; with the oracle
    ops it is an independent reference."""
    kv = x if agg is None else ad.concat([ad.reshape(agg, (agg.shape[0], 1, agg.shape[1])), x],
                                         axis=1)
    xq = x[:, :1] if cls_only else x
    ctx = attend(linear(xq, wq, bq), linear(kv, wk), linear(kv, wv, bv), heads, mask)
    return layer_norm(xq + linear(ctx, wo, bo), gain, bias)


def embed_composition(table: Tensor, pos: Tensor, ids: np.ndarray) -> Tensor:
    """ad.embed as the ops it fuses, the composition embed_batch used: take_rows
    of the flat ids, reshape to (N, T, d), then add pos[:T]."""
    n, t = ids.shape
    rows = ad.reshape(ad.take_rows(table, ids.reshape(-1)), (n, t, table.shape[1]))
    return rows + pos[:t]


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


def as_float64(params):
    """Cast every parameter of `params` to float64 in place and return it.
    Parameters are float32; tests that compare against an oracle or finite
    differences at float64 tolerances run the model in float64."""
    for _, p in params.named_parameters():
        p.data = p.data.astype(np.float64)
    return params


def no_pad(x):
    """The real lengths of (N, T, d) states without PAD: T each."""
    return np.full(x.shape[0], x.shape[1])


def full_block(x, agg, lp, heads, lengths=None):
    """transformer_block's (N, T, d) states with every sequence kept, over
    sequences of real `lengths` (no_pad when None)."""
    lengths = no_pad(x) if lengths is None else lengths
    return transformer_block(x, agg, lp, heads, lengths, full_rows=x.shape[0])[0]


def write_with_key_biases(path, params, meta):
    """Write `params` as a model checkpoint of the format that still held a
    key bias per layer, `layers.*.bk`, here nonzero. Returns the arrays
    written."""
    save_model(path, params, meta)
    arrays, meta = load_arrays(path)
    rng = np.random.default_rng(0)
    for i in range(params.depth):
        arrays[f"layers.{i}.bk"] = rng.standard_normal(params.dims.d).astype(np.float32)
    save_arrays(path, arrays, meta)
    return arrays


def rand_tensor(rng, *shape, scale=1.0, requires_grad=True):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def tape_arrays(root: Tensor, skip) -> list[np.ndarray]:
    """Every ndarray the tape under `root` holds, apart from the tensors whose
    ids are in `skip`: each node's data and the arrays in its backward
    closure and in the closures of the functions that closure holds."""
    arrays, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if id(node) not in skip:
            arrays.append(node.data)
        fns = [] if node._backward is None else [node._backward]
        while fns:
            for cell in fns.pop().__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    arrays.append(value)
                elif callable(value) and getattr(value, "__closure__", None):
                    fns.append(value)
    return arrays


def tape_floats(root: Tensor, skip) -> int:
    """The floats the tape under `root` keeps alive, counted once per
    buffer: a view counts the whole array it views."""
    owners = {}
    for a in tape_arrays(root, skip):
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a
    return sum(a.size for a in owners.values() if a.dtype.kind == "f")


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
        mean = ad.tsum(stack, axis=0) * (1.0 / len(cls_neighbors))
        out = out + ad.matmul(w1, ad.reshape(mean, (-1, 1)))
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
        return ad.tsum(stack, axis=0) * (1.0 / stack.shape[0])
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
    states = {v: full_block(embed_batch(tokens_by_node[v][None], params), None,
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
            updated[v] = full_block(states[v], agg, params.layers[layer], heads)
        states.update(updated)
        if tg:
            cache.tokens.update(aggs)
            cache.stage = m
            m += 1
    return states


def neighbor_mean(cls_all: Tensor, fr) -> Tensor:
    """The mean of each active node's sampled neighbor [CLS] rows (0 without
    any) as take_rows, segment_sum and a 1/count scale."""
    gathered = ad.take_rows(cls_all, fr.nbr_flat)
    sums = ad.segment_sum(gathered, fr.nbr_seg, fr.size)
    return sums * (1.0 / np.maximum(fr.counts, 1.0))


def batch_tg(cls_act: Tensor, mean_nb: Tensor, sp) -> Tensor:
    """mean_nb @ w1.T + cls_act @ w2.T as two matmuls and an add: with
    neighbor_mean, the unfused form of ad.stage_aggregate."""
    return ad.matmul(mean_nb, sp.w1.T) + ad.matmul(cls_act, sp.w2.T)


def full_row_forward(sub, tokens_by_node, params, schedule):
    """odin_forward without its row plan: every layer runs every row of its
    frontier as a full block, the last layer too, and the result carries
    the batch's final token states. Same aggregation and prefix order; the
    oracle the row plan is checked against."""
    order = fusion._prefix_order(sub)
    frontiers = fusion._build_frontiers(sub, order)
    heads = params.dims.heads
    token_mat, lengths = fusion.pad_tokens(tokens_by_node, order)
    states = full_block(embed_batch(token_mat, params), None, params.layers[0], heads, lengths)
    cls_all = states[:, 0, :]
    trace = [cls_all.data.copy()]
    m, last_agg = 0, None
    for layer in range(1, schedule.depth):
        fr = frontiers[min(m, sub.hop_count)]
        n = fr.size
        cls_act = cls_all[:n]
        agg = None
        if schedule.is_tg(layer):
            agg = batch_tg(cls_act, neighbor_mean(cls_all, fr), params.stages[m])
        elif schedule.strategy == "ME":
            total = ad.segment_sum(ad.take_rows(cls_all, fr.nbr_flat), fr.nbr_seg, n)
            agg = (total + cls_act) * (1.0 / (fr.counts + 1.0))
        elif schedule.strategy == "PE" and m > 0:
            agg = last_agg[:n]
        elif schedule.strategy == "PG" and m > 0:
            agg = batch_tg(cls_act, neighbor_mean(cls_all, fr), params.stages[m - 1])
        states = full_block(states[:n], agg, params.layers[layer], heads, lengths[:n])
        cls_all = ad.concat([states[:, 0, :], cls_all[n:]]) if n < len(order) else states[:, 0, :]
        if schedule.is_tg(layer):
            last_agg = agg
            m += 1
        trace.append(cls_all.data.copy())
    b = len(sub.batch)
    return fusion.ForwardResult(sub.batch, cls_all[:b], states[:b], order, cls_all, trace)
