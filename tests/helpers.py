"""Shared test oracles: central finite differences, reference forms of the
autodiff primitives and of the per-pair losses, and random tensors."""

import numpy as np

from odin import autodiff as ad
from odin.autodiff import Tensor


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
