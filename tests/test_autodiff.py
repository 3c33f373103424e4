"""Gradient checks for every autodiff primitive against central differences."""

import tracemalloc
import warnings

import numpy as np
import pytest

from odin import autodiff as ad
from odin.autodiff import Tensor

from helpers import (
    add_at_oracle,
    attention_oracle,
    attention_sublayer,
    embed_composition,
    finite_diff_check,
    gelu_longdouble_oracle,
    gelu_oracle,
    layer_norm_oracle,
    linear_oracle,
    no_pad,
    rand_tensor,
    rel_err,
    softmax_oracle,
    tape_arrays,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_add_mul_broadcast(rng):
    a = rand_tensor(rng, 3, 4)
    b = rand_tensor(rng, 4)
    c = rand_tensor(rng, 3, 1)
    finite_diff_check(lambda: ((a + b) * c).sum(), [a, b, c])


def test_sub_div(rng):
    a = rand_tensor(rng, 2, 3)
    b = Tensor(rng.standard_normal((2, 3)) + 3.0, requires_grad=True)
    finite_diff_check(lambda: ad.sub(ad.div(a, b), b).sum(), [a, b])


def test_matmul_2d(rng):
    a = rand_tensor(rng, 3, 4)
    b = rand_tensor(rng, 4, 2)
    finite_diff_check(lambda: ad.matmul(a, b).sum(), [a, b])


def test_matmul_batched_with_broadcast(rng):
    a = rand_tensor(rng, 2, 3, 4)
    b = rand_tensor(rng, 4, 5)
    w = rand_tensor(rng, 2, 5, 3)
    finite_diff_check(lambda: ad.matmul(ad.matmul(a, b), w).sum(), [a, b, w])


def test_elementwise_nonlinearities(rng):
    x = rand_tensor(rng, 5)
    finite_diff_check(lambda: ad.tanh(x).sum(), [x])
    finite_diff_check(lambda: ad.gelu(x).sum(), [x])
    finite_diff_check(lambda: ad.softplus(x).sum(), [x])
    finite_diff_check(lambda: ad.exp(x).sum(), [x])
    y = Tensor(rng.random(5) + 0.5, requires_grad=True)
    finite_diff_check(lambda: ad.log(y).sum(), [y])


def test_softmax_rows_sum_to_one(rng):
    x = rand_tensor(rng, 4, 6)
    s = ad.softmax(x)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    w = Tensor(rng.standard_normal((4, 6)))
    finite_diff_check(lambda: (ad.softmax(x) * w).sum(), [x])


def test_softmax_with_mask(rng):
    x = rand_tensor(rng, 2, 5)
    mask = np.zeros((2, 5))
    mask[:, -2:] = -np.inf
    s = ad.softmax(x, mask=mask)
    assert np.all(s.data[:, -2:] == 0.0)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    w = Tensor(rng.standard_normal((2, 5)))
    finite_diff_check(lambda: (ad.softmax(x, mask=mask) * w).sum(), [x])


def test_logsumexp_matches_naive(rng):
    x = rand_tensor(rng, 3, 7)
    got = ad.logsumexp(x).data
    want = np.log(np.exp(x.data).sum(axis=-1))
    np.testing.assert_allclose(got, want, atol=1e-12)
    finite_diff_check(lambda: ad.logsumexp(x).sum(), [x])


def test_layer_norm_value_and_grad(rng):
    x = rand_tensor(rng, 2, 3, 8)
    g = Tensor(rng.standard_normal(8), requires_grad=True)
    b = Tensor(rng.standard_normal(8), requires_grad=True)
    out = ad.layer_norm(x, g, b)
    normed = (x.data - x.data.mean(-1, keepdims=True)) / np.sqrt(
        x.data.var(-1, keepdims=True) + 1e-12
    )
    np.testing.assert_allclose(out.data, g.data * normed + b.data, atol=1e-10)
    w = Tensor(rng.standard_normal((2, 3, 8)))
    finite_diff_check(lambda: (ad.layer_norm(x, g, b) * w).sum(), [x, g, b])


def test_layer_norm_shift_invariance(rng):
    x = rand_tensor(rng, 4, 8, requires_grad=False)
    g = Tensor(np.ones(8))
    b = Tensor(np.zeros(8))
    shifted = Tensor(x.data + 3.7)
    a = ad.layer_norm(x, g, b).data
    c = ad.layer_norm(shifted, g, b).data
    assert np.max(np.abs(a - c)) < 1e-5


def _value_and_grads(fn, inputs, seed):
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.backward(seed)
    return out.data, [t.grad for t in inputs]


def _assert_matches_oracle(fn, oracle, inputs, seed, mask=None, atol=1e-12):
    """fn and oracle agree in value and in every input gradient, and fn
    writes into none of its inputs, its mask or the incoming gradient."""
    arrays = [t.data for t in inputs] + [seed] + ([] if mask is None else [mask])
    before = [x.copy() for x in arrays]
    got, got_grads = _value_and_grads(fn, inputs, seed)
    for x, b in zip(arrays, before):
        np.testing.assert_array_equal(x, b)
    want, want_grads = _value_and_grads(oracle, inputs, seed)
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=atol)


@pytest.mark.parametrize("masked", [False, True])
def test_softmax_matches_oracle(rng, masked):
    x = rand_tensor(rng, 3, 4, 7, scale=3.0)
    mask = None
    if masked:
        mask = np.zeros((3, 1, 7))
        mask[0, :, 5:] = mask[2, :, 1:3] = -np.inf
    _assert_matches_oracle(lambda a: ad.softmax(a, mask=mask),
                           lambda a: softmax_oracle(a, mask=mask),
                           [x], rng.standard_normal((3, 4, 7)), mask)


def test_layer_norm_matches_oracle(rng):
    x = rand_tensor(rng, 3, 5, 8, scale=2.0)
    g = rand_tensor(rng, 8)
    b = rand_tensor(rng, 8)
    _assert_matches_oracle(ad.layer_norm, layer_norm_oracle, [x, g, b],
                           rng.standard_normal((3, 5, 8)))


def test_take_rows_duplicates_accumulate(rng):
    x = rand_tensor(rng, 5, 3)
    idx = np.array([0, 2, 2, 4])
    finite_diff_check(lambda: ad.take_rows(x, idx).sum(), [x])
    x.zero_grad()
    out = ad.take_rows(x, idx)
    out.backward(np.ones_like(out.data))
    assert x.grad[2, 0] == 2.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_equals_its_composition_bit_for_bit(rng, dtype):
    # ids repeat within and across sequences and hold PAD id 0; T = 4 of 6
    # positions, so pos's last two rows get a zero gradient
    ids = np.array([[1, 5, 5, 0], [2, 1, 0, 0], [5, 5, 5, 3]])
    table, pos = (Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                  for s in ((7, 6), (6, 6)))
    seed = rng.standard_normal((3, 4, 6)).astype(dtype)
    runs = []
    for op in (ad.embed, embed_composition):
        for leaf in (table, pos):
            leaf.zero_grad()
        out = op(table, pos, ids)
        out.backward(seed)
        runs.append((out.data, table.grad, pos.grad))
    for got, want in zip(*runs, strict=True):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
    assert not runs[0][1][[4, 6]].any() and not runs[0][2][4:].any()
    # the node keeps its output and the ids, no (N T, d) row gather
    out = ad.embed(table, pos, ids)
    assert out._parents == (table, pos)
    kept = [a for a in tape_arrays(out, {id(table), id(pos)}) if a.dtype.kind == "f"]
    assert len(kept) == 1 and kept[0] is out.data


def test_scatter_rows(rng):
    base = rand_tensor(rng, 5, 3)
    vals = rand_tensor(rng, 2, 3)
    idx = np.array([1, 3])
    out = ad.scatter_rows(base, idx, vals)
    np.testing.assert_array_equal(out.data[idx], vals.data)
    np.testing.assert_array_equal(out.data[[0, 2, 4]], base.data[[0, 2, 4]])
    w = Tensor(rng.standard_normal((5, 3)))
    finite_diff_check(lambda: (ad.scatter_rows(base, idx, vals) * w).sum(), [base, vals])


def test_segment_sum(rng):
    x = rand_tensor(rng, 6, 2)
    seg = np.array([0, 0, 1, 1, 1, 3])
    out = ad.segment_sum(x, seg, 4)
    np.testing.assert_allclose(out.data[0], x.data[0] + x.data[1])
    np.testing.assert_allclose(out.data[2], 0.0)
    finite_diff_check(lambda: ad.segment_sum(x, seg, 4).sum(), [x])


def test_gather_elements(rng):
    x = rand_tensor(rng, 4, 6)
    rows = np.array([0, 1, 3])
    cols = np.array([5, 0, 2])
    out = ad.gather_elements(x, rows, cols)
    np.testing.assert_array_equal(out.data, x.data[rows, cols])
    finite_diff_check(lambda: ad.gather_elements(x, rows, cols).sum(), [x])


def test_concat_and_getitem(rng):
    a = rand_tensor(rng, 2, 3)
    b = rand_tensor(rng, 4, 3)
    finite_diff_check(lambda: ad.concat([a, b], axis=0)[1:4].sum(), [a, b])


def test_getitem_rejects_array_keys(rng):
    # a[[0, 0, 2]] would pass back only the last of the two gradients of row 0
    a = rand_tensor(rng, 3)
    for key in (np.array([0, 0, 2]), [0, 0, 2], (np.array([0, 0]),)):
        with pytest.raises(TypeError, match="take_rows or gather_elements"):
            a[key]


def test_reshape_transpose(rng):
    a = rand_tensor(rng, 2, 3, 4)
    finite_diff_check(lambda: ad.transpose(ad.reshape(a, (2, 12)), (1, 0)).sum(), [a])


def test_linear_matches_manual(rng):
    x = rand_tensor(rng, 2, 3, 4)
    w = rand_tensor(rng, 4, 5)
    b = rand_tensor(rng, 5)
    out = ad.linear(x, w, b)
    np.testing.assert_allclose(out.data, x.data @ w.data + b.data, atol=1e-12)
    finite_diff_check(lambda: ad.linear(x, w, b).sum(), [x, w, b])


@pytest.mark.parametrize("lead", [(6,), (2, 3)], ids=["2d", "3d"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
def test_linear_matches_composite_oracle_bit_for_bit(rng, lead, bias):
    x = rand_tensor(rng, *lead, 4)
    w = rand_tensor(rng, 4, 5)
    b = rand_tensor(rng, 5) if bias else None
    leaves = [x, w] + ([b] if bias else [])
    weights = rng.standard_normal(lead + (5,))

    def grads(op):
        for t in leaves:
            t.zero_grad()
        out = op(x, w, b)
        (out * weights).sum().backward()
        return out.data, [t.grad.copy() for t in leaves]

    got, got_grads = grads(ad.linear)
    want, want_grads = grads(linear_oracle)
    np.testing.assert_array_equal(got, want)
    for g_fused, g_oracle in zip(got_grads[:2], want_grads[:2]):
        np.testing.assert_array_equal(g_fused, g_oracle)
    if bias:
        # the bias gradient sums the rows of g by one BLAS matvec, the oracle by
        # numpy's pairwise sum; each order is within (n - 1) ulps of sum |g|
        rows = weights.reshape(-1, 5)
        bound = len(rows) * np.finfo(rows.dtype).eps * np.abs(rows).sum(axis=0)
        assert np.all(np.abs(got_grads[2] - want_grads[2]) <= bound)
    finite_diff_check(lambda: (ad.linear(x, w, b) * weights).sum(), leaves)


def test_linear_is_one_tape_node(rng):
    x = rand_tensor(rng, 2, 3, 4)
    out = ad.linear(x, rand_tensor(rng, 4, 5), rand_tensor(rng, 5))
    assert out.shape == (2, 3, 5)
    assert all(p._backward is None for p in out._parents)


def test_no_grad_skips_tape(rng):
    x = rand_tensor(rng, 3)
    with ad.no_grad():
        y = (x * x).sum()
    assert y._backward is None and not y.requires_grad


def test_backward_accumulates_through_shared_subexpression(rng):
    x = rand_tensor(rng, 3)
    y = x * x
    loss = (y + y).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, 4 * x.data, atol=1e-12)


def test_backward_frees_non_leaf_gradients_and_repeats(rng):
    x = rand_tensor(rng, 3, 4)
    w = rand_tensor(rng, 4, 2)
    c = rand_tensor(rng, 3, 2, requires_grad=False)
    h = ad.matmul(x, w)
    t = ad.tanh(h)
    m = t * c
    loss = m.sum()
    loss.backward()
    assert h.grad is None and t.grad is None and m.grad is None
    np.testing.assert_array_equal(loss.grad, 1.0)
    first = [x.grad.copy(), w.grad.copy()]
    x.zero_grad()
    w.zero_grad()
    loss.backward()
    np.testing.assert_array_equal(x.grad, first[0])
    np.testing.assert_array_equal(w.grad, first[1])


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_constant_operands_get_no_gradient(rng, op):
    """A constant operand of add/sub/mul/div, on either side, gets no
    gradient; the other operand's gradient is the one it gets when the
    constant is on the tape too."""
    x_data = rng.standard_normal((3, 4))
    c_data = rng.random((1, 4)) + 0.5  # broadcast, and away from 0 for div
    weights = rng.standard_normal((3, 4))
    grads = {}
    for on_tape in (False, True):
        x = Tensor(x_data, requires_grad=True)
        c = Tensor(c_data, requires_grad=on_tape)
        for out in (op(x, c), op(c, x)):
            (out * weights).sum().backward()
        grads[on_tape] = x.grad, c.grad
    assert grads[False][1] is None and grads[True][1] is not None
    np.testing.assert_array_equal(grads[False][0], grads[True][0])


def test_backward_peak_memory_is_a_few_arrays(rng):
    # every intermediate gradient is freed once used, so a long chain's
    # backward holds a bounded number of arrays, not one per node
    a = rand_tensor(rng, 500, 200)
    y = a
    for _ in range(50):
        y = ad.tanh(y)
    loss = y.sum()
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * a.data.nbytes


def test_gelu_matches_tanh_formula_oracle():
    x = np.linspace(-10.0, 10.0, 20001)
    got = ad.gelu(Tensor(x)).data
    # Everywhere, against the same formula in long double: exp(-2u) carries
    # the float64 rounding of 2u, up to |2u| ~ 88 ulps of relative error here.
    assert rel_err(got, gelu_longdouble_oracle(x), floor=1e-300) < 5e-14
    assert np.all(got[x < 0] < 0.0)
    want = gelu_oracle(x)
    # Where 1 + tanh(.) does not cancel, the float64 forms agree to 1e-14 relative.
    calm = x >= -2.0
    assert rel_err(got[calm], want[calm], floor=1e-300) < 1e-14
    # Below -2 the tanh form's own rounding error is an absolute
    # 0.5 * |x| * ulp(1), so the bound there is relative to |x|.
    assert np.max(np.abs(got - want) / np.maximum(np.abs(x), 1e-300)) < 1e-14


def test_gelu_emits_no_warning_for_large_inputs():
    x = Tensor(np.linspace(-1e3, 1e3, 2001), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.gelu(x)
        out.backward(np.ones(2001))
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
    np.testing.assert_array_equal(out.data[-10:], x.data[-10:])
    np.testing.assert_array_equal(x.grad[:10], 0.0)


def test_gelu_gradient_in_tails_and_at_zero():
    x = Tensor(np.array([-6.2, -6.0, -5.9, -1e-3, 0.0, 1e-3, 5.9, 6.0, 6.2]),
               requires_grad=True)
    finite_diff_check(lambda: ad.gelu(x).sum(), [x])
    w = Tensor(np.linspace(-1.0, 1.0, 9))
    finite_diff_check(lambda: (ad.gelu(x) * w).sum(), [x])


def test_gelu_backward_writes_into_no_input(rng):
    a = rand_tensor(rng, 4, 5, scale=3.0)
    x_before = a.data.copy()
    seed = rng.standard_normal((4, 5))
    seed_before = seed.copy()
    out = ad.gelu(a)
    out_before = out.data.copy()
    out.backward(seed)
    first = a.grad.copy()
    a.zero_grad()
    out.backward(seed)
    np.testing.assert_array_equal(a.data, x_before)
    np.testing.assert_array_equal(seed, seed_before)
    np.testing.assert_array_equal(out.data, out_before)
    np.testing.assert_array_equal(a.grad, first)


def test_gelu_builds_no_derivative_under_no_grad(rng):
    # Off the tape gelu needs two input-sized arrays, the output among them;
    # the derivative the tape keeps would be a third.
    x = rand_tensor(rng, 200, 100)
    with ad.no_grad():
        tracemalloc.start()
        try:
            out = ad.gelu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out._backward is None
    assert peak < 2.5 * x.data.nbytes


# -- the post-norm block ----------------------------------------------------------
#
# ad.post_norm_block plans one layer in tiles (ad._tile_plan): the first
# `full` sequences and the others, each sorted by length and cut into tiles
# of 4k whole sequences trimmed of PAD. Per tile it runs the attention
# sublayer (ad._attention_residual_norm) and the MLP sublayer
# (ad._mlp_residual_norm), the MLP's hidden layer in sub-tiles of _TILE rows.
# The tests named after a sublayer put that sublayer's tiling to the test.


def _block_leaves(rng, n=3, t=4, d=8, dtype=np.float64, w_dtype=None):
    """(N, T, d) states x, an (N, d) agg token and _block_params(d)."""
    shapes = _block_params(d)
    dtypes = [dtype] * 2 + [w_dtype or dtype] * len(shapes)
    return [Tensor(rng.standard_normal(s).astype(dt), requires_grad=True)
            for s, dt in zip([(n, t, d), (n, d)] + shapes, dtypes)]


def _lengths(n, t):
    """Real lengths of n sequences of width t: sequences 0, 3, 6, ... end
    in one PAD token and sequences 2, 5, 8, ... in two."""
    lengths = np.full(n, t)
    lengths[0::3], lengths[2::3] = t - 1, t - 2
    return lengths


def _key_mask(lengths, t, dtype=np.float64):
    """The additive (N, T + 1) mask over [agg; x] that hides PAD keys."""
    real = np.arange(-1, t) < np.asarray(lengths)[:, None]
    return np.where(real, 0.0, -np.inf).astype(dtype)


def _mlp_composition(h, w_up, b_up, w_down, b_down, gain, bias, linear=ad.linear,
                     layer_norm=ad.layer_norm):
    return layer_norm(h + linear(ad.gelu(linear(h, w_up, b_up)), w_down, b_down), gain, bias)


def _composition(x, agg, *rest, **ops):
    """ad.post_norm_block as unfused ops: the attention sublayer, then the
    MLP sublayer, over the first `full` sequences with every query and over
    the others with [CLS] alone, padded with zeros past [CLS] when `full` is
    not 0, and 0 at PAD positions; `ops` replaces attention_sublayer's ops."""
    *attn, w_up, b_up, w_down, b_down, gain, bias, heads, lengths, full = rest
    n, t, d = x.shape
    real = np.arange(t) < lengths[:, None]
    mask = None if real.all() else _key_mask(real.sum(axis=1), t, x.dtype)
    if agg is None and mask is not None:
        mask = mask[:, 1:]
    mlp_ops = {k: op for k, op in ops.items() if k != "attend"}
    parts = []
    for seqs, cls_only in ((slice(0, full), False), (slice(full, n), True)):
        if seqs.start == seqs.stop:
            continue
        h = attention_sublayer(x[seqs], None if agg is None else agg[seqs], *attn, heads,
                               None if mask is None else mask[seqs], cls_only, **ops)
        part = _mlp_composition(h, w_up, b_up, w_down, b_down, gain, bias, **mlp_ops)
        if cls_only and full and t > 1:
            pad = Tensor(np.zeros((len(part.data), t - 1, d), part.dtype))
            part = ad.concat([part, pad], axis=1)
        parts.append(part)
    out = parts[0] if len(parts) == 1 else ad.concat(parts)
    return out if real.all() else out * real[:, :out.shape[1], None]


def _block(leaves, heads, lengths, full, op=ad.post_norm_block, agg=True, **ops):
    """op over the leaves; lengths None means no PAD."""
    x, agg_leaf, *rest = leaves
    lengths = no_pad(x) if lengths is None else lengths
    return op(x, agg_leaf if agg else None, *rest, heads, lengths, full, **ops)


@pytest.mark.parametrize("masked", [False, True])
def test_attention_matches_composite_oracle(rng, masked):
    # the block against a composition of the oracle attention, linear and
    # layer norm ops
    leaves = _block_leaves(rng)
    lengths = _lengths(3, 4) if masked else None
    oracle_ops = dict(attend=attention_oracle, linear=linear_oracle, layer_norm=layer_norm_oracle)
    _assert_matches_oracle(lambda *ls: _block(ls, 2, lengths, 3),
                           lambda *ls: _block(ls, 2, lengths, 3, _composition, **oracle_ops),
                           leaves, rng.standard_normal((3, 4, 8)), lengths)


@pytest.mark.parametrize("masked", [False, True])
def test_attention_finite_differences(rng, masked):
    leaves = _block_leaves(rng)
    lengths = _lengths(3, 4) if masked else None
    w = Tensor(rng.standard_normal((3, 4, 8)))
    finite_diff_check(lambda: (_block(leaves, 2, lengths, 3) * w).sum(), leaves)


# 14 sequences of width 4; the first 9 sort to lengths 1 1 2 2 | 3 3 4 4 4
# and the other 5 to 1 2 2 3 4, so lengths differ within and across tiles
_MIXED_LENGTHS = np.array([4, 2, 3, 1, 4, 4, 2, 3, 1, 3, 1, 4, 2, 2])


@pytest.mark.parametrize("cls_rows", [False, True])
def test_attention_residual_norm_finite_differences_across_tiles(rng, monkeypatch, cls_rows):
    # Float64, with an agg token and PAD. At _TILE 4 a tile holds 4
    # sequences: all 14 sequences full make tiles of 4, 4, 4 and 2; with
    # cls_rows the first 9 make 4 and 5 (no tile of one sequence) and the
    # other 5, which query with [CLS] alone, make one more. The MLP runs a
    # tile's rows in sub-tiles of 4.
    monkeypatch.setattr(ad, "_TILE", 4)
    full = 9 if cls_rows else 14
    assert len(ad._tile_plan(_MIXED_LENGTHS, 4, full)) == (3 if cls_rows else 4)
    leaves = _block_leaves(rng, n=14, t=4, d=4)
    w = Tensor(rng.standard_normal((14, 4, 4)))
    finite_diff_check(lambda: (_block(leaves, 2, _MIXED_LENGTHS, full) * w).sum(), leaves)


def test_mlp_residual_norm_finite_differences_across_tiles(rng, monkeypatch):
    # no agg token and no PAD: one tile of 2 sequences, 10 rows, whose MLP
    # runs in sub-tiles of 4, 4 and 2 rows
    monkeypatch.setattr(ad, "_TILE", 4)
    leaves = _block_leaves(rng, n=2, t=5, d=4)
    w = Tensor(rng.standard_normal((2, 5, 4)))
    finite_diff_check(lambda: (_block(leaves, 2, None, 2, agg=False) * w).sum(),
                      leaves[:1] + leaves[2:])


def test_tile_plan_sorts_trims_and_sizes_each_group():
    # T = 11, 250 sequences of lengths 2..11, the first 100 full. A tile's
    # query and key rows come to about 4 _TILE: a full tile holds
    # 4 * (_TILE // 22) = 44 sequences, a [CLS]-only one, with one query row
    # per sequence, 4 * (_TILE // 12) = 84.
    lengths = 2 + np.arange(250) % 10
    tiles = ad._tile_plan(lengths, 11, 100)
    assert [(len(lens), tq, int(lens[-1])) for _, lens, tq in tiles] == [
        (44, 6, 6), (44, 10, 10), (12, 11, 11), (84, 1, 7), (66, 1, 11)]
    order = np.argsort(lengths[:100], kind="stable")
    np.testing.assert_array_equal(np.concatenate([seqs for seqs, *_ in tiles[:3]]), order)
    np.testing.assert_array_equal(np.concatenate([seqs for seqs, *_ in tiles[3:]]),
                                  100 + np.argsort(lengths[100:], kind="stable"))
    for seqs, lens, _ in tiles:
        np.testing.assert_array_equal(lens, lengths[seqs])
    # sequences that sorting leaves in order make slices
    tiles = ad._tile_plan(np.sort(lengths), 11, 100)
    assert [seqs for seqs, *_ in tiles] == [slice(0, 44), slice(44, 88), slice(88, 100),
                                           slice(100, 184), slice(184, 250)]


# sorted, the same lengths make tiles that are slices of the input: at
# _TILE 4, with all 14 full, of lengths 1 1 1 2 | 2 2 2 3 | 3 3 4 4 | 4 4, so
# the third tile is full width and holds PAD
_SORTED_CASE = (np.sort(_MIXED_LENGTHS), 14)


@pytest.mark.parametrize("lengths, full", [(_MIXED_LENGTHS, 9), _SORTED_CASE],
                         ids=["mixed", "sorted"])
def test_block_output_is_zero_at_pad_and_past_cls(rng, monkeypatch, lengths, full):
    monkeypatch.setattr(ad, "_TILE", 4)
    leaves = _block_leaves(rng, n=14, t=4, d=4)
    out = _block(leaves, 2, lengths, full)
    zero = np.arange(4) >= lengths[:, None]
    zero[full:, 1:] = True
    assert (out.data[zero] == 0).all() and (out.data[~zero] != 0).all()
    out.backward(rng.standard_normal(out.shape))
    assert (leaves[0].grad[np.arange(4) >= lengths[:, None]] == 0).all()


def test_attention_is_one_tape_node(rng):
    leaves = _block_leaves(rng)
    out = _block(leaves, 2, _lengths(3, 4), 2)
    assert out.shape == leaves[0].shape
    assert out._parents == tuple(leaves)
    assert all(p._backward is None for p in out._parents)


def test_attention_backward_repeats(rng):
    leaves = _block_leaves(rng)
    out = _block(leaves, 2, _lengths(3, 4), 2)
    seed = rng.standard_normal(out.shape)
    out.backward(seed)
    first = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.zero_grad()
    out.backward(seed)
    for t, g in zip(leaves, first):
        np.testing.assert_array_equal(t.grad, g)


def test_attention_residual_norm_ignores_an_all_zero_mask_to_the_bit(rng, monkeypatch):
    # Lengths that leave no PAD build no mask at all, on and off the tape,
    # and give the bits of the composition without a mask. With one
    # sequence of length 3, sorting puts it in the first tile of 4, which
    # gets a mask; the second tile gets none.
    monkeypatch.setattr(ad, "_TILE", 8)  # tiles of 4 sequences
    masks, weights = [], ad._attention_weights

    def record(q, k, mask):
        masks.append(mask)
        return weights(q, k, mask)

    monkeypatch.setattr(ad, "_attention_weights", record)
    leaves = _block_leaves(rng, n=8, t=4, d=4)
    out = _block(leaves, 2, np.full(8, 4), 8)
    out.backward(rng.standard_normal((8, 4, 4)))
    assert len(masks) == 4 and all(m is None for m in masks)
    np.testing.assert_array_equal(out.data, _block(leaves, 2, None, 8, _composition).data)
    masks.clear()
    _block(leaves, 2, np.array([4, 4, 4, 4, 4, 3, 4, 4]), 8)
    assert masks[0].shape == (4, 5) and masks[1] is None


def _assert_block_matches_its_composition(leaves, lengths, full, agg, seed):
    """post_norm_block has the composition's output bits on and off the
    tape when no sequence has PAD. Each gradient is within 1e-12 (float64)
    or 1e-5 (float32) of its own largest entry, also within one tile:
    backward rebuilds LN2's normalized rows from the output, (out - bias2) /
    gain2, which the composition keeps. With PAD, a tile trimmed of PAD keys
    moves outputs within 1e-12 or 1e-5 too."""
    results = []
    for op in (ad.post_norm_block, _composition):
        for t in leaves:
            t.zero_grad()
        with ad.no_grad():
            off_tape = _block(leaves, 2, lengths, full, op, agg)
        out = _block(leaves, 2, lengths, full, op, agg)
        out.backward(seed)
        results.append((off_tape.data, out.data, [t.grad for t in leaves if t.grad is not None]))
    (got_off, got, got_grads), (want_off, want, want_grads) = results
    dtype = got.dtype
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for a, b in ((got_off, want_off), (got, want)):
        if lengths is None:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=tol)
    for g, w in zip(got_grads, want_grads, strict=True):
        assert g.dtype == w.dtype == dtype
        assert np.abs(g - w).max() <= tol * np.abs(w).max()


@pytest.mark.parametrize("tiles", [(256, 10), (4, 10), (4, 9)],
                         ids=["1 tile", "4+4+2 sequences", "4+5 sequences, no 1-sequence tile"])
@pytest.mark.parametrize("cls_only", [False, True], ids=["all queries", "cls_only"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_residual_norm_matches_its_composition(rng, monkeypatch, tiles, cls_only,
                                                         dtype):
    # The block over tiles of whole sequences: 3 tokens and an agg token
    # over 2 heads make 6 or, for cls_only, 2 softmax rows per sequence, and
    # at _TILE 4 the MLP splits a tile's rows too. Without PAD, then with a
    # PAD tail of one or two tokens that the tiles of the shortest sequences
    # trim.
    tile, n = tiles
    monkeypatch.setattr(ad, "_TILE", tile)
    leaves = _block_leaves(rng, n=n, t=3, d=4, dtype=dtype)
    seed = rng.standard_normal((n, 3, 4))[:, :1 if cls_only else 3]
    full = 0 if cls_only else n
    for lengths in (None, _lengths(n, 3)):
        _assert_block_matches_its_composition(leaves, lengths, full, True, seed)


@pytest.mark.parametrize("tile", [256, 4, 3])  # 1 tile; 4+4+2 rows; 3+3+4 rows, no 1-row tile
@pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float64),
                                    (np.float64, np.float32)],
                         ids=["float32", "float64", "float64 h, float32 weights"])
def test_mlp_residual_norm_matches_its_composition(rng, monkeypatch, tile, dtypes):
    # One tile of 2 sequences without agg or PAD, 10 rows, whose MLP runs
    # in sub-tiles of `tile` rows. Float32 weights meeting float64 input get
    # float64 gradients, summed in float64.
    monkeypatch.setattr(ad, "_TILE", tile)
    leaves = _block_leaves(rng, n=2, t=5, d=4, dtype=dtypes[0], w_dtype=dtypes[1])
    seed = rng.standard_normal((2, 5, 4))
    _assert_block_matches_its_composition(leaves, None, 2, False, seed)


@pytest.mark.parametrize("lengths, full", [(_MIXED_LENGTHS, 9), _SORTED_CASE],
                         ids=["mixed", "sorted"])
def test_block_with_mixed_rows_matches_its_composition(rng, monkeypatch, lengths, full):
    # 9 full sequences and 5 [CLS]-only ones with PAD, in 3 tiles; or the
    # tiles of sorted lengths, slices of the input
    monkeypatch.setattr(ad, "_TILE", 4)
    leaves = _block_leaves(rng, n=14, t=4, d=4)
    seed = rng.standard_normal((14, 4, 4))
    _assert_block_matches_its_composition(leaves, lengths, full, True, seed)


def test_block_gradients_do_not_depend_on_the_tile_size(rng, monkeypatch):
    leaves = _block_leaves(rng, n=14, t=4, d=4)
    seed = rng.standard_normal((14, 4, 4))
    runs = []
    for tile in (256, 8, 4, 3):
        monkeypatch.setattr(ad, "_TILE", tile)
        for t in leaves:
            t.zero_grad()
        out = _block(leaves, 2, _MIXED_LENGTHS, 9)
        out.backward(seed)
        runs.append([out.data] + [t.grad for t in leaves])
    # each within 1e-12 of its own largest entry
    for run in runs[1:]:
        for got, want in zip(run, runs[0], strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_block_rebuilds_ln2_rows_from_any_nonzero_gain(rng, monkeypatch):
    # float64, an agg token and PAD; 9 full and 5 [CLS]-only sequences in 3
    # tiles. Backward rebuilds LN2's xhat as (out - bias2) / gain2, here with
    # gains of magnitude 0.01 to 2 of either sign and nonzero biases.
    monkeypatch.setattr(ad, "_TILE", 4)
    assert len(ad._tile_plan(_MIXED_LENGTHS, 4, 9)) == 3
    leaves = _block_leaves(rng, n=14, t=4, d=4)
    gain, bias = leaves[-2:]
    gain.data = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.01, 2.0, 4)
    gain.data[:2] = -0.01, 2.0
    bias.data = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 1.5, 4)
    w = Tensor(rng.standard_normal((14, 4, 4)))
    finite_diff_check(lambda: (_block(leaves, 2, _MIXED_LENGTHS, 9) * w).sum(), leaves)


@pytest.mark.parametrize("lengths", [_MIXED_LENGTHS, np.sort(_MIXED_LENGTHS)],
                         ids=["mixed", "sorted"])
@pytest.mark.parametrize("tile", [256, 4], ids=["1 tile", "4 tiles"])
@pytest.mark.parametrize("agg", [True, False], ids=["agg", "no agg"])
def test_block_written_over_its_input_has_the_bits_of_a_fresh_output(rng, monkeypatch, lengths,
                                                                     tile, agg):
    # float32 like the model; 14 sequences of width 4 with PAD, whose x rows
    # are nonzero at PAD. Unsorted lengths make tiles of scattered sequences,
    # sorted ones slices, the full-width one written as a view.
    monkeypatch.setattr(ad, "_TILE", tile)
    leaves = _block_leaves(rng, n=14, t=4, d=4, dtype=np.float32)
    assert len(ad._tile_plan(lengths, 4, 14)) == (1 if tile == 256 else 4)
    pad = np.arange(4) >= lengths[:, None]
    assert leaves[0].data[pad].all()
    with ad.no_grad():
        want = _block(leaves, 2, lengths, 14, agg=agg).data
        buf = leaves[0].data.copy()
        got = _block([Tensor(buf), *leaves[1:]], 2, lengths, 14, agg=agg, out=buf)
    assert got.data is buf
    np.testing.assert_array_equal(buf, want)
    assert (buf[pad] == 0).all()


def test_out_raises_on_the_tape_and_with_cls_only_rows(rng):
    # backward reads x, so on the tape x must stay; with [CLS]-only rows the
    # output is not x's shape. Either raises before it writes anything.
    leaves = _block_leaves(rng, n=3, t=4, d=4)
    x = leaves[0].data.copy()
    with pytest.raises(ValueError, match="out"):
        _block(leaves, 2, _lengths(3, 4), 3, out=leaves[0].data)
    with ad.no_grad(), pytest.raises(ValueError, match="out"):
        _block(leaves, 2, _lengths(3, 4), 2, out=leaves[0].data)
    np.testing.assert_array_equal(leaves[0].data, x)


def test_a_zero_ln2_gain_raises_on_the_tape_only(rng):
    # On the tape, the rebuild would divide by 0 and give non-finite gradients;
    # off it nothing divides, and the output keeps the composition's bits.
    leaves = _block_leaves(rng, n=3, t=4, d=4, dtype=np.float32)
    leaves[-2].data[2] = 0.0
    with pytest.raises(FloatingPointError, match="LN2 gain entry 2 is 0"):
        _block(leaves, 2, None, 3)
    with ad.no_grad():
        out = _block(leaves, 2, None, 3)
        want = _block(leaves, 2, None, 3, _composition)
    np.testing.assert_array_equal(out.data, want.data)
    assert out._backward is None


def test_layer_norm_tiles_at_multiples_of_4_rows_keep_the_bits_of_one_call(rng):
    # post_norm_block runs its layer norms per tile of 4k sequences; row
    # sums go through a BLAS matrix-vector product, which groups rows by 4
    for dtype in (np.float32, np.float64):
        for d in (4, 8, 32, 33):
            x = rng.standard_normal((23, d)).astype(dtype)
            gain, bias = (Tensor(rng.standard_normal(d).astype(dtype)) for _ in range(2))
            whole = ad._layer_norm_(x, gain, bias)
            for tile in (4, 8, 12):
                starts = range(0, len(x), tile)
                parts = [ad._layer_norm_(x[a:a + tile], gain, bias) for a in starts]
                for got, want in zip(zip(*parts), whole, strict=True):
                    np.testing.assert_array_equal(np.concatenate(got), want)


# -- fused nodes ----------------------------------------------------------------
#
# Next to the block, each of its two sublayer steps runs with its gradient
# step as a tape node of its own, so a fault shows in the half it is in.


def _attention_step(x, agg, *rest):
    """ad._attention_residual_norm over every sequence as one tile, of
    ascending lengths `lens`, each with tq queries, with
    ad._attention_residual_norm_grad, as one tape node: the block's
    attention sublayer, h = LN1(xq + attention @ wo + bo)."""
    *ws, heads, lens, tq = rest
    seqs = np.arange(len(x.data))
    h, saved = ad._attention_residual_norm(x, agg, ws, heads, seqs, lens, tq)

    def backward(g):
        gx = np.zeros(x.shape, h.dtype)
        gagg = None if agg is None else np.empty(agg.shape, h.dtype)
        ad._attention_residual_norm_grad(g.reshape(h.shape), saved, ws, heads, seqs,
                                         int(lens[-1]), gx, gagg)
        x._accum(gx)
        if agg is not None:
            agg._accum(gagg)

    parents = tuple(p for p in (x, agg, *ws) if p is not None)
    return ad._make(h.reshape(len(x.data), tq, h.shape[-1]), parents, backward)


def _mlp_step(h, *ws):
    """ad._mlp_residual_norm over the rows of h, with
    ad._mlp_residual_norm_grad, as one tape node: the block's MLP sublayer,
    LN2(h + MLP(h)), its hidden layer in tiles of _TILE rows."""
    h2d = h.data.reshape(-1, h.shape[-1])
    dtype = np.result_type(h.data, *(p.data for p in ws))
    out, xhat, inv = (np.empty((len(h2d), w), dtype) for w in (h.shape[-1], h.shape[-1], 1))
    ad._mlp_residual_norm(h2d, ws, (out, xhat, inv))

    def backward(g):
        gh = ad._mlp_residual_norm_grad(g.reshape(out.shape), h2d, xhat, inv, ws)
        h._accum(gh.reshape(h.shape))

    return ad._make(out.reshape(h.shape), (h, *ws), backward)


def _fused_cases(rng, dtype, n=2):
    """(leaves, fused node, the unfused composition) for each fused node, on
    n sequences of 3 tokens, of lengths 2, 3, 2, 3, ..."""
    leaves = _block_leaves(rng, n=n, t=3, d=4, dtype=dtype)
    lengths = 2 + np.arange(n) % 2
    mask = _key_mask(lengths, 3, dtype)
    attention, mlp = leaves[:11], leaves[:1] + leaves[11:]
    return {
        "attention_residual_norm": (attention, lambda *ls: _attention_step(*ls, 2, lengths, 3),
                                    lambda *ls: attention_sublayer(*ls, 2, mask, False)),
        "mlp_residual_norm": (mlp, _mlp_step, _mlp_composition),
        "post_norm_block": (leaves, lambda *ls: _block(ls, 2, None, n),
                            lambda *ls: _block(ls, 2, None, n, _composition)),
        "post_norm_block, cls_only": (leaves, lambda *ls: _block(ls, 2, lengths, 0),
                                      lambda *ls: _block(ls, 2, lengths, 0, _composition)),
    }


_FUSED = ["attention_residual_norm", "mlp_residual_norm", "post_norm_block",
          "post_norm_block, cls_only"]


@pytest.mark.parametrize("case", _FUSED)
def test_fused_node_finite_differences(rng, case):
    leaves, fused, _ = _fused_cases(rng, np.float64)[case]
    w = Tensor(rng.standard_normal(fused(*leaves).shape))
    finite_diff_check(lambda: (fused(*leaves) * w).sum(), leaves)


@pytest.mark.parametrize("case", _FUSED)
def test_fused_node_equals_its_composition_bit_for_bit(rng, case):
    # Float32. Each node has the output bits of its composition. The two
    # sublayer steps have its gradient bits too; the block's backward
    # rebuilds LN2's normalized rows from its output, so its gradients are
    # within 1e-5 of each one's own largest entry.
    leaves, fused, composed = _fused_cases(rng, np.float32)[case]
    weights = rng.standard_normal(fused(*leaves).shape).astype(np.float32)
    results = []
    for op in (fused, composed):
        for t in leaves:
            t.zero_grad()
        out = op(*leaves)
        (out * weights).sum().backward()
        results.append((out, [t.grad for t in leaves]))
    (got, got_grads), (want, want_grads) = results
    assert got._parents == tuple(leaves)  # one tape node
    np.testing.assert_array_equal(got.data, want.data)
    for g_fused, g_composed in zip(got_grads, want_grads, strict=True):
        if case.startswith("post_norm_block"):
            assert np.abs(g_fused - g_composed).max() <= 1e-5 * np.abs(g_composed).max()
        else:
            np.testing.assert_array_equal(g_fused, g_composed)


@pytest.mark.parametrize("case", ["post_norm_block", "post_norm_block, cls_only"])
def test_fused_node_keeps_its_output_and_one_float_per_row(rng, case):
    # The block keeps its output, LN2's per-row inv, one float per query row
    # (a quarter of a d-wide row at d = 4), and its tile plan: two ints per
    # sequence. It rebuilds LN2's xhat from the output, so keeping xhat again
    # would add a d-wide array per query row and fail either case. The
    # composition would also keep the GEMMs' outputs and the residual sums:
    # q, k, v, their [agg; x] input, the softmax weights, the context, h and
    # LN1's xhat, and the MLP's 4d-wide hidden layer and gelu derivative. It
    # runs 5,400 or 1,800 query rows here, more than one tile.
    leaves, fused, _ = _fused_cases(rng, np.float32, n=1800)[case]
    tracemalloc.start()
    try:
        out = fused(*leaves)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    query_rows = 1800 if case.endswith("cls_only") else 5400
    d, itemsize = out.shape[-1], out.data.itemsize
    assert kept < out.data.nbytes + 0.5 * query_rows * d * itemsize + 2 * 8 * 1800


# np.add.reduceat adds a group's first row to a pairwise sum of the rest, so
# group sums may differ from np.add.at's running sums by a few ulps; inputs
# here are standard normal and groups hold at most three rows.
SUM_ATOL = 1e-14

ROW_INDEX_CASES = {
    "distinct": [4, 0, 2],
    "duplicates": [0, 2, 2, 4, 2, 0],
    "unsorted": [5, 3, 5, 1, 0, 3, 5],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(ROW_INDEX_CASES))
def test_take_rows_backward_matches_add_at_oracle(rng, case):
    idx = np.array(ROW_INDEX_CASES[case], dtype=np.intp)
    x = rand_tensor(rng, 6, 3)
    out = ad.take_rows(x, idx)
    g = rng.standard_normal((len(idx), 3))
    out.backward(g)
    np.testing.assert_allclose(x.grad, add_at_oracle(idx, g, 6), rtol=0, atol=SUM_ATOL)


@pytest.mark.parametrize("case", sorted(ROW_INDEX_CASES))
def test_segment_sum_matches_add_at_oracle(rng, case):
    # Segments 6 and 7 receive no rows, like a node with no sampled neighbours.
    seg = np.array(ROW_INDEX_CASES[case], dtype=np.intp)
    x = rand_tensor(rng, len(seg), 2, 3)
    out = ad.segment_sum(x, seg, 8)
    np.testing.assert_allclose(out.data, add_at_oracle(seg, x.data, 8), rtol=0, atol=SUM_ATOL)
    assert not out.data[6:].any()


def test_gather_elements_duplicates_match_add_at_oracle(rng):
    x = rand_tensor(rng, 3, 4)
    rows = np.array([2, 0, 2, 1, 2, 0])
    cols = np.array([1, 3, 1, 0, 1, 3])
    out = ad.gather_elements(x, rows, cols)
    g = rng.standard_normal(len(rows))
    out.backward(g)
    want = np.zeros((3, 4))
    np.add.at(want, (rows, cols), g)
    np.testing.assert_allclose(x.grad, want, rtol=0, atol=SUM_ATOL)


# -- dtype rule ---------------------------------------------------------------------


def _keys_mask():
    key_mask = np.ones((3, 5), dtype=bool)
    key_mask[0, 3:] = key_mask[2, 2:] = False
    return key_mask


_KEY_MASK = np.where(_keys_mask(), 0.0, -np.inf)  # additive, float64


def _block_params(d):
    """The shapes of post_norm_block's parameters at width d: the attention's
    wq, bq, wk, wv, bv, wo and bo and LN1's gain and bias, then the MLP's
    weights and biases at hidden width 4d and LN2's gain and bias."""
    return ([(d, d), (d,), (d, d)] + [(d, d), (d,)] * 2 + [(d,), (d,)]
            + [(d, 4 * d), (4 * d,), (4 * d, d), (d,), (d,), (d,)])

# Each case is (leaf shapes, op over the leaves). The constants (Python
# scalars, bool and float64 arrays) are the kinds the model feeds in.
DTYPE_CASES = {
    "add": ([(3, 4), (4,)], lambda a, b: a + b),
    "sub": ([(3, 4), (3, 1)], lambda a, b: a - b),
    "mul": ([(3, 4), (4,)], lambda a, b: a * b),
    "div": ([(3, 4), (3, 4)], lambda a, b: ad.div(a, b * b + 1.0)),
    "scalar operands": ([(3, 4)], lambda a: (a * 0.5 + 2 - 1.0) * (1.0 / 3.0)),
    "mean": ([(3, 4)], lambda a: ad.tsum(a, axis=0) * (1.0 / 3)),
    "bool mask": ([(3, 5, 2)], lambda a: a * _keys_mask()[:, :, None]),
    "float64 constant": ([(3, 4)], lambda a: a * np.arange(4.0)),
    "matmul": ([(2, 3, 4), (4, 5)], ad.matmul),
    "tsum": ([(3, 4)], lambda a: ad.tsum(a, axis=1, keepdims=True)),
    "exp": ([(3, 4)], ad.exp),
    "log": ([(3, 4)], lambda a: ad.log(a * a + 1.0)),
    "tanh": ([(3, 4)], ad.tanh),
    "gelu": ([(3, 4)], ad.gelu),
    "softplus": ([(3, 4)], ad.softplus),
    "reshape": ([(3, 4)], lambda a: ad.reshape(a, (4, 3))),
    "transpose": ([(3, 4)], lambda a: a.T),
    "concat with a zero pad": (
        [(3, 4)], lambda a: ad.concat([a, Tensor(np.zeros((3, 2), a.dtype))], axis=1)),
    "getitem": ([(3, 4)], lambda a: a[:, 1:3]),
    "take_rows": ([(3, 4)], lambda a: ad.take_rows(a, [2, 0, 2])),
    "segment_sum": ([(3, 4)], lambda a: ad.segment_sum(a, [1, 0, 1], 3)),
    "scatter_rows": ([(3, 4), (2, 4)], lambda a, b: ad.scatter_rows(a, [0, 2], b)),
    "gather_elements": ([(3, 4)], lambda a: ad.gather_elements(a, [0, 2, 2], [1, 3, 3])),
    "masked softmax": ([(3, 5)], lambda a: ad.softmax(a, _KEY_MASK)),
    "logsumexp": ([(3, 4)], ad.logsumexp),
    "layer_norm": ([(2, 3, 4), (4,), (4,)], ad.layer_norm),
    "linear with a bias": ([(2, 3, 4), (4, 5), (5,)], ad.linear),
    "attention_residual_norm": ([(2, 3, 4)] + _block_params(4)[:9],
                                lambda x, *rest: _attention_step(x, None, *rest, 2,
                                                                 np.full(2, 3), 1)),
    "mlp_residual_norm": ([(2, 3, 4)] + _block_params(4)[9:], _mlp_step),
    "post_norm_block": ([(2, 3, 4)] + _block_params(4),
                        lambda x, *rest: ad.post_norm_block(x, None, *rest, 2, np.full(2, 3), 0)),
    "masked attention": ([(3, 4, 8), (3, 8)] + _block_params(8),
                         lambda x, agg, *rest: ad.post_norm_block(
                             x, agg, *rest, 2, np.array([2, 4, 1]), 2)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(DTYPE_CASES))
def test_ops_keep_their_input_dtype(rng, case, dtype):
    """Output and gradients keep the leaves' dtype, also under a float64 seed."""
    shapes, op = DTYPE_CASES[case]
    leaves = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
    out = op(*leaves)
    assert out.dtype == dtype
    loss = (out * rng.standard_normal(out.shape)).sum()
    assert loss.dtype == dtype
    loss.backward()
    assert [t.grad.dtype for t in leaves] == [dtype] * len(leaves)
    for t in leaves:
        t.zero_grad()
    out.backward(np.ones(out.shape))
    assert [t.grad.dtype for t in leaves] == [dtype] * len(leaves)
