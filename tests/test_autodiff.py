"""Gradient checks for every autodiff primitive against central differences."""

import tracemalloc
import warnings

import numpy as np
import pytest

from odin import autodiff as ad
from odin.autodiff import Tensor

from helpers import (
    add_at_oracle,
    finite_diff_check,
    gelu_longdouble_oracle,
    gelu_oracle,
    linear_oracle,
    rand_tensor,
    rel_err,
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
    finite_diff_check(lambda: (a / b - b).sum(), [a, b])


def test_matmul_2d(rng):
    a = rand_tensor(rng, 3, 4)
    b = rand_tensor(rng, 4, 2)
    finite_diff_check(lambda: (a @ b).sum(), [a, b])


def test_matmul_batched_with_broadcast(rng):
    a = rand_tensor(rng, 2, 3, 4)
    b = rand_tensor(rng, 4, 5)
    w = rand_tensor(rng, 2, 5, 3)
    finite_diff_check(lambda: ((a @ b) @ w).sum(), [a, b, w])


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


def test_take_rows_duplicates_accumulate(rng):
    x = rand_tensor(rng, 5, 3)
    idx = np.array([0, 2, 2, 4])
    finite_diff_check(lambda: ad.take_rows(x, idx).sum(), [x])
    x.zero_grad()
    out = ad.take_rows(x, idx)
    out.backward(np.ones_like(out.data))
    assert x.grad[2, 0] == 2.0


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


def test_reshape_transpose(rng):
    a = rand_tensor(rng, 2, 3, 4)
    finite_diff_check(lambda: ad.transpose(a.reshape(2, 12), (1, 0)).sum(), [a])


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
    for g_fused, g_oracle in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g_fused, g_oracle)
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
