import math

import numpy as np
import pytest

from odin import autodiff as ad
from odin import encoder as enc
from odin import objectives as obj
from odin.autodiff import Tensor
from odin.encoder import ModelDims, build_vocab
from odin.fusion import LayerSchedule, tokenize_nodes
from odin.graph import TextGraph
from odin.config import RunConfig
from odin.objectives import (
    Adam,
    MaskPlan,
    mnp_loss,
    nmlm_loss,
    optimize,
    plan_masks,
    pretrain_step,
    softmax_xent,
)
from odin.runner import compute_embeddings, linkpred_loss
from odin.synth import SyntheticSpec, generate

from helpers import (
    AdamOracle,
    as_float64,
    finite_diff_check,
    in_batch_pair_loop_oracle,
    mnp_pair_loop_oracle,
    rand_tensor,
)

LN2 = math.log(2.0)


def path_graph():
    return TextGraph(("node zero text", "node one text", "node two text"),
                     frozenset({(0, 1), (1, 2)}))


def triangle_graph():
    return TextGraph(("a a", "b b", "c c"), frozenset({(0, 1), (0, 2), (1, 2)}))


def toks(*seqs):
    return {i: np.array(s, dtype=np.int64) for i, s in enumerate(seqs)}


def all_neighbors(g):
    """A neighbor pool holding every true neighbor of every node."""
    return {v: tuple(g.neighbors(v)) for v in range(g.num_nodes)}


# -- plan_masks -------------------------------------------------------------


def test_plan_masks_never_touches_cls_and_masks_at_least_one():
    g = path_graph()
    tokens = toks([1, 5, 6, 7], [1, 8], [1, 9, 9])
    plan, masked = plan_masks(tokens, g, 0.15, 0, 2, all_neighbors(g))
    for v, arr in masked.items():
        assert arr[0] == 1, "[CLS] must survive masking"
        assert len(plan.token_targets[v]) >= 1
        for pos, orig in plan.token_targets[v]:
            assert pos >= 1
            assert arr[pos] == 2
            assert tokens[v][pos] == orig


def test_plan_masks_ratio_is_approximate():
    g = TextGraph(tuple(f"t{i}" for i in range(2)), frozenset({(0, 1)}))
    tokens = {0: np.r_[1, np.full(400, 7)], 1: np.r_[1, np.full(400, 7)]}
    plan, _ = plan_masks(tokens, g, 0.15, 3, 2, all_neighbors(g))
    frac = plan.num_masked_tokens / 800
    assert 0.10 < frac < 0.20


def test_plan_masks_triangle_has_no_negatives():
    g = triangle_graph()
    plan, _ = plan_masks(toks([1, 4], [1, 5], [1, 6]), g, 0.3, 0, 2, all_neighbors(g))
    assert plan.node_pairs == {}
    assert plan.unpaired == 3


def test_plan_masks_path_pairs_are_forced():
    g = path_graph()
    plan, _ = plan_masks(toks([1, 4], [1, 5], [1, 6]), g, 0.3, 0, 2, all_neighbors(g))
    # enumerate eligibility: 0 must pair (1, 2); 2 must pair (1, 0); 1 has
    # no in-batch non-neighbor
    assert plan.node_pairs[0] == ((1, 2),)
    assert plan.node_pairs[2] == ((1, 0),)
    assert 1 not in plan.node_pairs
    assert plan.unpaired == 1


def test_plan_masks_deterministic():
    g = path_graph()
    tokens = toks([1, 4, 5, 6], [1, 5, 7], [1, 6])
    a = plan_masks(tokens, g, 0.3, 9, 2, all_neighbors(g))
    b = plan_masks(tokens, g, 0.3, 9, 2, all_neighbors(g))
    assert a[0] == b[0]
    assert all(np.array_equal(a[1][v], b[1][v]) for v in tokens)


def test_plan_masks_positive_pool_from_sampled_subgraph():
    # node 3 is outside the batch but inside the sampled neighborhood of 0,
    # so it is a legal positive; negatives still come from the batch
    g = TextGraph(("a", "b", "c", "d"), frozenset({(0, 3), (1, 2)}))
    tokens = toks([1, 4], [1, 5], [1, 6])  # batch = {0, 1, 2}
    pool = {0: (3,), 1: (2,), 2: (1,)}
    plan, _ = plan_masks(tokens, g, 0.3, 0, 2, pool)
    assert plan.node_pairs[0][0][0] == 3
    neg = plan.node_pairs[0][0][1]
    assert neg in (1, 2)  # batch members not adjacent to 0


# -- mnp_loss ------------------------------------------------------------------


def _check_against_oracle(vectorized, oracle, tensors):
    """Value within 1e-12 relative and gradients within 1e-12 absolute of the
    per-pair oracle; gradients also match finite differences."""
    assert abs(vectorized().item() - oracle().item()) <= 1e-12 * abs(oracle().item())
    grads = []
    for fn in (oracle, vectorized):
        for t in tensors:
            t.zero_grad()
        fn().backward()
        grads.append([t.grad.copy() for t in tensors])
    for want, got in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    finite_diff_check(vectorized, tensors)


def mnp(plan, *rows):
    """mnp_loss over [CLS] rows given for nodes 0, 1, 2, ..."""
    return mnp_loss(Tensor(np.array(rows, dtype=float)), range(len(rows)), plan)


def test_mnp_equal_scores_gives_ln2():
    plan = MaskPlan({}, {0: ((1, 2),)})
    assert abs(mnp(plan, [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]).item() - LN2) < 1e-12


def test_mnp_dominant_positive_goes_to_zero():
    plan = MaskPlan({}, {0: ((1, 2),)})
    assert mnp(plan, [30.0, 0.0], [30.0, 0.0], [-30.0, 0.0]).item() < 1e-12


def test_mnp_scalar_arithmetic_oracle():
    plan = MaskPlan({}, {0: ((1, 2),)})
    want = -math.log(math.e / (math.e + 1.0))  # 0.31326168751822286
    assert abs(mnp(plan, [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]).item() - want) < 1e-12


def test_mnp_empty_plan_is_zero():
    assert mnp_loss(Tensor(np.zeros((0, 2))), (), MaskPlan({}, {})).item() == 0.0


def test_mnp_sums_not_averages():
    plan = MaskPlan({}, {0: ((1, 2),), 3: ((1, 2),)})
    assert abs(mnp(plan, *[[0.0, 0.0]] * 4).item() - 2 * LN2) < 1e-12


def test_mnp_rows_follow_the_node_order():
    plan = MaskPlan({}, {7: ((3, 5),)})
    cls = Tensor(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))  # nodes 5, 7, 3
    want = -math.log(math.e / (math.e + 1.0))
    assert abs(mnp_loss(cls, (5, 7, 3), plan).item() - want) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mnp_matches_per_pair_oracle(seed):
    rng = np.random.default_rng(seed)
    nodes = tuple(int(v) for v in rng.permutation(20)[:9])
    node_pairs = {}
    for v in nodes[:6]:  # few nodes, many pairs: rows repeat as anchor, positive, negative
        node_pairs[v] = tuple((int(rng.choice(nodes)), int(rng.choice(nodes)))
                              for _ in range(int(rng.integers(1, 4))))
    plan = MaskPlan({}, node_pairs)
    cls = rand_tensor(rng, len(nodes), 5)
    _check_against_oracle(
        lambda: mnp_loss(cls, nodes, plan),
        lambda: mnp_pair_loop_oracle({v: cls[i] for i, v in enumerate(nodes)}, plan),
        [cls])


# -- in-batch softmax ----------------------------------------------------------------


def test_softmax_xent_matches_per_row_oracle():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 7))
    gold = [3, 0, 3, 6, 1]
    want = sum(np.log(np.exp(row).sum()) - row[k] for row, k in zip(logits, gold))
    assert abs(softmax_xent(Tensor(logits), gold).item() - want) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linkpred_loss_matches_per_pair_oracle(seed):
    rng = np.random.default_rng(seed)
    nodes = tuple(int(v) for v in rng.permutation(30)[:8])
    # heads and tails repeat, and a node can be a head in one pair, a tail in another
    pairs = [(int(rng.choice(nodes)), int(rng.choice(nodes[:4]))) for _ in range(10)]
    cls = rand_tensor(rng, len(nodes), 5)
    row = {v: cls[i] for i, v in enumerate(nodes)}
    tails = {v: row[v] for _, v in pairs}
    _check_against_oracle(lambda: linkpred_loss(cls, nodes, pairs),
                          lambda: in_batch_pair_loop_oracle(row, tails, pairs), [cls])


@pytest.mark.parametrize("seed", [0, 1])
def test_label_softmax_matches_per_pair_oracle(seed):
    # the retrieval fine-tune: nodes against a pool of label encodings, several
    # nodes sharing a gold label and one pool label that is no node's gold
    rng = np.random.default_rng(seed)
    nodes, pool = (2, 5, 6, 9, 11), (1, 3, 4, 8)
    gold = {2: 3, 5: 1, 6: 3, 9: 8, 11: 3}
    queries, keys = rand_tensor(rng, len(nodes), 5), rand_tensor(rng, len(pool), 5)
    _check_against_oracle(
        lambda: softmax_xent(ad.matmul(queries, keys.T), [pool.index(gold[v]) for v in nodes]),
        lambda: in_batch_pair_loop_oracle({v: queries[i] for i, v in enumerate(nodes)},
                                          {k: keys[j] for j, k in enumerate(pool)},
                                          [(v, gold[v]) for v in nodes]),
        [queries, keys])


# -- nmlm_loss -----------------------------------------------------------------


def tiny_params(vocab_size=50, d=8, depth=1):
    return enc.init_params(vocab_size, ModelDims(d=d, heads=2, max_len=8), depth, 0, seed=0)


def test_nmlm_uniform_logits_is_log_vocab():
    p = tiny_params(vocab_size=50)
    p.mlm_head.data[:] = 0.0  # all logits equal -> uniform softmax
    states = Tensor(np.random.default_rng(0).standard_normal((1, 4, 8)))
    plan = MaskPlan({7: ((1, 3), (2, 9))}, {})
    got = nmlm_loss(states, (7,), plan, p).item()
    assert abs(got - 2 * math.log(50)) < 1e-9


def test_nmlm_confident_correct_prediction_is_zero():
    p = tiny_params(vocab_size=6, d=6)
    p.mlm_head.data[:] = np.eye(6) * 1e6
    states = Tensor(np.eye(6)[None, :, :])  # state at pos k is basis vector k
    plan = MaskPlan({0: ((2, 2),)}, {})
    assert nmlm_loss(states, (0,), plan, p).item() < 1e-9


def test_nmlm_matches_softmax_ce_oracle():
    rng = np.random.default_rng(4)
    p = tiny_params(vocab_size=12, d=8)
    states = Tensor(rng.standard_normal((2, 5, 8)))
    plan = MaskPlan({0: ((1, 4),), 5: ((3, 7),)}, {})
    got = nmlm_loss(states, (0, 5), plan, p).item()

    want = 0.0
    for node, row in ((0, 0), (5, 1)):
        for pos, target in plan.token_targets[node]:
            logits = p.mlm_head.data @ states.data[row, pos]
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            want += -math.log(probs[target])
    assert abs(got - want) < 1e-6


def test_nmlm_empty_plan_is_zero():
    p = tiny_params()
    states = Tensor(np.zeros((1, 2, 8)))
    assert nmlm_loss(states, (0,), MaskPlan({}, {}), p).item() == 0.0


# -- gradients through the losses ----------------------------------------------


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    p = as_float64(tiny_params(vocab_size=10, d=4))
    states = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    cls = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    plan = MaskPlan({0: ((1, 3),), 1: ((2, 7),)}, {0: ((1, 2),)})

    def loss():
        return mnp_loss(cls, (0, 1, 2), plan) + nmlm_loss(states, (0, 1), plan, p)

    finite_diff_check(loss, [states, cls, p.mlm_head], probes=8, rng=rng)


# -- pretrain_step ------------------------------------------------------------------


def train_fixture(seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(20)]
    texts = tuple(" ".join(rng.choice(words, size=4)) for _ in range(12))
    edges = set()
    for v in range(1, 12):
        edges.add((int(rng.integers(0, v)), v))
    g = TextGraph(texts, frozenset(edges))
    vocab = build_vocab(g.texts)
    schedule = LayerSchedule(3, [1], "PG")
    params = enc.init_params(vocab.size, ModelDims(d=8, heads=2, max_len=8), 3, 1, seed)
    return g, vocab, schedule, params


def snapshot(params):
    return {n: p.data.copy() for n, p in params.named_parameters()}


def step(batch, g, params, schedule, optimizer, vocab, seed):
    tokens = tokenize_nodes(g, range(g.num_nodes), vocab, params.dims.max_len)
    return pretrain_step(batch, g, params, schedule, optimizer, vocab, tokens, seed,
                         fanout=3, mask_ratio=0.15)


def test_pretrain_step_zero_lr_leaves_params_bitwise():
    g, vocab, schedule, params = train_fixture()
    before = snapshot(params)
    rec = step([0, 1, 2, 3], g, params, schedule, Adam(0.0, 0.0), vocab, 5)
    after = snapshot(params)
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert rec["total"] >= 0.0


def test_pretrain_step_published_default_rates():
    cfg = RunConfig()
    p = cfg.pretrain
    assert p.lr_encoder == 1e-3 and p.lr_gnn == 1e-3
    assert p.batch_size == 32 and p.epochs == 10
    assert p.mask_ratio == 0.15 and cfg.sampler.fanout == 5


def test_pretrain_step_deterministic():
    g, vocab, schedule, params_a = train_fixture(seed=3)
    _, _, _, params_b = train_fixture(seed=3)
    rec_a = step([0, 1, 2], g, params_a, schedule, Adam(1e-3, 1e-2), vocab, 7)
    rec_b = step([0, 1, 2], g, params_b, schedule, Adam(1e-3, 1e-2), vocab, 7)
    assert rec_a["total"] == rec_b["total"]
    sa, sb = snapshot(params_a), snapshot(params_b)
    assert all(np.array_equal(sa[k], sb[k]) for k in sa)


def test_pretrain_step_group_learning_rates_differ():
    g, vocab, schedule, params = train_fixture(seed=4)
    before = snapshot(params)
    step([0, 1, 2, 4], g, params, schedule, Adam(0.0, 1e-2), vocab, 2)
    after = snapshot(params)
    assert np.array_equal(before["token_emb"], after["token_emb"])
    assert not np.array_equal(before["stages.0.w1"], after["stages.0.w1"])


class _GradRecorder:
    """An optimizer that moves nothing and keeps a float64 copy of each
    gradient it is handed."""

    def step(self, named):
        self.grads = {name: p.grad.astype(np.float64) for name, p in named
                      if p.grad is not None}


def test_pretrain_step_reports_the_gradient_norm_of_each_group():
    g, vocab, schedule, params = train_fixture(seed=6)
    optimizer = _GradRecorder()
    rec = step([0, 1, 2, 4], g, params, schedule, optimizer, vocab, 3)
    groups = {"stages": 0.0, "encoder": 0.0}
    for name, grad in optimizer.grads.items():
        groups["stages" if name.startswith("stages.") else "encoder"] += float((grad ** 2).sum())
    assert len(optimizer.grads) == len(list(params.named_parameters()))
    for group, squares in groups.items():
        assert squares > 0
        assert rec[f"grad_norm_{group}"] == pytest.approx(math.sqrt(squares), rel=1e-5)


def test_every_parameter_learns():
    # One float64 step: no parameter's gradient is rounding noise alone, as a
    # parameter no output depends on would have (an optimizer that scales
    # its steps, like Adam, would walk it at random).
    g = generate(SyntheticSpec(n_nodes=40, vocab_size=60, words_per_node=6, seed=0))
    vocab = build_vocab(g.texts)
    schedule = LayerSchedule(4, [1, 2], "PG")
    params = as_float64(enc.init_params(vocab.size, ModelDims(d=8, heads=2, max_len=8), 4, 2,
                                        seed=0))
    optimizer = _GradRecorder()
    step(list(range(16)), g, params, schedule, optimizer, vocab, 0)
    largest = {name: np.abs(grad).max() for name, grad in optimizer.grads.items()}
    assert sorted(largest) == sorted(name for name, _ in params.named_parameters())
    top = max(largest.values())
    assert [name for name, m in largest.items() if m < 1e-8 * top] == []


def test_adam_optimizer_state_round_trip():
    g, vocab, schedule, params = train_fixture(seed=5)
    optim = Adam(1e-3, 1e-3)
    step([0, 1, 2], g, params, schedule, optim, vocab, 1)
    state = optim.state_dict()
    fresh = Adam(1e-3, 1e-3)
    fresh.load_state_dict(state)
    assert fresh.t == optim.t
    assert all(np.array_equal(fresh.m[k], optim.m[k]) for k in optim.m)


def test_float32_step_keeps_every_array_float32():
    g, vocab, schedule, params = train_fixture(seed=5)
    optim = Adam(1e-3, 1e-3)
    step([0, 1, 2], g, params, schedule, optim, vocab, 1)
    named = dict(params.named_parameters())
    assert {p.dtype for p in named.values()} == {np.dtype(np.float32)}
    grads = [p.grad for p in named.values() if p.grad is not None]
    assert len(grads) == len(named) and {gr.dtype for gr in grads} == {np.dtype(np.float32)}
    assert sorted(optim.m) == sorted(optim.v) == sorted(named)
    assert {a.dtype for a in [*optim.m.values(), *optim.v.values()]} == {np.dtype(np.float32)}
    emb = compute_embeddings(g, range(g.num_nodes), params, schedule, vocab, fanout=3, seed=0)
    assert {e.dtype for e in emb.values()} == {np.dtype(np.float32)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_matches_the_textbook_formula_bit_for_bit(dtype):
    # in-place moments and two scratch arrays, the same operations in the same order
    rng = np.random.default_rng(8)
    shapes = {"token_emb": (6, 4), "stages.0.w1": (4, 4), "mlm_head": (3, 4)}
    start = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    got, want = Adam(1e-3, 1e-2), AdamOracle(1e-3, 1e-2)
    got_params = {name: Tensor(a.copy()) for name, a in start.items()}
    want_params = {name: Tensor(a.copy()) for name, a in start.items()}
    for i in range(6):
        for name, shape in shapes.items():
            # a spread of magnitudes, zeros among them; mlm_head skips step 2
            grad = (rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 3, shape)).astype(dtype)
            grad[rng.random(shape) < 0.2] = 0
            for params in (got_params, want_params):
                params[name].grad = None if (name, i) == ("mlm_head", 2) else grad.copy()
        got.step(list(got_params.items()))
        want.step(list(want_params.items()))
        for name in shapes:
            assert got_params[name].data.dtype == dtype
            assert got_params[name].data.tobytes() == want_params[name].data.tobytes(), (i, name)
            assert got.m[name].tobytes() == want.m[name].tobytes()
            assert got.v[name].tobytes() == want.v[name].tobytes()


# -- optimize ------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_optimize_on_non_finite_loss_touches_nothing(bad):
    g, vocab, schedule, params = train_fixture(seed=6)
    optim = Adam(1e-3, 1e-2)
    step([0, 1, 2], g, params, schedule, optim, vocab, 3)  # Adam state and grads are set
    before = snapshot(params)
    grads = {n: p.grad.copy() for n, p in params.named_parameters() if p.grad is not None}
    state = {"t": optim.t, "m": {k: v.copy() for k, v in optim.m.items()},
             "v": {k: v.copy() for k, v in optim.v.items()}}
    loss = params.token_emb.sum() * bad
    with pytest.raises(FloatingPointError):
        optimize(list(params.named_parameters()), optim, loss)
    after = snapshot(params)
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert all(np.array_equal(grads[n], p.grad) for n, p in params.named_parameters()
               if n in grads)
    assert optim.t == state["t"]
    for key in ("m", "v"):
        got = getattr(optim, key)
        assert sorted(got) == sorted(state[key])
        assert all(np.array_equal(got[k], state[key][k]) for k in got)


def test_optimize_steps_on_the_fresh_gradient():
    # the recorder sees the gradient itself; Adam's first step, about
    # lr * sign(g), could not tell a stale gradient from a fresh one
    rng = np.random.default_rng(12)
    params = as_float64(tiny_params(vocab_size=6, d=4))
    for _, p in params.named_parameters():
        p.grad = np.full_like(p.data, 5.0)  # stale
    weights = rng.standard_normal(params.token_emb.shape)
    optimizer = _GradRecorder()
    optimize(list(params.named_parameters()), optimizer, (params.token_emb * weights).sum())
    assert list(optimizer.grads) == ["token_emb"]
    np.testing.assert_array_equal(optimizer.grads["token_emb"], weights)


def test_mask_ratio_bounds():
    g = path_graph()
    with pytest.raises(ValueError):
        plan_masks(toks([1, 4]), g, 0.0, 0, 2, {})
    with pytest.raises(ValueError):
        plan_masks(toks([1, 4]), g, 1.0, 0, 2, {})
