import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odin import autodiff as ad
from odin import encoder as enc
from odin import fusion
from odin.autodiff import Tensor
from odin.config import RunConfig
from odin.encoder import ConfigError, ModelDims, build_vocab
from odin.fusion import LayerSchedule, light_preset, odin_forward, tokenize_nodes
from odin.graph import TextGraph
from odin.sampler import sample_frontiers

from helpers import (
    AggCache,
    finite_diff_check,
    per_node_forward,
    simple_aggregate,
    tg_aggregate,
)


def toy_graph(n=12, extra_edges=(), seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    texts = tuple(" ".join(rng.choice(words, size=rng.integers(2, 6))) for _ in range(n))
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    edges.update(extra_edges)
    return TextGraph(texts, frozenset((min(u, v), max(u, v)) for u, v in edges))


def build_model(graph, depth, positions, strategy="PG", d=8, heads=2, max_len=12, seed=0):
    vocab = build_vocab(graph.texts)
    schedule = LayerSchedule(depth, positions, strategy)
    params = enc.init_params(
        vocab.size, ModelDims(d=d, heads=heads, max_len=max_len), depth,
        len(positions), seed,
    )
    return vocab, schedule, params


def run_forward(graph, batch, schedule, params, vocab, fanout=8, seed=0, **kw):
    sub = sample_frontiers(graph, batch, schedule.hop_count, fanout, seed)
    tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
    return odin_forward(graph, sub, tokens, params, schedule, **kw), sub


# -- schedules -------------------------------------------------------------


def test_schedule_standard_three_stage():
    s = LayerSchedule(12, [1, 6, 11], "PG")
    assert s.hop_count == 3 and s.is_tg(6) and not s.is_tg(2)


def test_schedule_light_two_stage():
    assert LayerSchedule(6, [2, 4], "PG").hop_count == 2


def test_schedule_rejects_position_at_depth():
    with pytest.raises(ConfigError, match="12"):
        LayerSchedule(12, [12], "VA")


def test_schedule_rejects_duplicates_and_unsorted():
    with pytest.raises(ConfigError):
        LayerSchedule(6, [2, 2], "VA")
    with pytest.raises(ConfigError):
        LayerSchedule(6, [4, 2], "VA")


def test_schedule_rejects_zero():
    with pytest.raises(ConfigError):
        LayerSchedule(6, [0, 2], "VA")


@pytest.mark.parametrize("depth,positions,strategy,warns", [
    (6, [2, 4], "PG", True),
    (6, [2, 4], "PE", True),
    (6, [], "PG", True),
    (6, [1, 4], "PG", False),
    (6, [2, 4], "VA", False),
    (6, [2, 4], "ME", False),
    (1, [], "PG", False),
])
def test_schedule_warns_once_when_pe_pg_fall_back(caplog, depth, positions, strategy, warns):
    # the config check warns; constructing the same schedule stays silent
    cfg = RunConfig()
    cfg.schedule.depth, cfg.schedule.positions, cfg.schedule.strategy = depth, positions, strategy
    with caplog.at_level(logging.WARNING):
        cfg.validate()
        LayerSchedule(depth, positions, strategy)
    assert caplog.text.count("using VA") == int(warns)


def test_light_presets():
    a = light_preset("light-2,4")
    assert (a.depth, a.positions, a.strategy) == (6, (2, 4), "PG")
    b = light_preset("light-2")
    assert (b.depth, b.positions, b.strategy) == (6, (2,), "PG")
    with pytest.raises(ConfigError):
        light_preset("light-9")


# -- per-node aggregation oracles ---------------------------------------------


def test_tg_aggregate_weight_identities():
    d = 4
    zero, eye = Tensor(np.zeros((d, d))), Tensor(np.eye(d))
    self_cls = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    nbr = Tensor(np.array([5.0, 6.0, 7.0, 8.0]))
    np.testing.assert_allclose(tg_aggregate(self_cls, [nbr], zero, eye).data, self_cls.data)
    np.testing.assert_allclose(tg_aggregate(self_cls, [nbr], eye, zero).data, nbr.data)


def test_tg_aggregate_empty_neighborhood():
    d = 4
    rng = np.random.default_rng(0)
    w1, w2 = Tensor(rng.standard_normal((d, d))), Tensor(rng.standard_normal((d, d)))
    cls_self = Tensor(rng.standard_normal(d))
    np.testing.assert_allclose(
        tg_aggregate(cls_self, [], w1, w2).data, w2.data @ cls_self.data, atol=1e-12
    )


def test_tg_aggregate_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    d = 4
    w1, w2 = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    self_cls = rng.standard_normal(d)
    nbrs = [rng.standard_normal(d) for _ in range(3)]
    got = tg_aggregate(
        Tensor(self_cls), [Tensor(x) for x in nbrs], Tensor(w1), Tensor(w2)
    ).data
    want = w1 @ np.mean(nbrs, axis=0) + w2 @ self_cls
    assert np.max(np.abs(got - want)) < 1e-6


def test_tg_aggregate_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        tg_aggregate(Tensor(np.zeros(3)), [], Tensor(np.eye(4)), Tensor(np.eye(4)))


def empty_cache():
    return AggCache(stages=[])


def test_simple_aggregate_me_identical_vectors():
    u = Tensor(np.array([2.0, -1.0]))
    got = simple_aggregate("ME", u, [u, u, u], empty_cache(), 0)
    np.testing.assert_allclose(got.data, u.data)


def test_simple_aggregate_me_arithmetic_oracle():
    vecs = [Tensor(np.array(v)) for v in ([1.0, 0.0], [0.0, 1.0], [2.0, 3.0])]
    got = simple_aggregate("ME", Tensor(np.zeros(2)), vecs, empty_cache(), 0)
    np.testing.assert_allclose(got.data, [0.75, 1.0])


def test_simple_aggregate_pe_returns_cached_token_bit_identically():
    rng = np.random.default_rng(2)
    token = Tensor(rng.standard_normal(4))
    cache = AggCache(stages=[], tokens={7: token}, stage=0)
    got = simple_aggregate("PE", Tensor(np.zeros(4)), [], cache, 7)
    assert np.array_equal(got.data, token.data)


def test_simple_aggregate_pg_equals_tg():
    rng = np.random.default_rng(3)
    sp = enc.StageParams(
        w1=Tensor(rng.standard_normal((4, 4))), w2=Tensor(rng.standard_normal((4, 4)))
    )
    cache = AggCache(stages=[sp], stage=0)
    cls_self = Tensor(rng.standard_normal(4))
    nbrs = [Tensor(rng.standard_normal(4)) for _ in range(2)]
    got = simple_aggregate("PG", cls_self, nbrs, cache, 0)
    want = tg_aggregate(cls_self, nbrs, sp.w1, sp.w2)
    np.testing.assert_allclose(got.data, want.data, atol=1e-12)


def test_simple_aggregate_va_and_fallbacks(caplog):
    with caplog.at_level(logging.WARNING):
        assert simple_aggregate("VA", Tensor(np.zeros(2)), [], empty_cache(), 0) is None
        assert simple_aggregate("PE", Tensor(np.zeros(2)), [], empty_cache(), 0) is None
        assert simple_aggregate("PG", Tensor(np.zeros(2)), [], empty_cache(), 0) is None
    assert caplog.text.count("using VA") == 2


# -- forward pass -----------------------------------------------------------------


def per_node_transformer_cls(tokens, params):
    """Oracle: isolated per-node stack, no fusion machinery involved."""
    x = enc.embed_batch(tokens[None], params)
    for lp in params.layers:
        x = enc.transformer_block(x, None, lp, params.dims.heads)
    return x.data[0, 0]


def test_no_aggregation_schedule_equals_per_node_transformer():
    g = toy_graph(10)
    vocab, schedule, params = build_model(g, depth=3, positions=[], strategy="VA")
    res, _ = run_forward(g, range(10), schedule, params, vocab)
    for i, v in enumerate(res.batch_nodes):
        want = per_node_transformer_cls(
            fusion.tokenize(g.texts[v], vocab, params.dims.max_len), params
        )
        assert np.max(np.abs(res.cls.data[i] - want)) < 1e-6


def test_single_isolated_node_tg_layers_inject_self_term():
    g = TextGraph(("only one node here",), frozenset())
    vocab, schedule, params = build_model(g, depth=3, positions=[1], strategy="PG")
    res, _ = run_forward(g, [0], schedule, params, vocab)

    # audited sub-op composition: layer 0 plain, layer 1 with agg = W2 @ cls,
    # layer 2 PG reuses stage 0 weights on the newer cls
    tokens = fusion.tokenize(g.texts[0], vocab, params.dims.max_len)
    x = enc.embed_batch(tokens[None], params)
    x = enc.transformer_block(x, None, params.layers[0], 2)
    for layer in (1, 2):
        agg = tg_aggregate(x[0, 0], [], params.stages[0].w1, params.stages[0].w2)
        x = enc.transformer_block(x, ad.reshape(agg, (1, -1)), params.layers[layer], 2)
    assert np.max(np.abs(res.cls.data[0] - x.data[0, 0])) < 1e-9


def test_forward_standard_schedule_structure():
    g = toy_graph(200, seed=5)
    vocab, schedule, params = build_model(
        g, depth=12, positions=[1, 6, 11], strategy="PG", d=8, max_len=8
    )
    batch = list(range(8))
    res, sub = run_forward(g, batch, schedule, params, vocab, fanout=5, seed=3)
    assert res.batch_nodes == tuple(batch)
    assert res.cls.shape == (8, 8)
    assert set(res.base_nodes) >= set(batch)


def test_forward_deterministic():
    g = toy_graph(30, seed=2)
    vocab, schedule, params = build_model(g, 4, [1, 2], "ME")
    a, _ = run_forward(g, [0, 5, 7], schedule, params, vocab, seed=11)
    b, _ = run_forward(g, [0, 5, 7], schedule, params, vocab, seed=11)
    assert np.array_equal(a.cls.data, b.cls.data)


def test_forward_hop_mismatch_is_config_error():
    g = toy_graph(10)
    vocab, schedule, params = build_model(g, 4, [1, 2])
    sub = sample_frontiers(g, [0], 1, 4, 0)  # only one hop sampled
    tokens = tokenize_nodes(g, sub.base, vocab, params.dims.max_len)
    with pytest.raises(ConfigError, match="hop"):
        odin_forward(g, sub, tokens, params, schedule)


def test_forward_missing_tokens_error():
    g = toy_graph(10)
    vocab, schedule, params = build_model(g, 3, [1])
    sub = sample_frontiers(g, [0], 1, 4, 0)
    with pytest.raises(ValueError, match="missing token"):
        odin_forward(g, sub, {0: np.array([1])}, params, schedule)


def test_forward_non_finite_raises_with_location():
    g = toy_graph(6)
    vocab, schedule, params = build_model(g, 3, [1])
    params.token_emb.data[4] = np.inf
    sub = sample_frontiers(g, [0], 1, 4, 0)
    tokens = {v: np.array([1, 4]) for v in sub.base}
    with (pytest.warns(RuntimeWarning, match="invalid value"),
          pytest.raises(FloatingPointError, match="layer 0")):
        odin_forward(g, sub, tokens, params, schedule)


def test_stage_parameters_are_not_shared():
    """Perturbing a later stage's weights must not move earlier layers."""
    g = toy_graph(40, seed=7)
    vocab, schedule, params = build_model(g, 6, [1, 3], "PG", seed=4)
    res_a, _ = run_forward(g, [0, 1, 2], schedule, params, vocab, record_trace=True)
    # random perturbation: constant shifts are invisible against the zero-sum
    # coordinates layer-norm produces at unit-gain init
    params.stages[1].w1.data += 0.3 * np.random.default_rng(0).standard_normal((8, 8))
    res_b, _ = run_forward(g, [0, 1, 2], schedule, params, vocab, record_trace=True)
    trace_a, trace_b = res_a.cls_trace, res_b.cls_trace
    # layers 0..2 precede stage 1 (position 3): identical
    for l in range(3):
        assert np.array_equal(trace_a[l], trace_b[l]), f"layer {l} moved"
    assert not np.allclose(trace_a[3], trace_b[3])
    assert not np.allclose(res_a.cls.data, res_b.cls.data)


def test_mutating_first_stage_moves_everything_after():
    g = toy_graph(40, seed=8)
    vocab, schedule, params = build_model(g, 5, [1, 3], "PG", seed=5)
    res_a, _ = run_forward(g, [0, 1], schedule, params, vocab, record_trace=True)
    params.stages[0].w1.data += 0.3 * np.random.default_rng(1).standard_normal((8, 8))
    res_b, _ = run_forward(g, [0, 1], schedule, params, vocab, record_trace=True)
    assert np.array_equal(res_a.cls_trace[0], res_b.cls_trace[0])
    for l in range(1, 5):
        assert not np.allclose(res_a.cls_trace[l], res_b.cls_trace[l]), f"layer {l} froze"


def test_frozen_nodes_keep_last_state():
    g = toy_graph(60, seed=9)
    vocab, schedule, params = build_model(g, 4, [1, 2], "VA")
    res, sub = run_forward(g, [0], schedule, params, vocab, fanout=2, record_trace=True)
    outer = sorted(set(sub.base) - set(sub.budget(1)))
    if not outer:
        pytest.skip("sampling produced no outer-frontier nodes")
    pos = {v: i for i, v in enumerate(res.base_nodes)}
    rows = [pos[v] for v in outer]
    # outer nodes were last touched at layer 1 (the first aggregation layer)
    assert np.array_equal(res.cls_trace[1][rows], res.cls_trace[3][rows])
    active1 = sub.budget(1)
    changed = [pos[v] for v in active1]
    assert not np.allclose(res.cls_trace[1][changed], res.cls_trace[2][changed])


def test_identity_mode_matches_independent_gnn_oracle():
    g = toy_graph(25, seed=10)
    depth = 3
    vocab, schedule, params = build_model(g, depth, [1, 2], "PG", d=4)
    sub = sample_frontiers(g, [0, 3, 5], 2, fanout=3, seed=1)
    rng = np.random.default_rng(0)
    feats = {v: rng.standard_normal(4) for v in sub.base}
    res = odin_forward(
        g, sub, {}, params, schedule,
        identity_encoder=True, init_features=feats, record_trace=True,
    )

    # independent oracle: frontier-aware mean-aggregation message passing
    h = {v: feats[v].copy() for v in sub.base}
    traces = [np.stack([h[v] for v in sub.base])]
    m = 0
    for layer in (1, 2):
        active = sub.budget(m)
        upd = {}
        for v in active:
            nbrs = sub.sampled_adj.get(v, ())
            mean = np.mean([h[u] for u in nbrs], axis=0) if nbrs else np.zeros(4)
            w = params.stages[m]
            upd[v] = np.tanh(w.w1.data @ mean + w.w2.data @ h[v])
        h.update(upd)
        m += 1
        traces.append(np.stack([h[v] for v in sub.base]))
    pos = {v: i for i, v in enumerate(res.base_nodes)}
    rows = [pos[v] for v in sub.base]
    for got, want in zip(res.cls_trace, traces):
        assert np.max(np.abs(got[rows] - want)) < 1e-6


@pytest.mark.parametrize("strategy", ["VA", "ME", "PE", "PG"])
def test_forward_matches_per_node_reference(strategy, caplog):
    # layer 1 precedes the first stage (the PE/PG fallback), and fanout 2
    # leaves nodes that freeze after layer 2 and after layer 4
    g = toy_graph(40, extra_edges=((0, 9), (3, 17), (5, 30), (12, 33)), seed=13)
    with caplog.at_level(logging.WARNING):
        vocab, schedule, params = build_model(g, 6, [2, 4], strategy, seed=6)
        res, sub = run_forward(g, [0, 3, 5], schedule, params, vocab, fanout=2, seed=4)
    assert "using VA" not in caplog.text
    assert len(sub.batch) < len(sub.budget(1)) < len(sub.base)
    tokens = tokenize_nodes(g, sub.base, vocab, params.dims.max_len)
    want = per_node_forward(sub, tokens, params, schedule)
    for i, v in enumerate(res.batch_nodes):
        t = len(tokens[v])
        np.testing.assert_allclose(res.cls.data[i], want[v].data[0, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.final_states.data[i, :t], want[v].data[0],
                                   rtol=0, atol=1e-12)
    for i, v in enumerate(res.base_nodes):
        np.testing.assert_allclose(res.base_cls.data[i], want[v].data[0, 0],
                                   rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30), hops=st.integers(0, 3),
       fanout=st.integers(1, 4))
def test_base_nodes_put_every_frontier_first(seed, n, hops, fanout):
    g = toy_graph(n, seed=seed % 31)
    batch = {seed % n, (seed // 7) % n}
    sub = sample_frontiers(g, batch, hops, fanout, seed)
    schedule = LayerSchedule(hops + 1, range(1, hops + 1), "VA")
    params = enc.init_params(4, ModelDims(d=2, heads=1, max_len=4), hops + 1, hops, seed=0)
    feats = {v: np.full(2, float(v)) for v in sub.base}
    res = odin_forward(g, sub, {}, params, schedule, identity_encoder=True,
                       init_features=feats)
    assert res.base_nodes[:len(sub.batch)] == sub.batch
    for a in range(hops + 1):
        assert set(res.base_nodes[:len(sub.budget(a))]) == set(sub.budget(a))
    assert sorted(res.base_nodes) == list(sub.base)


def test_forward_gradients_flow_to_stage_weights():
    g = toy_graph(15, seed=11)
    vocab, schedule, params = build_model(g, 3, [1], "PG", d=4, max_len=6)
    res, _ = run_forward(g, [0, 1], schedule, params, vocab)
    loss = (res.cls * res.cls).sum()
    loss.backward()
    assert params.stages[0].w1.grad is not None
    assert np.any(params.stages[0].w1.grad != 0.0)


def test_forward_finite_difference_small():
    g = toy_graph(8, seed=12)
    vocab, schedule, params = build_model(g, 3, [1], "PG", d=4, max_len=5)
    sub = sample_frontiers(g, [0, 1], 1, fanout=2, seed=2)
    tokens = tokenize_nodes(g, sub.base, vocab, params.dims.max_len)
    weights = np.random.default_rng(0).standard_normal((len(sub.batch), 4))

    def loss():
        res = odin_forward(g, sub, tokens, params, schedule)
        return (res.cls * Tensor(weights)).sum()

    probes = [params.stages[0].w1, params.stages[0].w2, params.layers[1].wv,
              params.token_emb, params.layers[2].ln2_g]
    finite_diff_check(loss, probes, probes=4, rng=np.random.default_rng(1))


def test_encode_texts_isolated():
    g = toy_graph(6)
    vocab, schedule, params = build_model(g, 3, [1], "PG")
    out = fusion.encode_texts(["w1 w2", "w3"], params, schedule, vocab)
    assert out.shape == (2, 8)
    # isolated encoding must match a single-node forward on an edgeless graph
    lone = TextGraph(("w1 w2",), frozenset())
    sub = sample_frontiers(lone, [0], 1, 1, 0)
    tokens = tokenize_nodes(lone, [0], vocab, params.dims.max_len)
    res = odin_forward(lone, sub, tokens, params, schedule)
    assert np.max(np.abs(out.data[0] - res.cls.data[0])) < 1e-9
