import numpy as np
import pytest

from odin.encoder import ModelDims, build_vocab, init_params
from odin.graph import TextGraph
from odin.sampler import sample_frontiers
from odin.synth import SyntheticSpec, generate
from odin.theory import (
    averaging_profile,
    gnn_reduction_check,
    mean_gnn_oracle,
    mean_pairwise_cosine,
    odin_profile,
    structural_separation_check,
    textual_separation_check,
    transformer_reduction_check,
)

from helpers import as_float64


def connected_graph(n=30, seed=0):
    return generate(SyntheticSpec(n_nodes=n, n_classes=3, vocab_size=40,
                                  words_per_node=6, seed=seed, avg_degree=5,
                                  ensure_connected=True))


# -- profile ---------------------------------------------------------------


def test_baseline_profile_collapses_on_connected_graph():
    g = connected_graph(30, seed=1)
    prof = averaging_profile(g, range(12), depth=16, seed=0)
    assert prof.depth == 16
    assert prof.final > 0.99
    # non-decreasing within slack
    for a, b in zip(prof.cosines, prof.cosines[1:]):
        assert b >= a - 1e-6


def test_identical_features_cosine_one_everywhere():
    g = connected_graph(15, seed=2)
    vecs = np.ones((10, 4))
    assert mean_pairwise_cosine(vecs) == pytest.approx(1.0)


def test_profile_requires_probe_size():
    g = connected_graph(20, seed=3)
    with pytest.raises(ValueError, match="at least 10"):
        averaging_profile(g, range(5), 4, 0)
    with pytest.raises(ValueError, match="at least 10"):
        odin_profile(g, range(5), 0)


def test_disconnected_probe_warns(caplog):
    g = TextGraph(tuple(f"t{i}" for i in range(12)),
                  frozenset({(i, i + 1) for i in range(5)}))
    import logging
    with caplog.at_level(logging.WARNING):
        averaging_profile(g, range(12), 2, 0)
    assert "not connected" in caplog.text


def test_fused_model_profile_stays_dispersed():
    from odin.theory import FUSED_THRESHOLD, collapse_gap_demo

    demo = collapse_gap_demo(seeds=(0,))
    prof = demo["odin"][0]
    assert prof.depth == 12
    assert prof.final < FUSED_THRESHOLD
    # dispersal, not collapse: the profile must trend down from its start
    assert prof.final < prof.cosines[0]
    base = demo["baseline"][0]
    assert base.final > base.cosines[0]


# -- reductions --------------------------------------------------------------


def reduction_fixture(seed=0):
    g = connected_graph(14, seed=5)
    vocab = build_vocab(g.texts)
    params = as_float64(init_params(vocab.size, ModelDims(d=8, heads=2, max_len=10), 3, 0, seed))
    return g, vocab, params


def test_transformer_reduction_deviation_tiny():
    g, vocab, params = reduction_fixture()
    dev = transformer_reduction_check(g, range(5), params, vocab)
    assert dev < 1e-6


def test_transformer_reduction_mutation_explodes():
    g, vocab, params = reduction_fixture(seed=1)
    params = init_params(build_vocab(g.texts).size, ModelDims(d=8, heads=2, max_len=10),
                         3, 1, seed=1)
    dev = transformer_reduction_check(g, range(5), params, vocab, sabotage_position=1)
    assert dev > 1e-3


def test_gnn_reduction_matches_oracle():
    g = connected_graph(30, seed=6)
    rng = np.random.default_rng(0)
    d = 4
    w1s = [rng.standard_normal((d, d)) * 0.5 for _ in range(2)]
    w2s = [rng.standard_normal((d, d)) * 0.5 for _ in range(2)]
    feats = {v: rng.standard_normal(d) for v in range(g.num_nodes)}
    dev = gnn_reduction_check(w1s, w2s, g, feats, batch=range(6), fanout=3, seed=2)
    assert dev < 1e-6


def test_gnn_reduction_zero_weights_zero_states():
    g = connected_graph(12, seed=7)
    d = 3
    w1s = [np.zeros((d, d))]
    w2s = [np.zeros((d, d))]
    feats = {v: np.ones(d) for v in range(g.num_nodes)}
    sub = sample_frontiers(g, range(4), 1, 4, 0)
    traj = mean_gnn_oracle(sub, feats, w1s, w2s)
    active = set(sub.budget(0))
    pos = {v: i for i, v in enumerate(sub.base)}
    assert all(np.all(traj[1][pos[v]] == 0.0) for v in active)
    dev = gnn_reduction_check(w1s, w2s, g, feats, batch=range(4), fanout=4)
    assert dev < 1e-12


def test_gnn_reduction_isolated_node_self_term_only():
    g = TextGraph(("a", "b"), frozenset())
    rng = np.random.default_rng(1)
    w1s = [rng.standard_normal((3, 3))]
    w2s = [rng.standard_normal((3, 3))]
    feats = {0: np.array([1.0, 2.0, 3.0]), 1: np.ones(3)}
    sub = sample_frontiers(g, [0, 1], 1, 2, 0)
    traj = mean_gnn_oracle(sub, feats, w1s, w2s)
    want = np.tanh(w2s[0] @ feats[0])
    np.testing.assert_allclose(traj[1][0], want, atol=1e-12)
    assert gnn_reduction_check(w1s, w2s, g, feats, [0, 1], 2) < 1e-12


# -- separations ------------------------------------------------------------------


def test_structural_separation_transformer_blind():
    res = structural_separation_check(seed=0)
    assert res.reduction < 1e-9
    assert res.fused > 1e-3


def test_structural_separation_needs_nonzero_w1():
    res = structural_separation_check(seed=0, zero_w1=True)
    assert res.fused < 1e-9


def test_structural_separation_over_seeds():
    hits = sum(structural_separation_check(seed=s).fused > 1e-3 for s in range(10))
    assert hits >= 9


def test_textual_separation_gnn_blind_full_model_sees():
    res = textual_separation_check(seed=0)
    assert res.reduction < 1e-9
    assert res.fused > 1e-3


def test_textual_separation_identical_text_control():
    res = textual_separation_check(seed=0, identical_texts=True)
    assert res.fused < 1e-6
