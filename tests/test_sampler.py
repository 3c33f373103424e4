import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odin.fusion import LayerSchedule, light_preset
from odin.graph import TextGraph
from odin.sampler import SampledSubgraph, encoded_node_count, sample_frontiers


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return TextGraph(tuple(f"node {i}" for i in range(n)), frozenset(edges))


def bfs_closure(graph, batch, depth):
    """Oracle: exact closed neighborhood by breadth-first expansion."""
    seen = set(batch)
    frontier = set(batch)
    for _ in range(depth):
        nxt = set()
        for v in frontier:
            nxt.update(graph.neighbors(v))
        frontier = nxt - seen
        seen |= nxt
    return seen


def test_zero_hops():
    g = random_graph(10, 0.3, 0)
    sub = sample_frontiers(g, {5}, hops=0, fanout=4, seed=1)
    assert sub.frontiers == ((5,),)
    assert sub.sampled_adj == {}
    assert sub.batch == (5,) and sub.base == (5,)


def test_full_fanout_matches_bfs_oracle():
    g = random_graph(40, 0.12, 3)
    batch = {0, 7, 13}
    sub = sample_frontiers(g, batch, hops=2, fanout=g.max_degree(), seed=9)
    assert set(sub.base) == bfs_closure(g, batch, 2)
    assert set(sub.budget(1)) == bfs_closure(g, batch, 1)


def test_same_seed_identical():
    g = random_graph(60, 0.08, 4)
    a = sample_frontiers(g, {1, 2, 3}, 3, 2, seed=42)
    b = sample_frontiers(g, {1, 2, 3}, 3, 2, seed=42)
    assert a == b
    c = sample_frontiers(g, {1, 2, 3}, 3, 2, seed=43)
    assert a != c


def test_sample_is_order_independent():
    g = random_graph(60, 0.1, 5)
    small = sample_frontiers(g, {4}, 2, 3, seed=7)
    big = sample_frontiers(g, {4, 31}, 2, 3, seed=7)
    # node 4 is expanded at the same hop in both runs, so it samples alike
    assert small.sampled_adj[4] == big.sampled_adj[4]


def test_fanout_bound_and_subset_of_true_neighbors():
    g = random_graph(50, 0.3, 6)
    sub = sample_frontiers(g, {0, 1}, 2, 3, seed=0)
    for v, picked in sub.sampled_adj.items():
        assert len(picked) <= 3
        assert set(picked) <= set(g.neighbors(v))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 40),
    p=st.floats(0.02, 0.4),
    hops=st.integers(0, 3),
    fanout=st.integers(1, 6),
)
def test_subset_chain_property(seed, n, p, hops, fanout):
    g = random_graph(n, p, seed % 97)
    batch = {seed % n, (seed // 7) % n}
    sub = sample_frontiers(g, batch, hops, fanout, seed)
    for tighter, looser in zip(sub.frontiers, sub.frontiers[1:]):
        assert set(tighter) <= set(looser)
    # sampled neighbors of any frontier member live one frontier out
    for a in range(sub.hop_count, 0, -1):
        for v in sub.budget(a):
            assert set(sub.sampled_adj[v]) <= set(sub.budget(a - 1))


def test_low_degree_takes_all_neighbors():
    g = TextGraph(("a", "b", "c"), frozenset({(0, 1), (0, 2)}))
    sub = sample_frontiers(g, {0}, 1, fanout=5, seed=0)
    assert sub.sampled_adj[0] == (1, 2)


def test_invalid_arguments():
    g = random_graph(5, 0.5, 0)
    with pytest.raises(ValueError):
        sample_frontiers(g, set(), 1, 1, 0)
    with pytest.raises(ValueError):
        sample_frontiers(g, {0}, -1, 1, 0)
    with pytest.raises(ValueError):
        sample_frontiers(g, {0}, 1, 0, 0)
    with pytest.raises(IndexError):
        sample_frontiers(g, {99}, 1, 1, 0)


def test_encoded_node_count_by_hand():
    g = TextGraph(tuple(f"n{i}" for i in range(7)),
                  frozenset({(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6)}))
    sub = sample_frontiers(g, {0}, 2, fanout=5, seed=0)
    # depth 4, aggregation layers at 1 and 2: layers run over B0, B0, B1, B2
    b0, b1, b2 = len(sub.budget(0)), len(sub.budget(1)), len(sub.budget(2))
    assert encoded_node_count(sub, 4, [1, 2]) == b0 + b0 + b1 + b2


def test_encoded_counter_saturates():
    g = TextGraph(("a", "b"), frozenset({(0, 1)}))
    sub = sample_frontiers(g, {0}, 1, 2, seed=0)
    # more aggregation layers than hops: counter pins at the batch frontier
    n = encoded_node_count(sub, 5, [1, 2, 3, 4])
    assert n == len(sub.base) * 2 + len(sub.batch) * 3


def test_light_presets_encode_fewer_nodes_than_the_full_schedule():
    # Light Odin's cost claim, per pretrain batch: light-2 < light-2,4 < 1,6,11
    g = random_graph(40, 0.1, 8)
    counts = []
    for schedule in (light_preset("light-2"), light_preset("light-2,4"),
                     LayerSchedule(12, [1, 6, 11], "PG")):
        sub = sample_frontiers(g, range(4), schedule.hop_count, fanout=5, seed=0)
        counts.append(encoded_node_count(sub, schedule.depth, schedule.positions))
    assert counts[0] < counts[1] < counts[2]
