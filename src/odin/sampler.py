"""Minibatch multi-hop frontier sampling.

Starting from the batch B_A, each expansion unions the current frontier with
a bounded sample of its neighbors: B_{a-1} = B_a ∪ sample(neighbors(B_a)),
down to B_0. A node's neighbor sample is drawn once, the first time it is
expanded, from a sub-seed of (seed, node, hop), so the frontiers do not
depend on iteration order. They do depend on the batch: the hop in the
sub-seed is the one at which the node is first expanded, which is the full
hop count for a batch node and smaller for a node first reached as a
neighbor, so the same node can draw different neighbors in different batches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import TextGraph
from .rngutil import generator


@dataclass(frozen=True)
class SampledSubgraph:
    """Frontier chain [B_A, ..., B_0] plus the restricted adjacency used to
    build it. frontiers[i] is B_{A-i}, each a sorted tuple of node ids."""

    frontiers: tuple[tuple[int, ...], ...]
    sampled_adj: dict[int, tuple[int, ...]]
    hop_count: int

    def budget(self, a: int) -> tuple[int, ...]:
        """Frontier B_a (a = hop budget remaining; budget(0) is the largest)."""
        if not 0 <= a <= self.hop_count:
            raise IndexError(f"hop budget {a} out of range [0, {self.hop_count}]")
        return self.frontiers[self.hop_count - a]

    @property
    def batch(self) -> tuple[int, ...]:
        return self.frontiers[0]

    @property
    def base(self) -> tuple[int, ...]:
        """B_0, every node that receives token states."""
        return self.frontiers[-1]


def _sample_neighbors(graph: TextGraph, node: int, fanout: int, seed: int, hop: int):
    nbrs = graph.neighbors(node)
    if len(nbrs) <= fanout:
        return nbrs
    rng = generator(seed, "nbr", node, hop)
    picked = rng.choice(len(nbrs), size=fanout, replace=False)
    return tuple(nbrs[i] for i in sorted(picked))


def sample_frontiers(
    graph: TextGraph, batch, hops: int, fanout: int, seed: int
) -> SampledSubgraph:
    """Expand `batch` outward for `hops` rounds with at most `fanout` sampled
    neighbors per node. All neighbors are taken when degree <= fanout."""
    if hops < 0:
        raise ValueError("hops must be >= 0")
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    batch = tuple(sorted(set(batch)))
    if not batch:
        raise ValueError("batch must be non-empty")
    for v in batch:
        if not 0 <= v < graph.num_nodes:
            raise IndexError(f"batch node {v} out of range")
    frontiers = [batch]
    sampled_adj: dict[int, tuple[int, ...]] = {}
    current = set(batch)
    for a in range(hops, 0, -1):
        nxt = set(current)
        for v in sorted(current):
            if v not in sampled_adj:
                sampled_adj[v] = _sample_neighbors(graph, v, fanout, seed, a)
            nxt.update(sampled_adj[v])
        current = nxt
        frontiers.append(tuple(sorted(current)))
    return SampledSubgraph(tuple(frontiers), sampled_adj, hops)


def encoded_node_count(sub: SampledSubgraph, depth: int, tg_positions) -> int:
    """Total node encodings one forward pass performs with token states (as
    pretraining runs it): layer 0 runs over B_0, and each later layer runs
    over the frontier selected by the hop counter, which advances after every
    graph-aggregation layer. The count includes the node-layers that run
    their [CLS] row only, those of nodes leaving the frontier after that
    layer; a forward without token states runs only the batch at the last
    layer, not its whole frontier."""
    positions = set(tg_positions)
    total = len(sub.base)
    m = 0
    for layer in range(1, depth):
        total += len(sub.budget(min(m, sub.hop_count)))
        if layer in positions:
            m += 1
    return total
