"""Layer scheduling and the fused forward pass.

An L-layer encoder runs layer 0 as a plain Transformer block over every
sampled node, then walks layers 1..L-1 over a shrinking frontier: layers
listed in the schedule aggregate neighbor [CLS] states through trainable
stage-specific weights (and consume one hop of the frontier); the remaining
layers apply one of four cheap aggregation strategies. Each layer's
aggregation output is prepended to that node's token sequence as attention
context for exactly one block.

Nodes that fall outside the current frontier freeze; later aggregations read
their last computed [CLS] state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import ConfigError, ParamSet, StageParams, embed_batch, tokenize, transformer_block
from .graph import TextGraph
from .sampler import SampledSubgraph, sample_frontiers

log = logging.getLogger(__name__)

STRATEGIES = ("VA", "ME", "PE", "PG")


@dataclass(frozen=True)
class LayerSchedule:
    """Total depth, the positions of trainable graph-aggregation layers, and
    the strategy the remaining layers use."""

    depth: int
    positions: tuple[int, ...]
    strategy: str

    @property
    def hop_count(self) -> int:
        return len(self.positions)

    def is_tg(self, layer: int) -> bool:
        return layer in self.positions


def make_schedule(depth: int, positions, strategy: str = "PG") -> LayerSchedule:
    positions = tuple(int(p) for p in positions)
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    bad = [p for p in positions if not 1 <= p <= depth - 1]
    if bad:
        raise ConfigError(
            f"aggregation positions {bad} out of range 1..{depth - 1} (layer 0 never "
            "aggregates and no aggregation may follow the last block)"
        )
    if len(set(positions)) != len(positions):
        raise ConfigError(f"duplicate aggregation positions in {positions}")
    if list(positions) != sorted(positions):
        raise ConfigError(f"aggregation positions must be increasing, got {positions}")
    if depth <= len(positions):
        raise ConfigError("depth must exceed the number of aggregation layers")
    return LayerSchedule(depth, positions, strategy)


_PRESETS = {
    "light-2,4": (6, (2, 4)),
    "light-2": (6, (2,)),
}


def light_preset(name: str) -> LayerSchedule:
    """Compact 6-layer schedules; the parameter-reusing strategy performed
    best for them, so they pin PG."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {sorted(_PRESETS)}")
    depth, positions = _PRESETS[name]
    return make_schedule(depth, positions, "PG")


# -- aggregation ---------------------------------------------------------------


def tg_aggregate(cls_self: Tensor, cls_neighbors, w1: Tensor, w2: Tensor) -> Tensor:
    """w1 @ mean(neighbor [CLS]) + w2 @ own [CLS]; empty neighborhoods
    contribute a zero mean term."""
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
    """Per-forward cache: the last graph-enhanced token of every node and the
    stage that produced it, plus the stage weights for parameter reuse."""

    stages: list[StageParams]
    rows: Tensor | None = None  # (num_base_nodes, d)
    stage: int | None = None
    node_to_row: dict[int, int] = field(default_factory=dict)

    @property
    def primed(self) -> bool:
        return self.stage is not None

    def lookup(self, node: int) -> Tensor:
        if not self.primed:
            raise ValueError("cache is empty before the first graph-aggregation layer")
        return self.rows[self.node_to_row[node]]

    def stage_weights(self) -> StageParams:
        if not self.primed:
            raise ValueError("no stage has run yet")
        return self.stages[self.stage]


def simple_aggregate(strategy, cls_self, cls_neighbors, cache: AggCache, node: int):
    """The four cheap strategies. Returns None when no token is injected.

    Parameter-reusing strategies requested before any aggregation stage has
    run degrade to VA (there is nothing to reuse yet).
    """
    if strategy == "VA":
        return None
    if strategy == "ME":
        stack = ad.concat(
            [ad.reshape(cls_self, (1, -1))] + [ad.reshape(c, (1, -1)) for c in cls_neighbors],
            axis=0,
        )
        return stack.mean(axis=0)
    if strategy in ("PE", "PG") and not cache.primed:
        log.warning("%s requested before the first aggregation stage; using VA", strategy)
        return None
    if strategy == "PE":
        return cache.lookup(node)
    if strategy == "PG":
        sp = cache.stage_weights()
        return tg_aggregate(cls_self, cls_neighbors, sp.w1, sp.w2)
    raise ConfigError(f"unknown strategy {strategy!r}")


# -- fused forward -----------------------------------------------------------------


@dataclass
class _Frontier:
    rows: np.ndarray          # positions of the active nodes within base order
    nbr_flat: np.ndarray      # positions of their sampled neighbors, concatenated
    nbr_seg: np.ndarray       # segment id into rows for each flat entry
    counts: np.ndarray        # (len(rows), 1) neighbor counts, float


@dataclass
class ForwardResult:
    batch_nodes: tuple[int, ...]      # sorted batch ids; rows of cls/final_states
    cls: Tensor                       # (B, d) final [CLS] per batch node
    final_states: Tensor              # (B, T, d) final token states per batch node
    lengths: np.ndarray               # (B,) true sequence lengths
    base_nodes: tuple[int, ...]       # all encoded nodes (B_0 order)
    base_cls: Tensor                  # (|B_0|, d) most recent [CLS] of every node
    hops_consumed: int                # value of the hop counter after the pass
    cls_trace: list[np.ndarray] | None = None  # per-layer (|B_0|, d) snapshots

    def cls_by_node(self) -> dict[int, Tensor]:
        return {v: self.cls[i] for i, v in enumerate(self.batch_nodes)}

    def cls_by_node_base(self) -> dict[int, Tensor]:
        """[CLS] per sampled node; frozen nodes expose their last state."""
        return {v: self.base_cls[i] for i, v in enumerate(self.base_nodes)}


def _build_frontiers(sub: SampledSubgraph, pos: dict[int, int]) -> list[_Frontier]:
    out = []
    for m in range(sub.hop_count + 1):
        nodes = sub.budget(m)
        rows = np.array([pos[v] for v in nodes], dtype=np.intp)
        flat, seg = [], []
        counts = np.zeros((len(nodes), 1))
        for i, v in enumerate(nodes):
            nbrs = sub.sampled_adj.get(v, ())
            counts[i, 0] = len(nbrs)
            flat.extend(pos[u] for u in nbrs)
            seg.extend([i] * len(nbrs))
        out.append(_Frontier(rows, np.array(flat, dtype=np.intp),
                             np.array(seg, dtype=np.intp), counts))
    return out


def _neighbor_mean(cls_all: Tensor, fr: _Frontier) -> Tensor:
    gathered = ad.take_rows(cls_all, fr.nbr_flat)
    sums = ad.segment_sum(gathered, fr.nbr_seg, len(fr.rows))
    return sums * (1.0 / np.maximum(fr.counts, 1.0))


def _batch_tg(cls_act: Tensor, mean_nb: Tensor, sp: StageParams) -> Tensor:
    return ad.matmul(mean_nb, sp.w1.T) + ad.matmul(cls_act, sp.w2.T)


def _check_finite(data: np.ndarray, layer: int, nodes, rows_local: np.ndarray):
    if np.isfinite(data).all():
        return
    bad_rows = np.where(~np.isfinite(data.reshape(data.shape[0], -1)).all(axis=1))[0]
    node = nodes[rows_local[bad_rows[0]]] if len(bad_rows) else "?"
    raise FloatingPointError(f"non-finite activation at layer {layer}, node {node}")


def pad_tokens(tokens_by_node, order):
    """Stack per-node id sequences into a (N, T) PAD-padded matrix."""
    lengths = np.array([len(tokens_by_node[v]) for v in order], dtype=np.intp)
    width = int(lengths.max())
    mat = np.zeros((len(order), width), dtype=np.int64)  # 0 is [PAD]
    for i, v in enumerate(order):
        mat[i, : lengths[i]] = tokens_by_node[v]
    return mat, lengths


def odin_forward(
    graph: TextGraph,
    sub: SampledSubgraph,
    tokens_by_node,
    params: ParamSet,
    schedule: LayerSchedule,
    *,
    identity_encoder: bool = False,
    init_features: dict | None = None,
    record_trace: bool = False,
    rows: int | None = None,
) -> ForwardResult:
    """Run the full layer stack over a sampled subgraph.

    Returns final [CLS] vectors (and final token states) for the batch
    frontier only. `rows`, if set, bounds how many nodes each Transformer
    block processes at once (see transformer_block); the result is the same.
    With identity_encoder=True the Transformer blocks are skipped and each
    aggregation layer updates the node state to tanh(aggregate(...))
    instead, turning the stack into a plain message-passing network over the
    same frontiers (a test hook).
    """
    if sub.hop_count != schedule.hop_count:
        raise ConfigError(
            f"schedule expects {schedule.hop_count} hop(s) but subgraph has "
            f"{sub.hop_count}"
        )
    base = sub.base
    pos = {v: i for i, v in enumerate(base)}
    frontiers = _build_frontiers(sub, pos)
    heads = params.dims.heads
    cache = AggCache(stages=params.stages)
    trace: list[np.ndarray] | None = [] if record_trace else None

    if identity_encoder:
        if init_features is None:
            raise ValueError("identity_encoder requires init_features")
        cls_all = Tensor(np.stack([np.asarray(init_features[v], dtype=np.float64)
                                   for v in base]))
        states = None
        lengths = np.ones(len(base), dtype=np.intp)
        key_mask = None
    else:
        missing = [v for v in base if v not in tokens_by_node]
        if missing:
            raise ValueError(f"missing token states for sampled node(s) {missing[:5]}")
        token_mat, lengths = pad_tokens(tokens_by_node, base)
        key_mask = np.arange(token_mat.shape[1])[None, :] < lengths[:, None]
        states = embed_batch(token_mat, params)
        states = transformer_block(states, None, params.layers[0], heads, key_mask, rows)
        _check_finite(states.data, 0, base, np.arange(len(base), dtype=np.intp))
        cls_all = states[:, 0, :]
    if trace is not None:
        trace.append(cls_all.data.copy())

    m = 0
    stage_ptr = 0
    warned_fallback = False
    for layer in range(1, schedule.depth):
        fr = frontiers[min(m, sub.hop_count)]
        cls_act = ad.take_rows(cls_all, fr.rows)
        is_tg = schedule.is_tg(layer)

        agg = None
        if is_tg:
            sp = params.stages[stage_ptr]
            agg = _batch_tg(cls_act, _neighbor_mean(cls_all, fr), sp)
        elif schedule.strategy == "ME":
            total = ad.segment_sum(ad.take_rows(cls_all, fr.nbr_flat), fr.nbr_seg, len(fr.rows))
            agg = (total + cls_act) * (1.0 / (fr.counts + 1.0))
        elif schedule.strategy == "PE":
            if cache.primed:
                agg = ad.take_rows(cache.rows, fr.rows)
            elif not warned_fallback:
                log.warning("PE before the first aggregation stage; using VA")
                warned_fallback = True
        elif schedule.strategy == "PG":
            if cache.primed:
                agg = _batch_tg(cls_act, _neighbor_mean(cls_all, fr), cache.stage_weights())
            elif not warned_fallback:
                log.warning("PG before the first aggregation stage; using VA")
                warned_fallback = True

        if identity_encoder:
            new_cls = ad.tanh(agg) if agg is not None else cls_act
            cls_all = ad.scatter_rows(cls_all, fr.rows, new_cls)
            _check_finite(new_cls.data, layer, base, fr.rows)
        else:
            sub_states = ad.take_rows(states, fr.rows)
            new_sub = transformer_block(
                sub_states, agg, params.layers[layer], heads, key_mask[fr.rows], rows
            )
            _check_finite(new_sub.data, layer, base, fr.rows)
            states = ad.scatter_rows(states, fr.rows, new_sub)
            cls_all = ad.scatter_rows(cls_all, fr.rows, new_sub[:, 0, :])

        if is_tg:
            if cache.rows is None:
                cache.rows = Tensor(np.zeros_like(cls_all.data))
                cache.node_to_row = pos
            cache.rows = ad.scatter_rows(cache.rows, fr.rows, agg)
            cache.stage = stage_ptr
            stage_ptr += 1
            m += 1
        if trace is not None:
            trace.append(cls_all.data.copy())

    batch_rows = np.array([pos[v] for v in sub.batch], dtype=np.intp)
    cls_out = ad.take_rows(cls_all, batch_rows)
    if identity_encoder:
        final_states = ad.reshape(cls_out, (len(batch_rows), 1, -1))
    else:
        final_states = ad.take_rows(states, batch_rows)
    return ForwardResult(
        batch_nodes=sub.batch,
        cls=cls_out,
        final_states=final_states,
        lengths=lengths[batch_rows],
        base_nodes=base,
        base_cls=cls_all,
        hops_consumed=m,
        cls_trace=trace,
    )


def tokenize_nodes(graph: TextGraph, nodes, vocab, max_len: int) -> dict[int, np.ndarray]:
    return {v: tokenize(graph.texts[v], vocab, max_len) for v in nodes}


def encode_texts(texts, params: ParamSet, schedule: LayerSchedule, vocab) -> Tensor:
    """Encode free-standing texts (no graph context): every aggregation sees
    an empty neighborhood, so only the self term contributes."""
    g = TextGraph(tuple(texts), frozenset())
    sub = sample_frontiers(g, range(len(texts)), schedule.hop_count, fanout=1, seed=0)
    tokens = tokenize_nodes(g, range(len(texts)), vocab, params.dims.max_len)
    res = odin_forward(g, sub, tokens, params, schedule)
    return res.cls
