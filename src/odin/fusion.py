"""Layer scheduling and the fused forward pass.

An L-layer encoder runs layer 0 as a plain Transformer block over every
sampled node, then walks layers 1..L-1 over a shrinking frontier: layers
listed in the schedule aggregate neighbor [CLS] states through trainable
stage-specific weights (and consume one hop of the frontier); the remaining
layers apply one of four cheap aggregation strategies. Each layer's
aggregation output is prepended to that node's token sequence as attention
context for exactly one block.

The frontiers are nested (B_A ⊂ ... ⊂ B_0), so the forward keeps B_0 in
prefix order: the sorted batch B_A first, then each ring B_{a-1} \\ B_a,
sorted. Every frontier is then the first |B_a| rows, and a layer runs on a
slice. Nodes that fall outside the current frontier freeze: their [CLS] row
keeps the value of the last layer that ran them, and later aggregations read
it there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import ConfigError, ParamSet, StageParams, embed_batch, tokenize, transformer_block
from .graph import TextGraph
from .sampler import SampledSubgraph, sample_frontiers

STRATEGIES = ("VA", "ME", "PE", "PG")


@dataclass
class LayerSchedule:
    """The `schedule` section of a run config: total depth, the positions of
    trainable graph-aggregation layers, and the strategy the other layers
    use. A Light Odin preset is one value of it. check() runs on construction
    and from RunConfig.validate, as a config sets fields one at a time."""

    depth: int = 12
    positions: tuple[int, ...] = (1, 6, 11)
    strategy: str = "PG"

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ConfigError on a malformed schedule; make positions a tuple of ints."""
        self.positions = tuple(int(p) for p in self.positions)
        depth, positions, strategy = self.depth, self.positions, self.strategy
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
        # distinct positions in 1..depth-1 leave depth > hop_count
        if list(positions) != sorted(set(positions)):
            raise ConfigError(f"aggregation positions must be strictly increasing, "
                              f"got {positions}")

    @property
    def hop_count(self) -> int:
        return len(self.positions)

    def is_tg(self, layer: int) -> bool:
        return layer in self.positions


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
    return LayerSchedule(depth, positions, "PG")


# -- fused forward -----------------------------------------------------------------


@dataclass
class _Frontier:
    size: int                 # active nodes: the first `size` rows of the prefix order
    nbr_flat: np.ndarray      # rows of their sampled neighbors, concatenated
    nbr_seg: np.ndarray       # active row of each flat entry
    counts: np.ndarray        # (size, 1) neighbor counts


@dataclass
class ForwardResult:
    batch_nodes: tuple[int, ...]      # sorted batch ids; rows of cls/final_states
    cls: Tensor                       # (B, d) final [CLS] per batch node
    final_states: Tensor              # (B, T, d) final token states per batch node;
                                      # exactly 0 at PAD positions
    base_nodes: tuple[int, ...]       # row order of base_cls and cls_trace: the prefix
                                      # order of B_0 (batch first), not sorted
    base_cls: Tensor                  # (|B_0|, d) last computed [CLS] of every node;
                                      # a frozen node keeps the row it had when it left
    cls_trace: list[np.ndarray] | None = None  # per-layer (|B_0|, d) snapshots


def _prefix_order(sub: SampledSubgraph) -> tuple[int, ...]:
    """B_A, then each ring B_{a-1} \\ B_a, each sorted: every frontier B_a is
    the first |B_a| nodes."""
    order: list[int] = []
    seen: set[int] = set()
    for front in sub.frontiers:
        ring = [v for v in front if v not in seen]
        order.extend(ring)
        seen.update(ring)
    return tuple(order)


def _build_frontiers(sub: SampledSubgraph, order) -> list[_Frontier]:
    # the neighbor lists are concatenated in row order, so each frontier's
    # entries are a prefix of the flat arrays
    row = {v: i for i, v in enumerate(order)}
    nbrs = [sub.sampled_adj.get(v, ()) for v in order]
    counts = np.array([len(x) for x in nbrs], dtype=np.intp)
    flat = np.array([row[u] for x in nbrs for u in x], dtype=np.intp)
    seg = np.repeat(np.arange(len(order), dtype=np.intp), counts)
    ends = np.concatenate([[0], np.cumsum(counts)])
    out = []
    for m in range(sub.hop_count + 1):
        n = len(sub.budget(m))
        out.append(_Frontier(n, flat[:ends[n]], seg[:ends[n]], counts[:n, None]))
    return out


def _neighbor_mean(cls_all: Tensor, fr: _Frontier) -> Tensor:
    gathered = ad.take_rows(cls_all, fr.nbr_flat)
    sums = ad.segment_sum(gathered, fr.nbr_seg, fr.size)
    return sums * (1.0 / np.maximum(fr.counts, 1.0))


def _batch_tg(cls_act: Tensor, mean_nb: Tensor, sp: StageParams) -> Tensor:
    return ad.matmul(mean_nb, sp.w1.T) + ad.matmul(cls_act, sp.w2.T)


def _check_finite(data: np.ndarray, layer: int, order):
    """Rows of `data` are the first rows of the prefix order."""
    if np.isfinite(data).all():
        return
    bad_rows = np.where(~np.isfinite(data.reshape(data.shape[0], -1)).all(axis=1))[0]
    node = order[bad_rows[0]] if len(bad_rows) else "?"
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
    init_features: dict | None = None,
    record_trace: bool = False,
    rows: int | None = None,
) -> ForwardResult:
    """Run the full layer stack over a sampled subgraph.

    Returns final [CLS] vectors (and final token states) for the batch
    frontier only. `rows`, if set, bounds how many nodes each Transformer
    block processes at once, in chunks trimmed of PAD (see
    transformer_block); the result is the same up to rounding.
    Given `init_features` (node -> vector), the text encoder is the
    identity: `tokens_by_node` is ignored, the Transformer blocks are skipped
    and each layer sets the active nodes' state to tanh(aggregate(...))
    instead (nodes keep their state when the layer injects nothing). That
    turns the stack into a plain message-passing network over the same
    frontiers, the reduction the theory checks compare against.
    """
    if sub.hop_count != schedule.hop_count:
        raise ConfigError(
            f"schedule expects {schedule.hop_count} hop(s) but subgraph has "
            f"{sub.hop_count}"
        )
    # extra stages are allowed: the separation checks run a model under a schedule with none
    if len(params.layers) != schedule.depth or len(params.stages) < schedule.hop_count:
        raise ConfigError(f"a model of {len(params.layers)} layers and {len(params.stages)} "
                          f"stage(s) does not fit {schedule}")
    order = _prefix_order(sub)
    frontiers = _build_frontiers(sub, order)
    heads = params.dims.heads
    trace: list[np.ndarray] | None = [] if record_trace else None

    identity_encoder = init_features is not None
    if identity_encoder:
        cls_all = Tensor(np.stack([init_features[v] for v in order]))
        states = None
    else:
        missing = [v for v in order if v not in tokens_by_node]
        if missing:
            raise ValueError(f"missing token states for sampled node(s) {missing[:5]}")
        token_mat, lengths = pad_tokens(tokens_by_node, order)
        key_mask = np.arange(token_mat.shape[1])[None, :] < lengths[:, None]
        states = embed_batch(token_mat, params)
        states = transformer_block(states, None, params.layers[0], heads, key_mask, rows)
        _check_finite(states.data, 0, order)
        cls_all = states[:, 0, :]
    if trace is not None:
        trace.append(cls_all.data.copy())

    # m counts the aggregation stages run so far; it selects the frontier,
    # and stage m - 1 produced last_agg
    m = 0
    last_agg = None
    for layer in range(1, schedule.depth):
        fr = frontiers[min(m, sub.hop_count)]
        n = fr.size
        cls_act = cls_all[:n]
        is_tg = schedule.is_tg(layer)

        agg = None
        if is_tg:
            agg = _batch_tg(cls_act, _neighbor_mean(cls_all, fr), params.stages[m])
        elif schedule.strategy == "ME":
            total = ad.segment_sum(ad.take_rows(cls_all, fr.nbr_flat), fr.nbr_seg, n)
            agg = (total + cls_act) * (1.0 / (fr.counts + 1.0))
        # PE and PG have nothing to reuse before the first stage, so those
        # layers run as VA (RunConfig.validate warns)
        elif schedule.strategy == "PE" and m > 0:
            agg = last_agg[:n]
        elif schedule.strategy == "PG" and m > 0:
            agg = _batch_tg(cls_act, _neighbor_mean(cls_all, fr), params.stages[m - 1])

        if identity_encoder:
            new_cls = cls_act if agg is None else ad.tanh(agg)
            _check_finite(new_cls.data, layer, order)
        else:
            if n < states.shape[0]:
                states = states[:n]
                key_mask = key_mask[:n]
            states = transformer_block(states, agg, params.layers[layer], heads,
                                       key_mask, rows)
            _check_finite(states.data, layer, order)
            new_cls = states[:, 0, :]
        cls_all = ad.concat([new_cls, cls_all[n:]]) if n < len(order) else new_cls

        if is_tg:
            last_agg = agg
            m += 1
        if trace is not None:
            trace.append(cls_all.data.copy())

    b = len(sub.batch)
    cls_out = cls_all[:b]
    if identity_encoder:
        final_states = ad.reshape(cls_out, (b, 1, -1))
    else:
        final_states = states[:b]
    return ForwardResult(
        batch_nodes=sub.batch,
        cls=cls_out,
        final_states=final_states,
        base_nodes=order,
        base_cls=cls_all,
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
