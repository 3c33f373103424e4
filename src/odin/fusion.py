"""Layer scheduling and the fused forward pass.

An L-layer encoder runs layer 0 as a plain Transformer block over every
sampled node, then walks layers 1..L-1 over a shrinking frontier: layers
listed in the schedule aggregate neighbor [CLS] states through trainable
stage-specific weights (and consume one hop of the frontier); the remaining
layers apply one of four cheap aggregation strategies. A stage's aggregation
(at a scheduled layer, or a PG layer reusing the last stage) is one tape
node, `ad.stage_aggregate`, that keeps only the neighbor mean. Each layer's
aggregation output is prepended to that node's token sequence as attention
context for exactly one block.

The frontiers are nested (B_A ⊂ ... ⊂ B_0), so the forward keeps B_0 in
prefix order: the sorted batch B_A first, then each ring B_{a-1} \\ B_a,
sorted. Every frontier is then the first |B_a| rows, and a layer runs on a
slice. Nodes that fall outside the current frontier freeze: their [CLS] row
keeps the value of the last layer that ran them, and later aggregations read
it there.

Aggregation reads only [CLS] states, so a node's token states matter only
while the next layer runs it. Each block therefore keeps full token states
for the rows the next layer runs and computes only the [CLS] row of the
others, the nodes that leave the frontier after it. The last layer's reader
is the caller: it keeps token states for the batch only when asked
(`token_states`, for the masked-token loss), and otherwise runs just the
batch's [CLS], so the other nodes of its frontier freeze one layer earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import ConfigError, ParamSet, embed_batch, tokenize, transformer_block
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
    final_states: Tensor | None       # (B, T, d) final token states per batch node,
                                      # exactly 0 at PAD positions; None unless the
                                      # forward ran with token_states and a text encoder
    base_nodes: tuple[int, ...]       # row order of base_cls and cls_trace: the prefix
                                      # order of B_0 (batch first), not sorted
    base_cls: Tensor                  # (|B_0|, d) last computed [CLS] of every node: a
                                      # node keeps the row of the last layer that ran it,
                                      # which without token_states is layer L-2 for the
                                      # last frontier's non-batch nodes
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


def _check_finite(states: Tensor | None, cls: Tensor, layer: int, order):
    """Raise on a non-finite [CLS] row or token state of a layer's output;
    rows of both are the first rows of the prefix order."""
    for data in (cls.data, None if states is None else states.data):
        if data is None or np.isfinite(data).all():
            continue
        bad_rows = np.where(~np.isfinite(data.reshape(data.shape[0], -1)).all(axis=1))[0]
        raise FloatingPointError(f"non-finite activation at layer {layer}, "
                                 f"node {order[bad_rows[0]]}")


def _own(states: Tensor, full_rows: int) -> np.ndarray | None:
    """The states' buffer for a block to write over, off the tape with all rows
    kept. The layer reads the [CLS] rows it views (cls_all) before the block."""
    return None if states.requires_grad or full_rows < len(states.data) else states.data


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
    token_states: bool = False,
) -> ForwardResult:
    """Run the full layer stack over a sampled subgraph.

    Returns final [CLS] vectors for the batch frontier, and with
    `token_states` their final token states too (None under the identity
    encoder, which has no tokens). Each block keeps full token
    states only for the rows the next layer runs; the other rows it runs
    emit [CLS] alone (see transformer_block). Without `token_states` the last
    layer runs only the batch's [CLS]; the identity encoder below keeps its
    whole frontier there. Each layer is one block call over its frontier,
    which tiles the sequences by length and trims their PAD itself (see
    ad.post_norm_block).
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
    b = len(sub.batch)
    heads = params.dims.heads
    trace: list[np.ndarray] | None = [] if record_trace else None
    identity_encoder = init_features is not None

    # row plan: the frontier each layer runs (the hop counter advances after
    # every aggregation layer), and how many of its rows keep token states:
    # those the next layer runs, or at the last layer those the caller reads
    plan, m = [], 0
    for layer in range(schedule.depth):
        plan.append(frontiers[min(m, sub.hop_count)])
        m += schedule.is_tg(layer)
    if not (token_states or identity_encoder):
        plan[-1] = frontiers[-1]  # the batch
    keep = [fr.size for fr in plan[1:]] + [b if token_states else 0]

    if identity_encoder:
        cls_all = Tensor(np.stack([init_features[v] for v in order]))
        states = None
    else:
        missing = [v for v in order if v not in tokens_by_node]
        if missing:
            raise ValueError(f"missing token states for sampled node(s) {missing[:5]}")
        token_mat, lengths = pad_tokens(tokens_by_node, order)
        states = embed_batch(token_mat, params)
        states, cls_all = transformer_block(states, None, params.layers[0], heads, lengths,
                                            full_rows=keep[0], out=_own(states, keep[0]))
        _check_finite(states, cls_all, 0, order)
    if trace is not None:
        trace.append(cls_all.data.copy())

    # m counts the aggregation stages run so far; stage m - 1 produced last_agg
    m = 0
    last_agg = None
    for layer in range(1, schedule.depth):
        fr = plan[layer]
        n = fr.size
        is_tg = schedule.is_tg(layer)

        # PE and PG have nothing to reuse before the first stage, so those
        # layers run as VA (RunConfig.validate warns)
        agg = None
        if is_tg or (schedule.strategy == "PG" and m > 0):
            sp = params.stages[m if is_tg else m - 1]
            agg = ad.stage_aggregate(cls_all, n, fr.nbr_flat, fr.nbr_seg, sp.w1, sp.w2)
        elif schedule.strategy == "ME":
            total = ad.segment_sum(ad.take_rows(cls_all, fr.nbr_flat), fr.nbr_seg, n)
            agg = (total + cls_all[:n]) * (1.0 / (fr.counts + 1.0))
        elif schedule.strategy == "PE" and m > 0:
            agg = last_agg[:n]

        if identity_encoder:
            new_cls = cls_all[:n] if agg is None else ad.tanh(agg)
            _check_finite(None, new_cls, layer, order)
        else:
            # the previous block kept token states for exactly these n rows
            states, new_cls = transformer_block(states, agg, params.layers[layer], heads,
                                                lengths[:n], full_rows=keep[layer],
                                                out=_own(states, keep[layer]))
            _check_finite(states, new_cls, layer, order)
        cls_all = ad.concat([new_cls, cls_all[n:]]) if n < len(order) else new_cls

        if is_tg:
            last_agg = agg
            m += 1
        if trace is not None:
            trace.append(cls_all.data.copy())

    return ForwardResult(
        batch_nodes=sub.batch,
        cls=cls_all[:b],
        final_states=states if token_states else None,
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
