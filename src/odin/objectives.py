"""Pretraining objectives and the optimization step.

Two self-supervised losses are combined with unit weights: a node-level
contrastive loss pairing each eligible batch node's [CLS] with one true
neighbor against one in-batch non-neighbor, and a token-level masked
reconstruction loss on final-layer hidden states. Adam, the one optimizer,
trains the text encoder and the graph-aggregation stages at separate rates.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import ParamSet
# unused here, but benchmarks/tracer.py patches tokenize_nodes in this namespace
from .fusion import LayerSchedule, odin_forward, tokenize_nodes  # noqa: F401
from .graph import TextGraph
from .rngutil import generator
from .sampler import sample_frontiers

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MaskPlan:
    """Token positions to hide (with their original ids) and, per masked
    node, (positive neighbor, in-batch negative) contrast pairs."""

    token_targets: dict[int, tuple[tuple[int, int], ...]]  # node -> ((pos, orig_id), ...)
    node_pairs: dict[int, tuple[tuple[int, int], ...]]     # node -> ((v_pos, v_neg), ...)
    unpaired: int = 0  # batch nodes lacking a positive or a negative

    @property
    def num_masked_tokens(self) -> int:
        return sum(len(v) for v in self.token_targets.values())

    @property
    def num_pairs(self) -> int:
        return sum(len(v) for v in self.node_pairs.values())


def plan_masks(tokens_by_node, graph: TextGraph, mask_ratio: float, seed: int, mask_id: int,
               neighbor_pool):
    """Choose masked token positions and node contrast pairs for one batch.

    Returns (plan, masked_tokens) where masked_tokens has [MASK] substituted
    at the chosen positions. Position 0 ([CLS]) is never masked; every node
    with at least one maskable position gets at least one mask.

    Contrast pairs: positives come from neighbor_pool, a node -> neighbors
    map (the sampled subgraph's restricted adjacency, whose states the
    forward pass computes). Negatives are batch members not adjacent to the
    node. Nodes lacking either side get no pair and are counted as unpaired.
    """
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError("mask_ratio must be in (0, 1)")
    batch = sorted(tokens_by_node)
    batch_set = set(batch)
    token_targets: dict[int, tuple] = {}
    masked: dict[int, np.ndarray] = {}
    for v in batch:
        ids = np.asarray(tokens_by_node[v])
        rng = generator(seed, "mask_tokens", v)
        maskable = np.arange(1, len(ids))
        if len(maskable) == 0:
            masked[v] = ids
            continue
        hit = maskable[rng.random(len(maskable)) < mask_ratio]
        if len(hit) == 0:
            hit = np.array([rng.choice(maskable)])
        out = ids.copy()
        targets = tuple((int(p), int(ids[p])) for p in hit)
        out[hit] = mask_id
        token_targets[v] = targets
        masked[v] = out

    node_pairs: dict[int, tuple] = {}
    unpaired = 0
    for v in batch:
        nbrs = sorted(neighbor_pool.get(v, ()))
        non = sorted(batch_set - set(graph.neighbors(v)) - {v})
        if not nbrs or not non:
            unpaired += 1
            continue
        rng = generator(seed, "mask_nodes", v)
        node_pairs[v] = ((int(nbrs[rng.integers(len(nbrs))]),
                          int(non[rng.integers(len(non))])),)
    return MaskPlan(token_targets, node_pairs, unpaired), masked


def softmax_xent(logits: Tensor, gold) -> Tensor:
    """Cross-entropy of each row of `logits` (n, k) against its class id in
    `gold` (n,), summed over rows."""
    gold = np.asarray(gold, dtype=np.intp)
    picked = ad.gather_elements(logits, np.arange(len(gold)), gold)
    return (ad.logsumexp(logits, axis=-1) - picked).sum()


def mnp_loss(cls: Tensor, nodes, plan: MaskPlan) -> Tensor:
    """Sum over contrast pairs of -log( e^{s+} / (e^{s+} + e^{s-}) ) where the
    scores are [CLS] dot products; row i of `cls` belongs to nodes[i]. Zero
    when the plan has no pairs."""
    if plan.num_pairs == 0:
        log.warning("contrastive plan is empty; node loss is 0")
        return Tensor(np.zeros((), cls.dtype))
    row_of = {v: i for i, v in enumerate(nodes)}
    triples = [(row_of[v], row_of[v_pos], row_of[v_neg])
               for v in sorted(plan.node_pairs) for v_pos, v_neg in plan.node_pairs[v]]
    anchor, pos, neg = (ad.take_rows(cls, col) for col in zip(*triples))
    # softplus(s- - s+) = -log sigmoid(s+ - s-)
    return ad.softplus((anchor * neg).sum(axis=-1) - (anchor * pos).sum(axis=-1)).sum()


def nmlm_loss(final_states: Tensor, batch_nodes, plan: MaskPlan, params: ParamSet) -> Tensor:
    """Cross-entropy of the vocabulary scores at masked positions of the
    final-layer states, summed over masked tokens."""
    if plan.num_masked_tokens == 0:
        log.warning("token mask plan is empty; reconstruction loss is 0")
        return Tensor(np.zeros((), final_states.dtype))
    row_of = {v: i for i, v in enumerate(batch_nodes)}
    n, t, d = final_states.shape
    rows, targets = [], []
    for v in sorted(plan.token_targets):
        for pos, orig in plan.token_targets[v]:
            rows.append(row_of[v] * t + pos)
            targets.append(orig)
    flat = ad.reshape(final_states, (n * t, d))
    hidden = ad.take_rows(flat, np.array(rows, dtype=np.intp))
    return softmax_xent(ad.matmul(hidden, params.mlm_head.T), targets)


# -- optimizers ---------------------------------------------------------------


class _GroupRates:
    """Per-group learning rates: graph-aggregation stages train at `lr_gnn`,
    every other parameter at `lr_encoder`."""

    def __init__(self, lr_encoder: float, lr_gnn: float):
        self.lr_encoder, self.lr_gnn = lr_encoder, lr_gnn

    def lr(self, name: str) -> float:
        return self.lr_gnn if name.startswith("stages.") else self.lr_encoder


# nothing in odin builds Sgd; it stays while benchmarks/tracer.py patches Sgd.step
class Sgd(_GroupRates):
    """Plain gradient descent with per-group learning rates."""

    kind = "sgd"

    def step(self, named):
        for name, p in named:
            if p.grad is not None:
                p.data -= self.lr(name) * p.grad

    def state_dict(self):
        return {}

    def load_state_dict(self, state):
        pass


class Adam(_GroupRates):
    """Adam with per-group learning rates, beta1 0.9, beta2 0.999 and eps
    1e-8. The moments m and v take each parameter's dtype. `step` updates them
    in place and computes lr * mhat / (sqrt(vhat) + eps) op for op in two scratch
    arrays."""

    kind = "adam"

    def __init__(self, lr_encoder: float, lr_gnn: float):
        super().__init__(lr_encoder, lr_gnn)
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for name, p in named:
            if p.grad is None:
                continue
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            scratch = np.multiply(p.grad, 1 - b1)
            m *= b1
            m += scratch
            v *= b2
            v += np.multiply(np.square(p.grad, out=scratch), 1 - b2, out=scratch)
            np.sqrt(np.divide(v, 1 - b2**self.t, out=scratch), out=scratch)
            scratch += 1e-8
            update = np.divide(m, 1 - b1**self.t)
            update *= self.lr(name)
            p.data -= np.divide(update, scratch, out=update)

    def state_dict(self):
        return {"t": self.t, "m": self.m, "v": self.v}

    def load_state_dict(self, state):
        """Takes the moment arrays as they are, without a copy; `step`
        updates them in place."""
        self.t = int(state["t"])
        self.m = dict(state["m"])
        self.v = dict(state["v"])


# -- one training step -----------------------------------------------------------


def optimize(named, optimizer, loss: Tensor) -> None:
    """One gradient step on a scalar loss over the (name, tensor) pairs in
    `named`, a list. A non-finite loss raises FloatingPointError before any
    gradient or parameter is touched."""
    if not np.isfinite(loss.data):
        raise FloatingPointError(f"non-finite loss {loss.data!r}")
    for _, p in named:
        p.zero_grad()
    loss.backward()
    optimizer.step(named)


def pretrain_step(
    batch,
    graph: TextGraph,
    params: ParamSet,
    schedule: LayerSchedule,
    optimizer,
    vocab,
    tokens,
    step_seed: int,
    fanout: int,
    mask_ratio: float,
) -> dict:
    """One gradient step of the joint objective on one node batch, reading the
    ids of every sampled node from `tokens`, which it leaves as it is. Returns
    its train_log.jsonl row, with each loss per term (l1 per pair, l2 per masked
    token) beside its chance level and each learning-rate group's grad norm."""
    started = time.perf_counter()
    sub = sample_frontiers(graph, batch, schedule.hop_count, fanout, step_seed)
    plan, masked = plan_masks({v: tokens[v] for v in sub.batch}, graph, mask_ratio,
                              step_seed, vocab.mask_id, neighbor_pool=sub.sampled_adj)
    res = odin_forward(graph, sub, {**tokens, **masked}, params, schedule, token_states=True)
    l1 = mnp_loss(res.base_cls, res.base_nodes, plan)
    l2 = nmlm_loss(res.final_states, res.batch_nodes, plan, params)
    loss = l1 + l2
    named = list(params.named_parameters())
    optimize(named, optimizer, loss)
    squares = {"encoder": 0.0, "stages": 0.0}  # the stages train at lr_gnn
    for name, p in named:
        if p.grad is not None:
            g = p.grad.reshape(-1)
            squares["stages" if name.startswith("stages.") else "encoder"] += float(g @ g)
    return {
        "l1": float(l1.data),
        "l2": float(l2.data),
        "total": float(loss.data),
        "l1_mean": float(l1.data) / plan.num_pairs if plan.num_pairs else None,
        "l2_mean": float(l2.data) / plan.num_masked_tokens if plan.num_masked_tokens else None,
        "l1_chance": math.log(2),
        "l2_chance": math.log(vocab.size),
        **{f"grad_norm_{group}": math.sqrt(sq) for group, sq in squares.items()},
        "pairs": plan.num_pairs,
        "unpaired": plan.unpaired,
        "masked_tokens": plan.num_masked_tokens,
        "encoded_nodes": len(res.base_nodes),
        "wall_ms": (time.perf_counter() - started) * 1e3,
    }
