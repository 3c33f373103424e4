"""Span tracer for the traced benchmark run.

The tracer patches the public functions of odin's modules *in the namespace
of the module that calls them* (``odin.runner.odin_forward``,
``odin.fusion.transformer_block``, ``odin.encoder.attention_block``,
``odin.autodiff.gelu``, ...), records one span per call and restores every
patched attribute when its ``with`` block ends, also on error. Nothing under
``src/`` knows about it.

A span is (name, start, end, parent, ctx). ``parent`` is the span open when
the call started. Backward closures get a span of their own whose ``ctx`` is
the forward op span that created the tape node, so backward time is charged
to the layer that built the node. Spans stay in memory (flat arrays) and are
written once, by ``save``.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Public autodiff ops. Callers reach them as ``ad.<op>`` or, inside autodiff
# itself and through Tensor's operators, as module globals, so patching the
# module attribute catches every call.
AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "matmul", "tsum", "exp", "log", "tanh", "gelu",
    "softplus", "reshape", "transpose", "concat", "getitem", "take_rows",
    "scatter_rows", "segment_sum", "gather_elements", "softmax", "logsumexp",
    "layer_norm", "linear",
)

# (module, attribute in that module, span name, kind). The module is the
# caller's namespace; a dotted attribute names a method on a class.
PATCHES = (
    ("odin.graph", "load_graph", "graph.load", "plain"),
    ("odin.checkpoint", "save_model", "checkpoint.save", "save"),
    ("odin.checkpoint", "load_model", "checkpoint.load", "plain"),
    ("odin.runner", "save_model", "checkpoint.save", "save"),
    ("odin.runner", "load_model", "checkpoint.load", "plain"),
    ("odin.runner", "pretrain_step", "objectives.pretrain_step", "plain"),
    ("odin.runner", "sample_frontiers", "sampler.sample_frontiers", "sampler"),
    ("odin.runner", "tokenize_nodes", "fusion.tokenize", "plain"),
    ("odin.runner", "odin_forward", "fusion.odin_forward", "forward"),
    ("odin.runner", "encode_texts", "fusion.encode_texts", "plain"),
    ("odin.runner", "compute_embeddings", "runner.embed", "plain"),
    ("odin.runner", "encode_labels", "runner.encode_labels", "plain"),
    ("odin.runner", "finetune_linkpred", "runner.finetune", "plain"),
    ("odin.runner", "finetune_classify", "runner.finetune", "plain"),
    ("odin.runner", "dpr_finetune", "runner.finetune", "plain"),
    ("odin.runner", "linkpred_eval", "tasks.score", "plain"),
    ("odin.runner", "classify_train_eval", "tasks.score", "plain"),
    ("odin.runner", "retrieval_eval", "tasks.score", "plain"),
    ("odin.runner", "rerank_eval", "tasks.score", "plain"),
    ("odin.runner", "mine_candidates", "tasks.bm25", "plain"),
    ("odin.tasks", "Bm25Index.rank", "tasks.bm25", "plain"),
    ("odin.objectives", "sample_frontiers", "sampler.sample_frontiers", "sampler"),
    ("odin.objectives", "tokenize_nodes", "fusion.tokenize", "plain"),
    ("odin.objectives", "odin_forward", "fusion.odin_forward", "forward"),
    ("odin.objectives", "plan_masks", "objectives.plan", "plan"),
    ("odin.objectives", "mnp_loss", "objectives.mnp", "plain"),
    ("odin.objectives", "nmlm_loss", "objectives.nmlm", "plain"),
    ("odin.objectives", "Sgd.step", "objectives.opt", "plain"),
    ("odin.objectives", "Adam.step", "objectives.opt", "plain"),
    ("odin.fusion", "tokenize_nodes", "fusion.tokenize", "plain"),
    ("odin.fusion", "odin_forward", "fusion.odin_forward", "forward"),
    ("odin.fusion", "embed_batch", "encoder.embed", "plain"),
    ("odin.fusion", "transformer_block", "encoder.block", "block"),
    ("odin.encoder", "attention_block", "encoder.attn", "plain"),
    ("odin.autodiff", "Tensor.backward", "autodiff.backward", "plain"),
) + tuple(("odin.autodiff", op, f"autodiff.{op}", "op") for op in AUTODIFF_OPS)


@functools.lru_cache(maxsize=None)
def _own_labels(name: str, parent: str) -> frozenset:
    """Labels a span adds to its parent's. Block-level labels: the MLP and
    the layer norms are the linear/gelu and layer_norm ops a block calls
    directly; aggregation is every op odin_forward calls directly."""
    own = {name}
    if name.startswith("encoder.block."):
        own.add("encoder.block")
    elif name == "fusion.encode_texts":
        own.add("runner.encode_labels")
    elif name.startswith("autodiff.") and name != "autodiff.backward":
        op = name[len("autodiff."):]
        if parent.startswith("encoder.block.") and op in ("linear", "gelu"):
            own.add("encoder.mlp")
        elif parent.startswith("encoder.block.") and op == "layer_norm":
            own.add("encoder.ln")
        elif parent == "fusion.odin_forward":
            own.add("fusion.agg")
    return frozenset(own)


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a PATCHES entry."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def patch_targets():
    """Every (owner, attribute) the tracer patches; tests check they are
    restored."""
    return [_resolve(m, a) for m, a, _, _ in PATCHES]


class Tracer:
    """Context manager: install wrappers on enter, restore them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.ctx = array("i")
        self._stack: list[int] = []
        self._forwards: list[list] = []  # [schedule, next layer index]
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, ctx: int = -1) -> int:
        idx = len(self.t0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ctx.append(ctx)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()

    def span_count(self) -> int:
        return len(self.t0)

    # -- wrappers --------------------------------------------------------------

    def _plain(self, fn, name):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _op(self, fn, name):
        nid = self._id(name)
        bid = self._id(name + ".bwd")

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            closure = out._backward
            # Composite ops (linear) return a node an inner op already wrapped.
            if closure is not None and not hasattr(closure, "traced_ctx"):
                out._backward = self._backward_closure(closure, bid, idx)
                self.counts["autodiff.tape_tensors"] += 1
            return out

        return wrapper

    def _backward_closure(self, closure, bid, ctx):
        def traced(g):
            idx = self._open(bid, ctx)
            try:
                closure(g)
            finally:
                self._close(idx)

        traced.traced_ctx = ctx
        return traced

    def _sampler(self, fn, name):
        inner = self._plain(fn, name)

        def wrapper(graph, *args, **kwargs):
            sub = inner(graph, *args, **kwargs)
            self.counts["sampler.calls"] += 1
            self.counts["sampler.b0_nodes"] += len(sub.base)
            self.counts["sampler.b0_share"] += len(sub.base) / graph.num_nodes
            return sub

        return wrapper

    def _forward(self, fn, name):
        from odin.sampler import encoded_node_count

        inner = self._plain(fn, name)

        def wrapper(graph, sub, tokens_by_node, params, schedule, **kwargs):
            lengths = [len(tokens_by_node[v]) for v in sub.base]
            self.counts["fusion.encoded_node_layers"] += encoded_node_count(
                sub, schedule.depth, schedule.positions)
            self.counts["fusion.returned_node_layers"] += len(sub.batch) * schedule.depth
            self.counts["fusion.pad_slots"] += max(lengths) * len(lengths) - sum(lengths)
            self.counts["fusion.token_slots"] += max(lengths) * len(lengths)
            self._forwards.append([schedule, 0])
            try:
                return inner(graph, sub, tokens_by_node, params, schedule, **kwargs)
            finally:
                self._forwards.pop()

        return wrapper

    def _block(self, fn, name):
        # odin_forward calls the block once per layer, in layer order.
        ids = {kind: self._id(f"{name}.{kind}")
               for kind in ("layer0", "tg_layers", "cheap_layers")}

        def wrapper(x, *args, **kwargs):
            kind = "cheap_layers"
            if self._forwards:
                frame = self._forwards[-1]
                layer = frame[1]
                frame[1] += 1
                if layer == 0:
                    kind = "layer0"
                elif frame[0].is_tg(layer):
                    kind = "tg_layers"
            self.counts["encoder.token_rows"] += x.shape[0] * x.shape[1]
            idx = self._open(ids[kind])
            try:
                return fn(x, *args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _plan(self, fn, name):
        inner = self._plain(fn, name)

        def wrapper(*args, **kwargs):
            plan, masked = inner(*args, **kwargs)
            self.counts["objectives.pairs"] += plan.num_pairs
            self.counts["objectives.masked_tokens"] += plan.num_masked_tokens
            return plan, masked

        return wrapper

    def _save(self, fn, name):
        inner = self._plain(fn, name)

        def wrapper(path, *args, **kwargs):
            inner(path, *args, **kwargs)
            self.counts["checkpoint.saves"] += 1
            self.counts["checkpoint.bytes"] += os.path.getsize(path)

        return wrapper

    # -- install / restore -------------------------------------------------------

    def __enter__(self):
        try:
            for module, attr, name, kind in PATCHES:
                owner, key = _resolve(module, attr)
                original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
                wrapped = getattr(self, "_" + kind)(original, name)
                self._saved.append((owner, key, original))
                setattr(owner, key, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    # -- analysis ----------------------------------------------------------------

    def totals(self):
        """Seconds per label, computed from the spans.

        Every span carries the labels of its parent plus its own (its name,
        and the layer labels below). Returns (fwd, bwd, self_s, calls):
        fwd[label] sums the outermost spans carrying the label; bwd[label]
        sums backward-closure spans whose creating op carried it; self_s[name]
        is span time minus direct-child time; calls[name] counts spans.
        """
        names, name, parent, ctx = self.names, self.name, self.parent, self.ctx
        n = len(self.t0)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        empty = frozenset()
        labels = [empty] * n
        merged: dict = {}
        fwd: dict[str, float] = defaultdict(float)
        bwd: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            nm = names[name[i]]
            calls[nm] += 1
            self_s[nm] += dur[i] - child[i]
            if ctx[i] >= 0:  # backward closure: charge the creating op's labels
                for label in labels[ctx[i]]:
                    bwd[label] += dur[i]
                continue
            p = parent[i]
            plabs = labels[p] if p >= 0 else empty
            own = _own_labels(nm, names[name[p]] if p >= 0 else "")
            key = (plabs, own)
            if key not in merged:
                merged[key] = plabs | own
            labels[i] = merged[key]
            for label in own - plabs:
                fwd[label] += dur[i]
        return fwd, bwd, self_s, calls

    def save(self, path) -> None:
        """Write the spans: one row per span plus the name table."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.t0, np.float64), end=np.frombuffer(self.t1, np.float64),
            parent=np.frombuffer(self.parent, np.int32), ctx=np.frombuffer(self.ctx, np.int32))
