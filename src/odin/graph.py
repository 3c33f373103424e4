"""Text-attributed graph container, loaders, and few-shot task splits.

Storage format: nodes.jsonl holds one record per line with fields
{id, text, fine_label?, coarse_label?}, a label field's values all JSON
integers or all strings; edges.txt holds whitespace-separated id pairs, one
per line, with '#' comments. Node ids must form a contiguous 0-based range.
An optional labels.jsonl ({id, name} per line) carries human-readable label
names for retrieval-style tasks.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .rngutil import generator

log = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Raised when an input file violates the graph storage contract."""


@dataclass(frozen=True)
class TextGraph:
    """Undirected graph with one raw text document per node.

    Nodes are dense integers 0..n-1. Edges are stored once as (u, v) with
    u < v; adjacency is symmetric. Labels are optional per-node category ids.
    """

    texts: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    fine_labels: tuple | None = None
    coarse_labels: tuple | None = None
    label_names: dict[int, str] | None = None
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.texts)
        for i, text in enumerate(self.texts):
            if not text.strip():
                raise GraphFormatError(f"node {i} has empty text")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop on node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) references unknown node")
            if u > v:
                raise GraphFormatError(f"edge ({u}, {v}) not stored as (min, max)")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    @property
    def num_nodes(self) -> int:
        return len(self.texts)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted adjacent node ids; empty for isolated nodes."""
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"node id {v} out of range [0, {self.num_nodes})")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def labels(self, kind: str) -> tuple:
        if kind == "fine":
            got = self.fine_labels
        elif kind == "coarse":
            got = self.coarse_labels
        else:
            raise ValueError(f"unknown label kind {kind!r}")
        if got is None:
            raise GraphFormatError(f"graph carries no {kind} labels: no node record "
                                   f"has a {kind}_label field")
        return got


@dataclass(frozen=True)
class TaskSplit:
    train_ids: tuple[int, ...]
    valid_ids: tuple[int, ...]
    test_ids: tuple[int, ...]

    def __post_init__(self):
        pools = (set(self.train_ids), set(self.valid_ids), set(self.test_ids))
        total = len(self.train_ids) + len(self.valid_ids) + len(self.test_ids)
        if len(pools[0] | pools[1] | pools[2]) != total:
            raise ValueError("train/valid/test ids must be disjoint")


def parse_edge_file(path: Path, num_nodes: int):
    """Returns (edges, n_self_loops_dropped, n_duplicates_dropped)."""
    edges: set[tuple[int, int]] = set()
    self_loops = 0
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer id") from exc
            for w in (u, v):
                if not 0 <= w < num_nodes:
                    raise GraphFormatError(
                        f"{path}:{lineno}: edge references unknown node {w}"
                    )
            if u == v:
                self_loops += 1
                continue
            key = (min(u, v), max(u, v))
            if key in edges:
                duplicates += 1
            else:
                edges.add(key)
    return frozenset(edges), self_loops, duplicates


def _parse_node_file(path: Path):
    texts: list[str] = []
    fine: list = []
    coarse: list = []
    kinds: dict[str, type] = {}  # the type of each label field's first value
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(rec, dict):
                raise GraphFormatError(f"{path}:{lineno}: not a JSON object")
            if rec.get("id") != len(texts):
                raise GraphFormatError(
                    f"{path}:{lineno}: ids must be contiguous from 0, got {rec.get('id')}"
                )
            text = rec.get("text", "")
            if not isinstance(text, str) or not text.strip():
                raise GraphFormatError(f"{path}:{lineno}: node {rec.get('id')} has empty text")
            texts.append(text)
            for name, labels in (("fine_label", fine), ("coarse_label", coarse)):
                lab = rec.get(name)
                if lab is not None:
                    kind = kinds.setdefault(name, type(lab))  # bool is not int here
                    if kind not in (int, str) or type(lab) is not kind:
                        raise GraphFormatError(f"{path}:{lineno}: {name} {lab!r}: labels must "
                                               "be all JSON integers or all strings")
                labels.append(lab)
    if not texts:
        raise GraphFormatError(f"{path}: no node records")
    fine_t = tuple(fine) if any(x is not None for x in fine) else None
    coarse_t = tuple(coarse) if any(x is not None for x in coarse) else None
    return tuple(texts), fine_t, coarse_t


def _parse_label_file(path: Path) -> dict[int, str]:
    names: dict[int, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
                lid, name = int(rec["id"]), str(rec["name"])
            except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise GraphFormatError(f"{path}:{lineno}: not a JSON {{id, name}} record") from exc
            if lid in names:
                raise GraphFormatError(f"{path}:{lineno}: duplicate label id {lid}")
            names[lid] = name
    return names


def load_graph(node_file, edge_file, label_file=None) -> TextGraph:
    """Load and validate a TextGraph from its two on-disk files.

    Self-loops and duplicate edges are dropped with a logged count; anything
    else malformed is a hard error naming the offending line.
    """
    node_file, edge_file = Path(node_file), Path(edge_file)
    texts, fine, coarse = _parse_node_file(node_file)
    edges, self_loops, duplicates = parse_edge_file(edge_file, len(texts))
    if self_loops or duplicates:
        log.warning(
            "dropped %d self-loop(s) and %d duplicate edge(s) from %s",
            self_loops, duplicates, edge_file,
        )
    label_names = None if label_file is None else _parse_label_file(Path(label_file))
    return TextGraph(texts, edges, fine, coarse, label_names)


def save_graph(graph: TextGraph, node_file, edge_file, label_file=None) -> None:
    with open(node_file, "w", encoding="utf-8") as fh:
        for i, text in enumerate(graph.texts):
            rec = {"id": i, "text": text}
            if graph.fine_labels is not None and graph.fine_labels[i] is not None:
                rec["fine_label"] = graph.fine_labels[i]
            if graph.coarse_labels is not None and graph.coarse_labels[i] is not None:
                rec["coarse_label"] = graph.coarse_labels[i]
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(edge_file, "w", encoding="utf-8") as fh:
        for u, v in sorted(graph.edges):
            fh.write(f"{u} {v}\n")
    if label_file is not None and graph.label_names is not None:
        with open(label_file, "w", encoding="utf-8") as fh:
            for lid in sorted(graph.label_names):
                fh.write(json.dumps({"id": lid, "name": graph.label_names[lid]}) + "\n")


def make_few_shot_split(graph: TextGraph, k: int, label_kind: str, seed: int) -> TaskSplit:
    """k training examples per class; leftover nodes split 50/50 valid/test.

    Classes with fewer than k members contribute everything to train (with
    one warning that names them all). Unlabeled nodes are excluded.
    Deterministic under seed.
    """
    if k < 1:
        raise ValueError("k must be positive")
    labels = graph.labels(label_kind)
    by_class: dict = {}
    for node, lab in enumerate(labels):
        if lab is not None:
            by_class.setdefault(lab, []).append(node)
    train: list[int] = []
    valid: list[int] = []
    test: list[int] = []
    short: list = []
    for lab in sorted(by_class):
        members = by_class[lab]
        rng = generator(seed, "few_shot", label_kind, lab)
        order = [members[i] for i in rng.permutation(len(members))]
        if len(order) < k:
            short.append(lab)
            train.extend(order)
            continue
        train.extend(order[:k])
        rest = order[k:]
        half = len(rest) // 2
        valid.extend(rest[:half])
        test.extend(rest[half:])
    if short:
        log.warning("%d of %d %s class(es) have fewer than k=%d members; all their nodes "
                    "go to train: %s", len(short), len(by_class), label_kind, k,
                    ", ".join(map(repr, short)))
    return TaskSplit(tuple(sorted(train)), tuple(sorted(valid)), tuple(sorted(test)))
