"""Downstream task protocols: in-batch link prediction, few-shot linear
classification, dense label retrieval, and candidate reranking, plus the
BM25 scorer used to mine hard negatives and rerank candidates.

All metrics are precision-style fractions in [0, 1] and deterministic under
(config, seed); score ties break toward the smaller id.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalReport:
    task: str
    metric: str
    value: float
    seed: int
    config_digest: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"metric value {self.value} outside [0, 1]")

    def to_json(self) -> str:
        return json.dumps(
            {"task": self.task, "metric": self.metric, "value": self.value,
             "seed": self.seed, "config_digest": self.config_digest,
             "details": self.details},
            sort_keys=True,
        )


def _rank_first(scores: np.ndarray, ids: np.ndarray) -> int:
    """Index of the top item: highest score, then smallest id."""
    order = np.lexsort((ids, -scores))
    return int(order[0])


# -- link prediction ------------------------------------------------------------


def linkpred_eval(
    embeddings: dict, positive_pairs, seed: int = 0, config_digest: str = "", *,
    batch_size: int,
) -> EvalReport:
    """Score each pair's head against all in-batch tails by dot product, in
    batches of `batch_size` pairs; the metric is the fraction of queries whose
    true tail ranks first."""
    pairs = [tuple(p) for p in positive_pairs]
    if len(pairs) < 2:
        raise ValueError("in-batch evaluation needs at least 2 pairs")
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    correct = 0
    total = 0
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start: start + batch_size]
        if len(chunk) < 2:  # ranking against nothing is meaningless
            continue
        tail_ids = np.array(sorted({v for _, v in chunk}))
        tails = np.stack([np.asarray(embeddings[v]) for v in tail_ids])
        for u, v in chunk:
            scores = tails @ np.asarray(embeddings[u])
            best = tail_ids[_rank_first(scores, tail_ids)]
            correct += int(best == v)
            total += 1
    return EvalReport("linkpred", "PREC", correct / total, seed, config_digest,
                      {"queries": total})


# -- classification ---------------------------------------------------------------


def train_linear_head(x: np.ndarray, y: np.ndarray, n_classes: int,
                      epochs: int, lr: float = 0.1):
    """Full-batch softmax regression from a zero init (convex, deterministic)."""
    n, d = x.shape
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[y]
    for _ in range(epochs):
        logits = x @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        gw = (p - onehot).T @ x / n
        gb = (p - onehot).mean(axis=0)
        w -= lr * gw
        b -= lr * gb
    return w, b


def classify_train_eval(
    embeddings: dict, split, labels, epochs: int, seed: int,
    lr: float = 0.1, config_digest: str = "",
) -> EvalReport:
    """Fit a linear head on the split's train embeddings, report test accuracy."""
    classes = sorted({labels[v] for v in split.train_ids})
    if len(classes) < 2:
        raise ValueError("need at least two classes in the training split")
    to_idx = {c: i for i, c in enumerate(classes)}
    xtr = np.stack([np.asarray(embeddings[v]) for v in split.train_ids])
    ytr = np.array([to_idx[labels[v]] for v in split.train_ids])
    w, b = train_linear_head(xtr, ytr, len(classes), epochs, lr)
    test = [v for v in split.test_ids if labels[v] in to_idx]
    xte = np.stack([np.asarray(embeddings[v]) for v in test])
    pred = np.argmax(xte @ w.T + b, axis=1)
    yte = np.array([to_idx[labels[v]] for v in test])
    acc = float(np.mean(pred == yte))
    return EvalReport("classify", "ACC", acc, seed, config_digest,
                      {"classes": len(classes), "test_size": len(test)})


# -- BM25 ---------------------------------------------------------------------------


def bm25_scores(query, docs) -> np.ndarray:
    """Okapi BM25 of one token-list query against a token-list collection,
    at the usual k1 = 1.2 and b = 0.75.

    Uses the idf variant ln(1 + (N - df + 0.5)/(df + 0.5)), which stays
    non-negative for every document frequency.
    """
    k1, b = 1.2, 0.75
    if not docs:
        raise ValueError("document collection must be non-empty")
    n = len(docs)
    lengths = np.array([len(d) for d in docs], dtype=float)
    avgdl = lengths.mean() if lengths.sum() > 0 else 1.0
    df = Counter()
    for doc in docs:
        df.update(set(doc))
    scores = np.zeros(n)
    if not query:
        return scores
    for term in query:
        dfi = df.get(term, 0)
        if dfi == 0:
            continue
        idf = math.log(1.0 + (n - dfi + 0.5) / (dfi + 0.5))
        for i, doc in enumerate(docs):
            tf = doc.count(term)
            if tf == 0:
                continue
            denom = tf + k1 * (1.0 - b + b * lengths[i] / avgdl)
            scores[i] += idf * tf * (k1 + 1.0) / denom
    return scores


class Bm25Index:
    """Small convenience wrapper for repeated top-n mining."""

    def __init__(self, docs):
        self.docs = [list(d) for d in docs]

    def rank(self, query, top_n: int) -> list[int]:
        scores = bm25_scores(query, self.docs)
        order = np.lexsort((np.arange(len(scores)), -scores))
        return [int(i) for i in order[:top_n]]


def mine_candidates(node_tokens, label_tokens, top_n: int):
    """Candidate label ids per node: BM25 top-n unioned with exact matches
    (labels whose every token appears in the node's text)."""
    index = Bm25Index(label_tokens)
    out = {}
    for node, tokens in node_tokens.items():
        cands = set(index.rank(tokens, top_n))
        tokset = set(tokens)
        for lid, ltoks in enumerate(label_tokens):
            if ltoks and set(ltoks) <= tokset:
                cands.add(lid)
        out[node] = sorted(cands)
    return out


# -- retrieval / reranking ------------------------------------------------------------


def retrieval_eval(
    node_embs: dict, label_embs: dict, gold: dict, k: int = 10,
    seed: int = 0, config_digest: str = "",
) -> EvalReport:
    """Rank every label name embedding per node; the metric is the fraction
    of nodes whose gold label lands in the top k. With fewer than k labels,
    k is clipped to the label count and the metric is named after it.
    `details["mrr"]` is the mean over nodes of 1 / the gold label's rank in
    the full ranking (0 for a gold that is no label), which stays informative
    when k covers every label."""
    if not gold:
        raise ValueError("no queries to retrieve (is the test split empty?)")
    label_ids = np.array(sorted(label_embs))
    if len(label_ids) < k:
        log.warning("only %d labels for top-%d retrieval; clipping", len(label_ids), k)
        k = len(label_ids)
    mat = np.stack([np.asarray(label_embs[i]) for i in label_ids])
    hits, reciprocal_ranks = 0, 0.0
    for node in sorted(gold):
        scores = mat @ np.asarray(node_embs[node])
        ranked = label_ids[np.lexsort((label_ids, -scores))]
        at = np.flatnonzero(ranked == gold[node])
        if len(at):
            hits += int(at[0] < k)
            reciprocal_ranks += 1.0 / (int(at[0]) + 1)
    value = hits / len(gold)
    return EvalReport("retrieve", f"Recall@{k}", value, seed, config_digest,
                      {"k": k, "labels": len(label_ids), "queries": len(gold),
                       "mrr": reciprocal_ranks / len(gold)})


def rerank_eval(
    candidates: dict, node_embs: dict, label_embs: dict, gold: dict,
    seed: int = 0, config_digest: str = "",
) -> EvalReport:
    """Re-score each node's candidate labels by dot product; the metric is
    the fraction of nodes whose gold label ranks first. Nodes whose gold is
    missing from the candidate list count as misses and are tallied."""
    if not candidates:
        raise ValueError("no queries to rerank (is the test split empty?)")
    hits = 0
    gold_absent = 0
    for node in sorted(candidates):
        cand = candidates[node]
        if not cand:
            raise ValueError(f"node {node} has an empty candidate list")
        if gold[node] not in cand:
            gold_absent += 1
            continue
        ids = np.array(sorted(cand))
        mat = np.stack([np.asarray(label_embs[i]) for i in ids])
        scores = mat @ np.asarray(node_embs[node])
        best = ids[_rank_first(scores, ids)]
        hits += int(best == gold[node])
    value = hits / len(candidates)
    return EvalReport("rerank", "PRC", value, seed, config_digest,
                      {"gold_absent": gold_absent, "queries": len(candidates)})
