"""Downstream task protocols: in-batch link prediction, few-shot linear
classification, dense label retrieval, and candidate reranking, plus the
BM25 scorer used to mine hard negatives and rerank candidates.

All metrics are precision-style fractions in [0, 1] and deterministic under
(config, seed). Every ranking metric places the gold item by `gold_rank`,
the one tie-break: equal scores go to the smaller id.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalReport:
    task: str
    metric: str
    value: float
    details: dict

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"metric value {self.value} outside [0, 1]")


def gold_rank(scores: np.ndarray, ids: np.ndarray, gold) -> int | None:
    """Gold's 0-based place when `ids` are ranked by score, highest first,
    ties to the smaller id; None when gold is not among `ids`. Scores must be
    finite: then this is gold's position in np.lexsort((ids, -scores))."""
    at = np.flatnonzero(ids == gold)
    if not len(at):
        return None
    s = scores[at[0]]
    return int(np.count_nonzero(scores > s) + np.count_nonzero((scores == s) & (ids < gold)))


# -- link prediction ------------------------------------------------------------


def linkpred_eval(embeddings: dict, positive_pairs, *, batch_size: int) -> EvalReport:
    """Score each pair's head against all in-batch tails by dot product, in
    batches of `batch_size` pairs; the metric is the fraction of queries whose
    true tail ranks first."""
    pairs = [tuple(p) for p in positive_pairs]
    if len(pairs) < 2:
        raise ValueError("in-batch evaluation needs at least 2 pairs")
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    correct = total = 0
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start: start + batch_size]
        if len(chunk) < 2:  # ranking against nothing is meaningless
            continue
        tail_ids = np.array(sorted({v for _, v in chunk}))
        tails = np.stack([np.asarray(embeddings[v]) for v in tail_ids])
        for u, v in chunk:
            correct += gold_rank(tails @ np.asarray(embeddings[u]), tail_ids, v) == 0
            total += 1
    return EvalReport("linkpred", "PREC", correct / total, {"queries": total})


# -- classification ---------------------------------------------------------------


def train_linear_head(x: np.ndarray, y: np.ndarray, n_classes: int,
                      epochs: int, lr: float):
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


def classify_train_eval(embeddings: dict, split, labels, epochs: int, lr: float) -> EvalReport:
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
    return EvalReport("classify", "ACC", acc, {"classes": len(classes), "test_size": len(test)})


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


def retrieval_eval(node_embs: dict, label_embs: dict, gold: dict, k: int) -> EvalReport:
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
        rank = gold_rank(mat @ np.asarray(node_embs[node]), label_ids, gold[node])
        if rank is not None:
            hits += rank < k
            reciprocal_ranks += 1.0 / (rank + 1)
    value = hits / len(gold)
    return EvalReport("retrieve", f"Recall@{k}", value,
                      {"k": k, "labels": len(label_ids), "queries": len(gold),
                       "mrr": reciprocal_ranks / len(gold)})


def rerank_eval(candidates: dict, node_embs: dict, label_embs: dict, gold: dict) -> EvalReport:
    """Re-score each node's candidate labels by dot product; the metric is
    the fraction of nodes whose gold label ranks first. Nodes whose gold is
    missing from the candidate list count as misses and are tallied."""
    if not candidates:
        raise ValueError("no queries to rerank (is the test split empty?)")
    hits = gold_absent = 0
    for node in sorted(candidates):
        cand = candidates[node]
        if not cand:
            raise ValueError(f"node {node} has an empty candidate list")
        ids = np.array(sorted(cand))
        mat = np.stack([np.asarray(label_embs[i]) for i in ids])
        rank = gold_rank(mat @ np.asarray(node_embs[node]), ids, gold[node])
        gold_absent += rank is None
        hits += rank == 0
    value = hits / len(candidates)
    return EvalReport("rerank", "PRC", value,
                      {"gold_absent": gold_absent, "queries": len(candidates)})
