import dataclasses
import json

import numpy as np
import pytest

from odin.graph import TaskSplit
from odin.tasks import (
    Bm25Index,
    EvalReport,
    bm25_scores,
    classify_train_eval,
    gold_rank,
    linkpred_eval,
    mine_candidates,
    rerank_eval,
    retrieval_eval,
)


# -- link prediction ----------------------------------------------------------


def test_linkpred_collinear_pairs_score_one():
    emb = {}
    pairs = []
    for i in range(4):
        e = np.zeros(8)
        e[i] = 1.0
        emb[i] = e
        emb[10 + i] = e.copy()
        pairs.append((i, 10 + i))
    rep = linkpred_eval(emb, pairs, batch_size=len(pairs))
    assert rep.value == 1.0 and rep.metric == "PREC"


def test_linkpred_identical_embeddings_tie_rule():
    emb = {i: np.ones(4) for i in range(8)}
    pairs = [(0, 4), (1, 5), (2, 6), (3, 7)]
    rep = linkpred_eval(emb, pairs, batch_size=len(pairs))
    # every score ties, so the smallest tail id (4) wins every query
    assert rep.value == pytest.approx(1 / 4)


def test_linkpred_matches_argmax_oracle():
    rng = np.random.default_rng(0)
    emb = {i: rng.standard_normal(6) for i in range(16)}
    pairs = [(i, 8 + i) for i in range(8)]
    rep = linkpred_eval(emb, pairs, batch_size=len(pairs))
    tails = sorted({v for _, v in pairs})
    correct = 0
    for u, v in pairs:
        scored = sorted(tails, key=lambda t: (-emb[u] @ emb[t], t))
        correct += scored[0] == v
    assert rep.value == pytest.approx(correct / 8)


def test_linkpred_scale_invariance():
    rng = np.random.default_rng(1)
    emb = {i: rng.standard_normal(5) for i in range(10)}
    pairs = [(i, 5 + i) for i in range(5)]
    a = linkpred_eval(emb, pairs, batch_size=len(pairs)).value
    b = linkpred_eval({k: 17.0 * v for k, v in emb.items()}, pairs,
                      batch_size=len(pairs)).value
    assert a == b


def test_linkpred_single_pair_is_error():
    with pytest.raises(ValueError, match="at least 2 pairs"):
        linkpred_eval({0: np.ones(2), 1: np.ones(2)}, [(0, 1)], batch_size=1)


# -- classification ------------------------------------------------------------


def separable_fixture(n_per=20, d=6):
    rng = np.random.default_rng(2)
    emb, labels = {}, {}
    for cls in range(2):
        center = np.zeros(d)
        center[cls] = 4.0
        for i in range(n_per):
            node = cls * n_per + i
            emb[node] = center + 0.05 * rng.standard_normal(d)
            labels[node] = cls
    ids = sorted(emb)
    split = TaskSplit(tuple(ids[:8] + ids[n_per:n_per + 8]),
                      tuple(ids[8:n_per] + ids[n_per + 8:]))
    return emb, labels, split


def test_classify_linearly_separable_is_perfect():
    emb, labels, split = separable_fixture()
    rep = classify_train_eval(emb, split, labels, epochs=200, lr=0.1)
    assert rep.value == 1.0


def test_classify_shuffled_labels_is_chance_level():
    rng = np.random.default_rng(3)
    n_classes, per = 5, 30
    accs = []
    for _ in range(5):
        emb = {i: rng.standard_normal(8) for i in range(n_classes * per)}
        labels = {i: i % n_classes for i in emb}
        train = tuple(range(0, n_classes * 8))
        test = tuple(range(n_classes * 8, n_classes * per))
        split = TaskSplit(train, test)
        accs.append(classify_train_eval(emb, split, labels, 100, 0.1).value)
    assert abs(np.mean(accs) - 1 / n_classes) < 0.1


def test_classify_single_class_errors():
    emb = {0: np.ones(3), 1: np.ones(3)}
    labels = {0: 1, 1: 1}
    split = TaskSplit((0,), (1,))
    with pytest.raises(ValueError):
        classify_train_eval(emb, split, labels, 10, 0.1)


# -- BM25 -----------------------------------------------------------------------


def test_bm25_absent_term_scores_zero():
    docs = [["a", "b"], ["c"]]
    np.testing.assert_array_equal(bm25_scores(["zzz"], docs), [0.0, 0.0])


def test_bm25_exact_doc_ranks_first():
    docs = [["x", "y"], ["a", "b", "c"], ["q"]]
    scores = bm25_scores(["a", "b", "c"], docs)
    assert scores[1] > 0 and np.argmax(scores) == 1


def test_bm25_empty_query_all_zero():
    np.testing.assert_array_equal(bm25_scores([], [["a"], ["b"]]), [0.0, 0.0])


def test_bm25_matches_hand_computed_table():
    # spreadsheet-style: N=3, avgdl=3, idf = ln(1 + (N-df+.5)/(df+.5)),
    # k1=1.2, b=0.75, query = [apple, cherry]
    docs = [
        ["apple", "banana", "apple"],
        ["banana", "cherry"],
        ["cherry", "cherry", "cherry", "date"],
    ]
    got = bm25_scores(["apple", "cherry"], docs)
    want = [1.3486402228911236, 0.5442147286003255, 0.6893386562270789]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_bm25_nonnegative_and_tf_monotone():
    rng = np.random.default_rng(4)
    vocab = [f"t{i}" for i in range(12)]
    docs = [[vocab[rng.integers(12)] for _ in range(rng.integers(1, 9))] for _ in range(30)]
    scores = bm25_scores([vocab[0], vocab[3]], docs)
    assert np.all(scores >= 0)
    # fixed length, growing tf
    fixed = [["z"] * 4, ["q", "z", "z", "z"][::-1], ["q", "q", "z", "z"], ["q", "q", "q", "z"]]
    s = bm25_scores(["q"], fixed)
    assert s[0] == 0 and s[1] < s[2] < s[3]


def test_bm25_index_rank_deterministic_ties():
    docs = [["a"], ["a"], ["b"]]
    assert Bm25Index(docs).rank(["a"], 2) == [0, 1]


def test_mine_candidates_union_of_bm25_and_exact():
    node_tokens = {7: ["alpha", "beta", "gamma"]}
    label_tokens = [["alpha", "beta"], ["delta"], ["gamma"]]
    cands = mine_candidates(node_tokens, label_tokens, top_n=1)
    # bm25 top-1 is label 0; exact-match adds label 2 (subset of node tokens)
    assert cands[7] == [0, 2]


# -- retrieval --------------------------------------------------------------------


def test_retrieval_label_space_equal_k_is_always_recalled():
    rng = np.random.default_rng(5)
    labels = {i: rng.standard_normal(4) for i in range(10)}
    nodes = {i: rng.standard_normal(4) for i in range(6)}
    gold = {i: i % 10 for i in nodes}
    rep = retrieval_eval(nodes, labels, gold, k=10)
    assert rep.value == 1.0


def test_retrieval_collinear_gold():
    labels = {i: np.eye(15)[i] for i in range(15)}
    nodes = {0: 3.0 * np.eye(15)[7]}
    rep = retrieval_eval(nodes, labels, {0: 7}, k=10)
    assert rep.value == 1.0


def test_retrieval_matches_topk_oracle():
    rng = np.random.default_rng(6)
    labels = {i: rng.standard_normal(6) for i in range(40)}
    nodes = {i: rng.standard_normal(6) for i in range(25)}
    gold = {i: int(rng.integers(40)) for i in nodes}
    rep = retrieval_eval(nodes, labels, gold, k=10)
    hits = 0
    for v in nodes:
        ranked = sorted(labels, key=lambda l: (-(nodes[v] @ labels[l]), l))
        hits += gold[v] in ranked[:10]
    assert rep.value == pytest.approx(hits / 25)
    assert rep.metric == "Recall@10"


def test_retrieval_mrr_averages_reciprocal_gold_ranks():
    labels = {i: np.eye(3)[i] for i in range(3)}
    nodes = {0: np.array([0.0, 2.0, 1.0]),  # gold 1 ranks first
             1: np.array([0.0, 1.0, 1.0])}  # gold 2 ties label 1, loses on id: second
    rep = retrieval_eval(nodes, labels, {0: 1, 1: 2}, k=1)
    assert rep.details["mrr"] == 0.75
    assert rep.value == 0.5


def test_retrieval_clips_k_with_warning(caplog):
    labels = {i: np.eye(3)[i] for i in range(3)}
    nodes = {0: np.ones(3)}
    rep = retrieval_eval(nodes, labels, {0: 1}, k=10)
    assert rep.details["k"] == 3 and rep.value == 1.0
    assert rep.metric == "Recall@3"
    assert "clipping" in caplog.text


# -- reranking --------------------------------------------------------------------


def test_rerank_singleton_candidate_with_gold():
    rep = rerank_eval({0: [4]}, {0: np.ones(2)}, {4: np.ones(2)}, {0: 4})
    assert rep.value == 1.0 and rep.details["gold_absent"] == 0


def test_rerank_gold_absent_counts_miss():
    rep = rerank_eval({0: [1, 2]}, {0: np.ones(2)},
                      {1: np.ones(2), 2: np.zeros(2)}, {0: 9})
    assert rep.value == 0.0 and rep.details["gold_absent"] == 1


def test_rerank_matches_argmax_oracle():
    rng = np.random.default_rng(7)
    labels = {i: rng.standard_normal(5) for i in range(20)}
    nodes = {i: rng.standard_normal(5) for i in range(12)}
    cands = {i: sorted(rng.choice(20, size=5, replace=False).tolist()) for i in nodes}
    gold = {i: cands[i][int(rng.integers(5))] for i in nodes}
    rep = rerank_eval(cands, nodes, labels, gold)
    hits = 0
    for v in nodes:
        best = min(cands[v], key=lambda l: (-(nodes[v] @ labels[l]), l))
        hits += best == gold[v]
    assert rep.value == pytest.approx(hits / len(nodes))


def test_rerank_empty_candidates_error():
    with pytest.raises(ValueError):
        rerank_eval({0: []}, {0: np.ones(2)}, {}, {0: 1})


# -- report type --------------------------------------------------------------


def test_eval_report_bounds_and_json():
    rep = EvalReport("t", "ACC", 0.5, {"queries": 3, "mrr": 0.25})
    # the CLI stamps the seed and config digest onto these fields
    assert json.loads(json.dumps(dataclasses.asdict(rep))) == {
        "task": "t", "metric": "ACC", "value": 0.5, "details": {"queries": 3, "mrr": 0.25}}
    with pytest.raises(ValueError):
        EvalReport("t", "ACC", 1.5, {})


# -- the one ranking rule ----------------------------------------------------------


def lexsort_rank(scores, ids, gold):
    """Oracle: gold's position in the full lexsort ranking, or None."""
    at = np.flatnonzero(ids[np.lexsort((ids, -scores))] == gold)
    return int(at[0]) if len(at) else None


@pytest.mark.parametrize("seed", range(5))
def test_gold_rank_matches_the_lexsort_oracle_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = 12
    ids = rng.permutation(40)[:n]
    # few distinct values, so most scores tie with another
    scores = rng.integers(-2, 3, size=n).astype(np.float32) * np.float32(0.5)
    for gold in ids:
        assert gold_rank(scores, ids, gold) == lexsort_rank(scores, ids, gold)
    assert sorted(gold_rank(scores, ids, g) for g in ids) == list(range(n))
    absent = next(i for i in range(40) if i not in ids)
    assert gold_rank(scores, ids, absent) is None
    assert lexsort_rank(scores, ids, absent) is None


def test_gold_rank_treats_signed_zeros_as_a_tie():
    ids = np.array([3, 1, 2, 0])
    scores = np.array([0.0, -0.0, 0.0, -0.0])
    for gold in ids:
        assert gold_rank(scores, ids, gold) == lexsort_rank(scores, ids, gold) == gold
