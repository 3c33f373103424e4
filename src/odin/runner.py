"""End-to-end runs: pretraining over a node split, whole-graph embedding
computation, task fine-tuning, and evaluation protocols.

Determinism contract: every batch order, sampling draw, and mask plan is
derived from (config seed, epoch, step), never from a long-lived RNG stream,
so a run resumed from a checkpoint continues bit-identically. Reports repeat
bit for bit only at a fixed BLAS thread count: the BLAS splits its sums by
thread, so changing the count moves losses in the last ULP.

Inference rule: a node's embedding is the final [CLS] that odin_forward
returns for it when the batch is the whole graph, so it depends only on the
graph, the parameters, the schedule and the seed, not on which other nodes
are requested. The pass encodes num_nodes x depth node-layers whatever nodes
are requested, the last layer's as [CLS] rows only (no caller reads an
embedding's token states); each block trims its tiles of similar-length
texts of PAD, so a layer costs about the texts' total length, not
num_nodes x the longest text. It holds one (N, T, d) state array, which
every block but the last writes over, plus one tile's temporaries.
"""

from __future__ import annotations

import json
import logging
import os
import resource
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import CheckpointError, load_model, save_model
from .config import RunConfig
from .encoder import ConfigError, Vocab, as_param, build_vocab, init_params, word_tokens
from .fusion import encode_texts, odin_forward, tokenize_nodes
from .graph import GraphFormatError, TaskSplit, TextGraph, make_few_shot_split
from .objectives import make_optimizer, optimize, pretrain_step, softmax_xent
from .rngutil import generator, sub_seed
from .sampler import sample_frontiers
from .tasks import (
    Bm25Index,
    EvalReport,
    classify_train_eval,
    linkpred_eval,
    mine_candidates,
    rerank_eval,
    retrieval_eval,
)

log = logging.getLogger(__name__)

# the settings that fix the BLAS thread count, which moves losses in the last
# ULP; every train_log.jsonl row records them (None when unset)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pretrain_split(graph: TextGraph, fraction: float, seed: int) -> TaskSplit:
    """Plain node split (default 80/10/10); edges stay shared across splits."""
    order = generator(seed, "pretrain_split").permutation(graph.num_nodes)
    n_train = int(round(fraction * graph.num_nodes))
    n_valid = (graph.num_nodes - n_train) // 2
    train = tuple(sorted(int(v) for v in order[:n_train]))
    valid = tuple(sorted(int(v) for v in order[n_train: n_train + n_valid]))
    test = tuple(sorted(int(v) for v in order[n_train + n_valid:]))
    return TaskSplit(train, valid, test)


def build_fresh_model(cfg: RunConfig, graph: TextGraph):
    vocab = build_vocab(graph.texts)
    schedule = cfg.schedule
    params = init_params(vocab.size, cfg.dims, schedule.depth, schedule.hop_count, cfg.seed)
    return vocab, schedule, params


def load_checkpoint(path):
    """(params, meta, optimizer state, vocab) from a checkpoint and the
    vocab.tsv beside it. Raises CheckpointError when the two disagree on the
    vocabulary size, as when the vocab was written for another graph."""
    params, meta, opt_state = load_model(path)
    try:
        vocab = Vocab.load(Path(path).parent / "vocab.tsv")
    except ValueError as exc:  # a damaged vocab.tsv
        raise CheckpointError(str(exc)) from None
    if vocab.size != params.vocab_size:
        raise CheckpointError(f"vocab.tsv holds {vocab.size} tokens but the checkpoint "
                              f"{path} was built for {params.vocab_size}")
    return params, meta, opt_state, vocab


def _rewind_log(path: Path, end_step: int) -> None:
    """Keep only the log rows of steps before `end_step`. A run that crashed
    after its last checkpoint logged steps the resumed run logs again. A row
    the crash cut short is dropped. The kept rows go to a temp file that is
    renamed over the log, so a crash here leaves the old log whole."""
    kept = []
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if row["step"] < end_step:
                kept.append(line + "\n")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("".join(kept), encoding="utf-8")
    os.replace(tmp, path)


def run_pretrain(cfg: RunConfig, graph: TextGraph, out_dir, resume: bool = False) -> dict:
    """Pretrain per the config; writes checkpoint.bin, train_log.jsonl, and a
    deterministic report.json into out_dir. Resumes at epoch granularity:
    the checkpoint carries the mean loss of every finished epoch, and the log
    is cut back to the steps the checkpoint covers. With pretrain.epochs=0
    the checkpoint holds the random init (epoch -1, step 0)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = cfg.pretrain
    ckpt_path = out / "checkpoint.bin"
    log_path = out / "train_log.jsonl"
    digest = cfg.digest()

    start_epoch = 0
    epoch_totals: list[float] = []
    optimizer = make_optimizer(p.optimizer, p.lr_encoder, p.lr_gnn)
    if resume and ckpt_path.exists():
        params, meta, opt_state, vocab = load_checkpoint(ckpt_path)
        if meta["config_digest"] != digest:
            raise ConfigError(f"{ckpt_path} was produced by a different config")
        start_epoch = int(meta["epoch"]) + 1
        epoch_totals = list(meta["epoch_mean_loss"])
        if opt_state is not None:
            optimizer.load_state_dict(opt_state)
        log.info("resuming at epoch %d", start_epoch)
    else:
        vocab, _, params = build_fresh_model(cfg, graph)
        vocab.save(out / "vocab.tsv")
        if p.epochs == 0:
            save_model(ckpt_path, params,
                       {"config_digest": digest, "epoch": -1, "step": 0,
                        "seed": cfg.seed, "epoch_mean_loss": []},
                       optimizer)

    split = pretrain_split(graph, cfg.pretrain.train_fraction, cfg.seed)
    train_nodes = np.array(split.train_ids)
    steps_per_epoch = max(1, len(train_nodes) // p.batch_size)
    global_step = start_epoch * steps_per_epoch
    if start_epoch:
        _rewind_log(log_path, global_step)
    mode = "a" if start_epoch else "w"
    blas_threads = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    tokens = tokenize_nodes(graph, range(graph.num_nodes), vocab, params.dims.max_len)
    with open(log_path, mode, encoding="utf-8") as log_fh:
        for epoch in range(start_epoch, p.epochs):
            order = generator(cfg.seed, "order", epoch).permutation(len(train_nodes))
            total = 0.0
            for i in range(steps_per_epoch):
                batch = train_nodes[order[i * p.batch_size:(i + 1) * p.batch_size]]
                rec = pretrain_step(batch.tolist(), graph, params, cfg.schedule, optimizer,
                                    vocab, tokens, sub_seed(cfg.seed, "step", epoch, i),
                                    fanout=cfg.sampler.fanout, mask_ratio=p.mask_ratio)
                # ru_maxrss is in KiB on Linux; like wall_ms, it never enters report.json
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                rec.update(step=global_step, epoch=epoch, peak_rss_mb=peak_rss_mb,
                           **blas_threads)
                log_fh.write(json.dumps(rec, sort_keys=True) + "\n")
                total += rec["total"]
                global_step += 1
            epoch_totals.append(total / steps_per_epoch)
            # the rows of every epoch the checkpoint covers must outlive a crash
            log_fh.flush()
            os.fsync(log_fh.fileno())
            save_model(ckpt_path, params,
                       {"config_digest": digest, "epoch": epoch, "step": global_step,
                        "seed": cfg.seed, "epoch_mean_loss": epoch_totals},
                       optimizer)
            log.info("epoch %d: mean loss %.4f", epoch, epoch_totals[-1])
    report = {
        "command": "pretrain",
        "config_digest": digest,
        "seed": cfg.seed,
        "epochs": p.epochs,
        "steps": global_step,
        "epoch_mean_loss": [round(x, 10) for x in epoch_totals],
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# -- embeddings ------------------------------------------------------------------


def compute_embeddings(
    graph: TextGraph, nodes, params, schedule, vocab, fanout: int, seed: int,
    batch_size: int = 64,
) -> dict[int, np.ndarray]:
    """Final [CLS] of each node in `nodes`, from one forward-only pass whose
    batch is the whole graph.

    An embedding is what odin_forward returns for that node when the batch is
    the whole graph, so it does not depend on batching. Every frontier is then
    the whole graph, no node freezes, and each node's neighbors are drawn
    once, at the batch-node hop. The pass costs num_nodes x depth node-layers
    whatever `nodes` is, the last layer's as [CLS] rows only; restricting it
    to the connected components that hold `nodes` is not done. Each
    Transformer block tiles the nodes by text length and trims each tile to
    its longest text (see ad.post_norm_block). The pass is the same whatever
    `nodes` is, so embeddings repeat bit for bit. Nothing reads `batch_size`:
    it stays only for callers that pass it by position. Embeddings have the
    parameters' dtype, float32.
    """
    nodes = sorted(set(nodes))
    if not nodes:
        return {}
    if nodes[0] < 0 or nodes[-1] >= graph.num_nodes:
        raise IndexError(f"nodes must lie in [0, {graph.num_nodes})")
    sub = sample_frontiers(graph, range(graph.num_nodes), schedule.hop_count, fanout,
                           sub_seed(seed, "embed"))
    tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
    with ad.no_grad():
        res = odin_forward(graph, sub, tokens, params, schedule)
    return {v: res.cls.data[v].copy() for v in nodes}


def encode_labels(label_names: dict, params, schedule, vocab) -> dict[int, np.ndarray]:
    ids = sorted(label_names)
    with ad.no_grad():
        cls = encode_texts([label_names[i] for i in ids], params, schedule, vocab)
    return {lid: cls.data[i].copy() for i, lid in enumerate(ids)}


# -- fine-tuning -------------------------------------------------------------------


def _finetune(cfg, graph, params, vocab, items, tag, loss_fn,
              min_batch=1, nodes_of=tuple, head=()) -> None:
    """Shuffled minibatch epochs over `items` with every parameter group at
    task.finetune_lr. Every node is tokenized once per run. A step samples
    and encodes the nodes_of(batch) and takes one gradient step on
    loss_fn(batch, forward result); batches smaller than `min_batch` are
    skipped. `head` holds (name, tensor) pairs that train with the model but
    are not part of it. Orders and samples derive from (seed, tag, epoch), so
    a fine-tune repeats bit for bit."""
    t = cfg.task
    optimizer = make_optimizer(cfg.pretrain.optimizer, t.finetune_lr, t.finetune_lr)
    named = [*params.named_parameters(), *head]
    # odin_forward reads only the entries of the sampled nodes
    tokens = tokenize_nodes(graph, range(graph.num_nodes), vocab, params.dims.max_len)
    for epoch in range(t.finetune_epochs):
        order = generator(cfg.seed, tag, epoch).permutation(len(items))
        for i in range(0, len(items), t.finetune_batch):
            batch = [items[j] for j in order[i: i + t.finetune_batch]]
            if len(batch) < min_batch:
                continue
            sub = sample_frontiers(graph, nodes_of(batch), cfg.schedule.hop_count,
                                   cfg.sampler.fanout, sub_seed(cfg.seed, tag, epoch, i))
            # no name holds the forward result, so each step frees its tape
            optimize(named, optimizer, loss_fn(batch, odin_forward(graph, sub, tokens,
                                                                   params, cfg.schedule)))


# -- link prediction -------------------------------------------------------------


def split_edges(graph: TextGraph, shots: int, seed: int):
    edges = sorted(graph.edges)
    order = generator(seed, "edge_split").permutation(len(edges))
    train = [edges[i] for i in order[:shots]]
    test = [edges[i] for i in order[shots:]]
    return train, test


def linkpred_loss(cls: Tensor, nodes, pairs) -> Tensor:
    """In-batch softmax over edges: the head of each (head, tail) pair scores
    every distinct tail in `pairs` and its own tail is the gold class; summed
    over pairs. Row i of `cls` belongs to nodes[i]."""
    row_of = {v: i for i, v in enumerate(nodes)}
    tails = sorted({v for _, v in pairs})
    heads = ad.take_rows(cls, [row_of[u] for u, _ in pairs])
    keys = ad.take_rows(cls, [row_of[v] for v in tails])
    return softmax_xent(ad.matmul(heads, keys.T), [tails.index(v) for _, v in pairs])


def finetune_linkpred(cfg, graph, params, vocab, train_pairs) -> None:
    """In-batch contrastive fine-tuning on the training edges; the token
    reconstruction objective is dropped at this stage."""
    _finetune(cfg, graph, params, vocab, train_pairs, "lp_ft",
              lambda pairs, res: linkpred_loss(res.cls, res.batch_nodes, pairs),
              min_batch=2, nodes_of=lambda pairs: [v for pair in pairs for v in pair])


def run_linkpred(cfg, graph, params, vocab, finetune: bool = True) -> EvalReport:
    train_pairs, test_pairs = split_edges(graph, cfg.task.linkpred_shots, cfg.seed)
    if len(test_pairs) < 2:
        raise ConfigError(f"task.linkpred_shots={cfg.task.linkpred_shots} leaves "
                          f"{len(test_pairs)} of {graph.num_edges} edges to evaluate")
    if finetune:
        finetune_linkpred(cfg, graph, params, vocab, train_pairs)
    nodes = {u for u, _ in test_pairs} | {v for _, v in test_pairs}
    emb = compute_embeddings(graph, nodes, params, cfg.schedule, vocab,
                             cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)
    return linkpred_eval(emb, test_pairs, batch_size=cfg.task.eval_batch)


# -- classification --------------------------------------------------------------


def _few_shot_split(cfg, graph, shots: str, label_kind: str) -> TaskSplit:
    """The few-shot split at task.<shots>; ConfigError if it has no test node."""
    k = getattr(cfg.task, shots)
    split = make_few_shot_split(graph, k, label_kind, cfg.seed)
    if not split.test_ids:
        raise ConfigError(f"task.{shots}={k} leaves no test node: every {label_kind} "
                          f"class has at most {k} members")
    return split


def finetune_classify(cfg, graph, params, vocab, split, labels) -> None:
    """Joint backbone + linear head fine-tuning on the few-shot train set."""
    classes = sorted({labels[v] for v in split.train_ids})
    to_idx = {c: i for i, c in enumerate(classes)}
    d = params.dims.d
    rng = generator(cfg.seed, "clf_head")
    w = as_param(rng.uniform(-1, 1, (d, len(classes))) / np.sqrt(d))
    b = as_param(np.zeros(len(classes)))

    def loss(batch, res):
        return softmax_xent(ad.linear(res.cls, w, b),
                            [to_idx[labels[v]] for v in res.batch_nodes])

    _finetune(cfg, graph, params, vocab, split.train_ids, "clf_ft", loss,
              head=(("head.w", w), ("head.b", b)))


def run_classify(cfg, graph, params, vocab, finetune: bool = True) -> EvalReport:
    """The linear head always trains on the embeddings; with `finetune` the
    backbone is fine-tuned first. A graph of fewer than two coarse classes
    raises GraphFormatError before any work."""
    labels = graph.labels("coarse")
    classes = sorted({lab for lab in labels if lab is not None})
    if len(classes) < 2:
        raise GraphFormatError(f"classify needs at least two coarse classes, but every "
                               f"labelled node has coarse_label {classes[0]!r}")
    split = _few_shot_split(cfg, graph, "classify_shots", "coarse")
    if finetune:
        finetune_classify(cfg, graph, params, vocab, split, labels)
    nodes = set(split.train_ids) | set(split.test_ids)
    emb = compute_embeddings(graph, nodes, params, cfg.schedule, vocab,
                             cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)
    return classify_train_eval(emb, split, labels, cfg.task.head_epochs, cfg.task.head_lr)


# -- retrieval / reranking -----------------------------------------------------------


def dpr_finetune(cfg, graph, params, vocab, split, labels) -> None:
    """In-batch contrastive training of node-vs-label-name encodings with one
    BM25-mined hard negative label per node."""
    label_ids = sorted(graph.label_names)
    index = Bm25Index([word_tokens(graph.label_names[i]) for i in label_ids])
    hard_neg: dict[int, int] = {}
    for v in split.train_ids:
        ranked = index.rank(word_tokens(graph.texts[v]), top_n=3)
        cands = [label_ids[i] for i in ranked if label_ids[i] != labels[v]]
        hard_neg[v] = cands[0] if cands else label_ids[0]

    def loss(batch, res):
        pool = sorted({labels[v] for v in batch} | {hard_neg[v] for v in batch})
        keys = encode_texts([graph.label_names[i] for i in pool], params, cfg.schedule, vocab)
        gold = [pool.index(labels[v]) for v in res.batch_nodes]
        return softmax_xent(ad.matmul(res.cls, keys.T), gold)

    _finetune(cfg, graph, params, vocab, split.train_ids, "dpr_ft", loss, min_batch=2)


def _label_task(cfg, graph, params, vocab, shots: str, finetune: bool):
    """What retrieve and rerank score after the fine-label split at
    task.<shots> and, with `finetune`, a DPR fine-tune: (test node
    embeddings, label embeddings, gold label per test node). A fine label
    that labels.jsonl leaves unnamed raises GraphFormatError before any work."""
    if graph.label_names is None:
        raise GraphFormatError("graph carries no label names: retrieve and rerank read "
                               "them from labels.jsonl beside nodes.jsonl")
    labels = graph.labels("fine")
    unnamed = sorted({lab for lab in labels if lab is not None} - graph.label_names.keys())
    if unnamed:
        shown = ", ".join(map(str, unnamed[:5])) + (", ..." if len(unnamed) > 5 else "")
        raise GraphFormatError(f"labels.jsonl names {len(graph.label_names)} labels but not "
                               f"{len(unnamed)} fine label(s) of the nodes: {shown}; "
                               "retrieve and rerank score each node by its label's name")
    split = _few_shot_split(cfg, graph, shots, "fine")
    if finetune:
        dpr_finetune(cfg, graph, params, vocab, split, labels)
    node_embs = compute_embeddings(graph, split.test_ids, params, cfg.schedule, vocab,
                                   cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)
    label_embs = encode_labels(graph.label_names, params, cfg.schedule, vocab)
    return node_embs, label_embs, {v: labels[v] for v in split.test_ids}


def run_retrieval(cfg, graph, params, vocab, finetune: bool = True) -> EvalReport:
    node_embs, label_embs, gold = _label_task(cfg, graph, params, vocab, "retrieve_shots",
                                              finetune)
    return retrieval_eval(node_embs, label_embs, gold, cfg.task.recall_k)


def run_rerank(cfg, graph, params, vocab, finetune: bool = True) -> EvalReport:
    node_embs, label_embs, gold = _label_task(cfg, graph, params, vocab, "rerank_shots",
                                              finetune)
    label_ids = sorted(graph.label_names)
    mined = mine_candidates({v: word_tokens(graph.texts[v]) for v in gold},
                            [word_tokens(graph.label_names[i]) for i in label_ids],
                            cfg.task.rerank_candidates)
    candidates = {v: [label_ids[i] for i in mined[v]] for v in gold}
    return rerank_eval(candidates, node_embs, label_embs, gold)


TASK_RUNNERS = {
    "linkpred": run_linkpred,
    "classify": run_classify,
    "retrieve": run_retrieval,
    "rerank": run_rerank,
}


def run_task(cfg: RunConfig, graph: TextGraph, task: str, checkpoint_path,
             finetune: bool = True) -> EvalReport:
    if task not in TASK_RUNNERS:
        raise ValueError(f"unknown task {task!r}, expected one of {sorted(TASK_RUNNERS)}")
    params, _, _, vocab = load_checkpoint(checkpoint_path)
    if params.dims != cfg.dims:
        raise ConfigError(f"a checkpoint of dims {params.dims} does not fit the "
                          f"config's {cfg.dims}")
    return TASK_RUNNERS[task](cfg, graph, params, vocab, finetune=finetune)
