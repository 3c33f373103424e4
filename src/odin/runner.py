"""End-to-end runs: pretraining over a node split, whole-graph embedding
computation, task fine-tuning, and evaluation protocols.

Determinism contract: every batch order, sampling draw, and mask plan is
derived from (config seed, epoch, step), never from a long-lived RNG stream,
so a run resumed from a checkpoint continues bit-identically. Reports repeat
bit for bit only at a fixed BLAS thread count: the BLAS splits its sums by
thread, so changing the count moves losses in the last ULP.

Inference rule: a node's embedding is the final [CLS] that odin_forward
returns for it when the batch is the whole graph. It does not depend on
which other nodes are requested or how they are batched. The pass encodes
num_nodes x depth node-layers whatever nodes are requested.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_model, save_model
from .config import RunConfig
from .encoder import ModelDims, Vocab, build_vocab, init_params, word_tokens
from .fusion import encode_texts, odin_forward, tokenize_nodes
from .graph import TaskSplit, TextGraph, make_few_shot_split
from .objectives import Adam, PretrainHyper, make_optimizer, pretrain_step
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


def pretrain_split(graph: TextGraph, fraction: float, seed: int) -> TaskSplit:
    """Plain node split (default 80/10/10); edges stay shared across splits."""
    order = generator(seed, "pretrain_split").permutation(graph.num_nodes)
    n_train = int(round(fraction * graph.num_nodes))
    n_valid = (graph.num_nodes - n_train) // 2
    train = tuple(sorted(int(v) for v in order[:n_train]))
    valid = tuple(sorted(int(v) for v in order[n_train: n_train + n_valid]))
    test = tuple(sorted(int(v) for v in order[n_train + n_valid:]))
    return TaskSplit(train, valid, test, shot_count=0)


def hyper_from_config(cfg: RunConfig) -> PretrainHyper:
    p = cfg.pretrain
    return PretrainHyper(
        batch_size=p.batch_size, epochs=p.epochs, mask_ratio=p.mask_ratio,
        lr_encoder=p.lr_encoder, lr_gnn=p.lr_gnn, fanout=cfg.sampler.fanout,
        optimizer=p.optimizer,
    )


def build_fresh_model(cfg: RunConfig, graph: TextGraph):
    vocab = build_vocab(graph.texts, cfg.pretrain.min_freq)
    dims = ModelDims(d=cfg.dims.d, heads=cfg.dims.heads, max_len=cfg.dims.max_len)
    schedule = cfg.schedule.build()
    params = init_params(vocab.size, dims, schedule.depth, schedule.hop_count,
                         cfg.seed, tie_mlm=cfg.pretrain.tie_mlm)
    return vocab, schedule, params


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
    is cut back to the steps the checkpoint covers."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schedule = cfg.schedule.build()
    hyper = hyper_from_config(cfg)
    ckpt_path = out / "checkpoint.bin"
    vocab_path = out / "vocab.tsv"
    log_path = out / "train_log.jsonl"
    digest = cfg.digest()

    start_epoch = 0
    epoch_totals: list[float] = []
    optimizer = make_optimizer(hyper)
    if resume and ckpt_path.exists():
        params, meta, opt_state = load_model(ckpt_path)
        if meta["config_digest"] != digest:
            raise ValueError("checkpoint was produced by a different config")
        vocab = Vocab.load(vocab_path)
        start_epoch = int(meta["epoch"]) + 1
        epoch_totals = list(meta["epoch_mean_loss"])
        if opt_state is not None and isinstance(optimizer, Adam):
            optimizer.load_state_dict(opt_state)
        log.info("resuming at epoch %d", start_epoch)
    else:
        vocab, schedule, params = build_fresh_model(cfg, graph)
        vocab.save(vocab_path)

    split = pretrain_split(graph, cfg.pretrain.train_fraction, cfg.seed)
    train_nodes = np.array(split.train_ids)
    steps_per_epoch = max(1, len(train_nodes) // hyper.batch_size)
    global_step = start_epoch * steps_per_epoch
    if start_epoch:
        _rewind_log(log_path, global_step)
    mode = "a" if start_epoch else "w"
    with open(log_path, mode, encoding="utf-8") as log_fh:
        for epoch in range(start_epoch, hyper.epochs):
            order = generator(cfg.seed, "order", epoch).permutation(len(train_nodes))
            total = 0.0
            for i in range(steps_per_epoch):
                batch = train_nodes[order[i * hyper.batch_size:(i + 1) * hyper.batch_size]]
                rec = pretrain_step(batch.tolist(), graph, params, schedule, optimizer,
                                    hyper, vocab, sub_seed(cfg.seed, "step", epoch, i))
                rec.update(step=global_step, epoch=epoch)
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
        "epochs": hyper.epochs,
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
    whatever `nodes` is; restricting it to the connected components that hold
    `nodes` is not done. `batch_size` bounds how many nodes each Transformer
    block processes at once, which bounds memory, not the result.
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
        res = odin_forward(graph, sub, tokens, params, schedule, rows=batch_size)
    return {v: res.cls.data[v].copy() for v in nodes}


def encode_labels(label_names: dict, params, schedule, vocab) -> dict[int, np.ndarray]:
    ids = sorted(label_names)
    with ad.no_grad():
        cls = encode_texts([label_names[i] for i in ids], params, schedule, vocab)
    return {lid: cls.data[i].copy() for i, lid in enumerate(ids)}


# -- link prediction -------------------------------------------------------------


def split_edges(graph: TextGraph, shots: int, seed: int):
    edges = sorted(graph.edges)
    order = generator(seed, "edge_split").permutation(len(edges))
    train = [edges[i] for i in order[:shots]]
    test = [edges[i] for i in order[shots:]]
    return train, test


def finetune_linkpred(cfg, graph, params, schedule, vocab, train_pairs) -> None:
    """In-batch contrastive fine-tuning on the training edges; the token
    reconstruction objective is dropped at this stage."""
    t = cfg.task
    hyper = hyper_from_config(cfg)
    hyper.lr_encoder = t.finetune_lr
    hyper.lr_gnn = t.finetune_lr
    optimizer = make_optimizer(hyper)
    for epoch in range(t.finetune_epochs):
        order = generator(cfg.seed, "lp_ft", epoch).permutation(len(train_pairs))
        for i in range(0, len(train_pairs), t.finetune_batch):
            pairs = [train_pairs[j] for j in order[i: i + t.finetune_batch]]
            if len(pairs) < 2:
                continue
            nodes = sorted({u for u, _ in pairs} | {v for _, v in pairs})
            sub = sample_frontiers(graph, nodes, schedule.hop_count, cfg.sampler.fanout,
                                   sub_seed(cfg.seed, "lp_ft", epoch, i))
            tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
            res = odin_forward(graph, sub, tokens, params, schedule)
            cls = res.cls_by_node()
            tails = sorted({v for _, v in pairs})
            tail_mat = ad.concat([ad.reshape(cls[v], (1, -1)) for v in tails], axis=0)
            loss = None
            for u, v in pairs:
                scores = ad.reshape(ad.matmul(tail_mat, ad.reshape(cls[u], (-1, 1))), (1, -1))
                gold = tails.index(v)
                term = ad.logsumexp(scores, axis=-1)[0] - scores[0, gold]
                loss = term if loss is None else loss + term
            params.zero_grad()
            loss.backward()
            optimizer.step(params)


def run_linkpred(cfg, graph, params, schedule, vocab, finetune: bool = True) -> EvalReport:
    train_pairs, test_pairs = split_edges(graph, cfg.task.linkpred_shots, cfg.seed)
    if len(test_pairs) < 2:
        raise ValueError("not enough held-out edges to evaluate")
    if finetune:
        finetune_linkpred(cfg, graph, params, schedule, vocab, train_pairs)
    nodes = {u for u, _ in test_pairs} | {v for _, v in test_pairs}
    emb = compute_embeddings(graph, nodes, params, schedule, vocab,
                             cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)
    return linkpred_eval(emb, test_pairs, cfg.seed, cfg.digest(),
                         batch_size=cfg.task.eval_batch)


# -- classification --------------------------------------------------------------


def finetune_classify(cfg, graph, params, schedule, vocab, split, labels) -> None:
    """Joint backbone + linear head fine-tuning on the few-shot train set."""
    classes = sorted({labels[v] for v in split.train_ids})
    to_idx = {c: i for i, c in enumerate(classes)}
    d = params.dims.d
    rng = generator(cfg.seed, "clf_head")
    params.heads["classifier_w"] = Tensor(
        rng.uniform(-1, 1, (d, len(classes))) / np.sqrt(d), requires_grad=True)
    params.heads["classifier_b"] = Tensor(np.zeros(len(classes)), requires_grad=True)
    t = cfg.task
    hyper = hyper_from_config(cfg)
    hyper.lr_encoder = t.finetune_lr
    hyper.lr_gnn = t.finetune_lr
    optimizer = make_optimizer(hyper)
    train = list(split.train_ids)
    for epoch in range(t.finetune_epochs):
        order = generator(cfg.seed, "clf_ft", epoch).permutation(len(train))
        for i in range(0, len(train), t.finetune_batch):
            batch = [train[j] for j in order[i: i + t.finetune_batch]]
            sub = sample_frontiers(graph, batch, schedule.hop_count, cfg.sampler.fanout,
                                   sub_seed(cfg.seed, "clf_ft", epoch, i))
            tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
            res = odin_forward(graph, sub, tokens, params, schedule)
            logits = ad.linear(res.cls, params.heads["classifier_w"],
                               params.heads["classifier_b"])
            gold = np.array([to_idx[labels[v]] for v in res.batch_nodes])
            lse = ad.logsumexp(logits, axis=-1)
            picked = ad.gather_elements(logits, np.arange(len(gold)), gold)
            loss = (lse - picked).sum()
            params.zero_grad()
            loss.backward()
            optimizer.step(params)


def run_classify(cfg, graph, params, schedule, vocab, finetune: bool = True) -> EvalReport:
    """The linear head always trains; the backbone is fine-tuned with it only
    when `finetune` and `task.finetune_backbone` are both set."""
    labels = graph.labels("coarse")
    split = make_few_shot_split(graph, cfg.task.classify_shots, "coarse", cfg.seed)
    if finetune and cfg.task.finetune_backbone:
        finetune_classify(cfg, graph, params, schedule, vocab, split, labels)
    nodes = set(split.train_ids) | set(split.test_ids)
    emb = compute_embeddings(graph, nodes, params, schedule, vocab,
                             cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)
    return classify_train_eval(emb, split, labels, cfg.task.head_epochs, cfg.seed,
                               cfg.task.head_lr, cfg.digest())


# -- retrieval / reranking -----------------------------------------------------------


def _label_tokens(label_names: dict):
    return {lid: word_tokens(name) for lid, name in label_names.items()}


def dpr_finetune(cfg, graph, params, schedule, vocab, split, labels) -> None:
    """In-batch contrastive training of node-vs-label-name encodings with one
    BM25-mined hard negative label per node."""
    if graph.label_names is None:
        raise ValueError("graph carries no label names")
    t = cfg.task
    label_ids = sorted(graph.label_names)
    ltoks = _label_tokens(graph.label_names)
    index = Bm25Index([ltoks[i] for i in label_ids], t.bm25_k1, t.bm25_b)
    hard_neg: dict[int, int] = {}
    for v in split.train_ids:
        ranked = index.rank(word_tokens(graph.texts[v]), top_n=3)
        cands = [label_ids[i] for i in ranked if label_ids[i] != labels[v]]
        hard_neg[v] = cands[0] if cands else label_ids[0]

    hyper = hyper_from_config(cfg)
    hyper.lr_encoder = t.finetune_lr
    hyper.lr_gnn = t.finetune_lr
    optimizer = make_optimizer(hyper)
    train = list(split.train_ids)
    for epoch in range(t.finetune_epochs):
        order = generator(cfg.seed, "dpr_ft", epoch).permutation(len(train))
        for i in range(0, len(train), t.finetune_batch):
            batch = [train[j] for j in order[i: i + t.finetune_batch]]
            if len(batch) < 2:
                continue
            sub = sample_frontiers(graph, batch, schedule.hop_count, cfg.sampler.fanout,
                                   sub_seed(cfg.seed, "dpr_ft", epoch, i))
            tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
            res = odin_forward(graph, sub, tokens, params, schedule)
            cls = res.cls_by_node()
            pool = sorted({labels[v] for v in batch} | {hard_neg[v] for v in batch})
            pool_cls = encode_texts([graph.label_names[i] for i in pool], params,
                                    schedule, vocab)
            loss = None
            for v in batch:
                scores = ad.reshape(
                    ad.matmul(pool_cls, ad.reshape(cls[v], (-1, 1))), (1, -1))
                gold = pool.index(labels[v])
                term = ad.logsumexp(scores, axis=-1)[0] - scores[0, gold]
                loss = term if loss is None else loss + term
            params.zero_grad()
            loss.backward()
            optimizer.step(params)


def run_retrieval(cfg, graph, params, schedule, vocab, finetune: bool = True) -> EvalReport:
    labels = graph.labels("fine")
    split = make_few_shot_split(graph, cfg.task.retrieve_shots, "fine", cfg.seed)
    if finetune:
        dpr_finetune(cfg, graph, params, schedule, vocab, split, labels)
    node_embs = compute_embeddings(graph, split.test_ids, params, schedule, vocab,
                                   cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)
    label_embs = encode_labels(graph.label_names, params, schedule, vocab)
    gold = {v: labels[v] for v in split.test_ids}
    return retrieval_eval(node_embs, label_embs, gold, cfg.task.recall_k,
                          cfg.seed, cfg.digest())


def run_rerank(cfg, graph, params, schedule, vocab, finetune: bool = True) -> EvalReport:
    labels = graph.labels("fine")
    split = make_few_shot_split(graph, cfg.task.rerank_shots, "fine", cfg.seed)
    if finetune:
        dpr_finetune(cfg, graph, params, schedule, vocab, split, labels)
    label_ids = sorted(graph.label_names)
    by_label = _label_tokens(graph.label_names)
    ltoks = [by_label[i] for i in label_ids]
    node_tokens = {v: word_tokens(graph.texts[v]) for v in split.test_ids}
    mined = mine_candidates(node_tokens, ltoks, cfg.task.rerank_candidates,
                            cfg.task.bm25_k1, cfg.task.bm25_b)
    candidates = {v: [label_ids[i] for i in mined[v]] for v in split.test_ids}
    node_embs = compute_embeddings(graph, split.test_ids, params, schedule, vocab,
                                   cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)
    label_embs = encode_labels(graph.label_names, params, schedule, vocab)
    gold = {v: labels[v] for v in split.test_ids}
    return rerank_eval(candidates, node_embs, label_embs, gold, cfg.seed, cfg.digest())


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
    params, meta, _ = load_model(checkpoint_path)
    vocab = Vocab.load(Path(checkpoint_path).parent / "vocab.tsv")
    schedule = cfg.schedule.build()
    return TASK_RUNNERS[task](cfg, graph, params, schedule, vocab, finetune=finetune)
