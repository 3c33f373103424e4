"""End-to-end runs: whole-graph embeddings, the tiles of the block they use,
eval without fine-tuning, repeatable fine-tunes, a classify head kept out of
the model, the checkpoint loader, the pretrain log rows, resumed
pretraining, float32 against float64, and a gate that pretraining learns."""

import dataclasses
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from odin import autodiff as ad
from odin import runner
from odin.checkpoint import load_arrays, load_model, save_model
from odin.config import RunConfig
from odin.encoder import (ConfigError, ModelDims, Vocab, build_vocab, init_params,
                          transformer_block)
from odin.fusion import LayerSchedule, odin_forward, tokenize_nodes
from odin.graph import GraphFormatError, TextGraph, make_few_shot_split
from odin.objectives import make_optimizer, pretrain_step
from odin.rngutil import sub_seed
from odin.sampler import sample_frontiers
from odin.synth import SyntheticSpec, generate

from helpers import as_float64, full_block, full_row_forward, rand_tensor, write_with_key_biases


def small_cfg(tmp_path, **pretrain) -> RunConfig:
    cfg = RunConfig(seed=3)
    cfg.schedule.depth, cfg.schedule.positions = 4, [1, 2]
    cfg.dims.d, cfg.dims.heads, cfg.dims.max_len = 8, 2, 12
    cfg.sampler.fanout = 2
    cfg.paths.out_dir = str(tmp_path / "run")
    for key, value in pretrain.items():
        setattr(cfg.pretrain, key, value)
    cfg.validate()
    return cfg


def small_graph(seed=0, isolated=False) -> TextGraph:
    g = generate(SyntheticSpec(n_nodes=30, n_classes=3, vocab_size=40, words_per_node=6,
                               min_words_per_node=2, avg_degree=3.0, seed=seed))
    if not isolated:
        return g
    return TextGraph(g.texts + ("w0001 w0002 w0003",), g.edges)


# -- whole-graph embeddings -----------------------------------------------------


def _embed(cfg, graph, nodes, params, schedule, vocab):
    return runner.compute_embeddings(graph, nodes, params, schedule, vocab,
                                     cfg.sampler.fanout, cfg.seed, cfg.task.eval_batch)


def test_embeddings_do_not_depend_on_batching(tmp_path):
    cfg = small_cfg(tmp_path)
    cfg.task.eval_batch = 7
    graph = small_graph()
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    every = _embed(cfg, graph, range(graph.num_nodes), params, schedule, vocab)
    assert sorted(every) == list(range(graph.num_nodes))
    for v in (0, 13, graph.num_nodes - 1):
        alone = _embed(cfg, graph, [v], params, schedule, vocab)
        assert list(alone) == [v]
        np.testing.assert_array_equal(alone[v], every[v])
    some = _embed(cfg, graph, [9, 2, 9, 21], params, schedule, vocab)
    assert sorted(some) == [2, 9, 21]
    for v in some:
        np.testing.assert_array_equal(some[v], every[v])


@pytest.mark.parametrize("float64", [False, True], ids=["float32", "float64"])
def test_embeddings_match_one_unchunked_forward_with_grad(tmp_path, float64):
    # off the tape each block but the last writes over its input; on it none does
    cfg = small_cfg(tmp_path)
    cfg.task.eval_batch = 4
    graph = small_graph(seed=1, isolated=True)
    lonely = graph.num_nodes - 1
    assert graph.degree(lonely) == 0
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    if float64:
        as_float64(params)
    got = _embed(cfg, graph, range(graph.num_nodes), params, schedule, vocab)

    sub = sample_frontiers(graph, range(graph.num_nodes), schedule.hop_count,
                           cfg.sampler.fanout, sub_seed(cfg.seed, "embed"))
    tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
    res = odin_forward(graph, sub, tokens, params, schedule)
    assert res.cls.requires_grad
    # the blocks tile the same way on and off the tape
    np.testing.assert_array_equal(np.stack([got[v] for v in range(graph.num_nodes)]),
                                  res.cls.data)


def test_a_forward_only_pass_holds_one_state_array():
    # 1000 nodes of 17 to 32 tokens at d = 64: the (N, T, d) float32 state
    # is 7.8 MiB, far above one tile's temporaries (about 1.8 MiB). Layer
    # 0's block writes over the embedding and layer 1's over its input;
    # layer 2 runs [CLS] alone. Beside the state the pass holds the tile
    # temporaries or _check_finite's (N, T, d) bool mask, a quarter of the
    # state, and the token ids: 1.38 states in all, where a second state
    # array made 2.38.
    n, d = 1000, 64
    graph = generate(SyntheticSpec(n_nodes=n, n_classes=4, vocab_size=60, words_per_node=31,
                                   min_words_per_node=16, avg_degree=2.0, seed=0))
    assert max(len(text.split()) for text in graph.texts) == 31  # T = 32 with [CLS]
    vocab = build_vocab(graph.texts)
    schedule = LayerSchedule(3, (1,), "PG")
    params = init_params(vocab.size, ModelDims(d=d, heads=4, max_len=32), 3, 1, seed=0)
    tracemalloc.start()
    try:
        runner.compute_embeddings(graph, range(n), params, schedule, vocab, 2, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = n * 32 * d * 4
    assert peak < 1.5 * state


def _embeddings_per_eval_batch(tmp_path, float64):
    cfg = small_cfg(tmp_path)
    graph = small_graph()
    assert len({len(text.split()) for text in graph.texts}) > 2  # tiles trim differently
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    if float64:
        as_float64(params)
    runs = []
    for batch in (1, 4, 7, graph.num_nodes):
        cfg.task.eval_batch = batch
        emb = _embed(cfg, graph, range(graph.num_nodes), params, schedule, vocab)
        runs.append(np.stack([emb[v] for v in range(graph.num_nodes)]))
    return runs


def test_embeddings_agree_across_eval_batch(tmp_path):
    runs = _embeddings_per_eval_batch(tmp_path, float64=True)
    for got in runs[1:]:
        np.testing.assert_array_equal(got, runs[0])


def test_float32_embeddings_agree_across_eval_batch(tmp_path):
    # nothing reads the batch size, so embeddings repeat bit for bit
    runs = _embeddings_per_eval_batch(tmp_path, float64=False)
    assert runs[0].dtype == np.float32
    for got in runs[1:]:
        np.testing.assert_array_equal(got, runs[0])


@pytest.mark.parametrize("float64", [False, True])
def test_embeddings_repeat_bit_for_bit_and_match_the_full_row_oracle(tmp_path, float64):
    # texts of 2 to 8 words: each block sorts, trims and tiles them itself
    cfg = small_cfg(tmp_path)
    graph = generate(SyntheticSpec(n_nodes=40, n_classes=3, vocab_size=40, words_per_node=8,
                                   min_words_per_node=2, avg_degree=3.0, seed=5))
    n = graph.num_nodes
    assert {len(text.split()) for text in graph.texts} == set(range(2, 9))
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    if float64:
        as_float64(params)

    def embed(nodes, batch_size):
        return runner.compute_embeddings(graph, nodes, params, schedule, vocab,
                                         cfg.sampler.fanout, cfg.seed, batch_size)

    every = embed(range(n), 64)
    for batch_size in (1, 5, 64):
        for nodes in (range(n), [0], [n - 1, 3, 3, 17], range(1, n, 4)):
            emb = embed(nodes, batch_size)
            assert sorted(emb) == sorted(set(nodes))
            for v in emb:
                np.testing.assert_array_equal(emb[v], every[v])
    sub = sample_frontiers(graph, range(n), schedule.hop_count, cfg.sampler.fanout,
                           sub_seed(cfg.seed, "embed"))
    tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
    want = full_row_forward(sub, tokens, params, schedule).cls.data
    np.testing.assert_allclose(np.stack([every[v] for v in range(n)]), want, rtol=0,
                               atol=1e-12 if float64 else 1e-5)


def test_embeddings_of_no_nodes_run_no_pass(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path)
    graph = small_graph()
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)

    def no_pass(*args, **kwargs):
        raise AssertionError("forward pass for an empty request")

    monkeypatch.setattr(runner, "odin_forward", no_pass)
    assert _embed(cfg, graph, [], params, schedule, vocab) == {}
    for bad in ([graph.num_nodes], [-1, 3]):
        with pytest.raises(IndexError):
            _embed(cfg, graph, bad, params, schedule, vocab)


# -- the block's tiles ------------------------------------------------------------
#
# A _TILE of 10 or less makes each block tile 4 sequences of width 5 at a
# time, and _TILE 1 runs its MLP one row at a time.


def _block_inputs(seed=0, n=11, t=5, d=8):
    rng = np.random.default_rng(seed)
    params = init_params(20, ModelDims(d=d, heads=2, max_len=t), 1, 0, seed)
    x = rand_tensor(rng, n, t, d)
    agg = rand_tensor(rng, n, d)
    lengths = rng.integers(1, t + 1, size=n)
    return params.layers[0], x, agg, lengths, params


@pytest.mark.parametrize("tile", [1, 4, 11, 50])
def test_block_in_row_chunks_equals_whole_block(tile, monkeypatch):
    lp, x, agg, lengths, _ = _block_inputs()
    whole = full_block(x, agg, lp, 2, lengths)
    monkeypatch.setattr(ad, "_TILE", tile)
    with ad.no_grad():
        tiled = full_block(x, agg, lp, 2, lengths)
    assert tiled.shape == whole.shape
    np.testing.assert_allclose(tiled.data, whole.data, rtol=0, atol=1e-13)


def test_block_output_is_zero_at_pad_positions(monkeypatch):
    lp, x, agg, lengths, _ = _block_inputs()
    pad = np.arange(5)[None, :] >= lengths[:, None]
    assert pad.any()
    for tile in (None, 4):
        if tile:
            monkeypatch.setattr(ad, "_TILE", tile)
        out = full_block(x, agg, lp, 2, lengths).data
        assert np.all(out[pad] == 0)


def test_block_chunks_are_trimmed_to_their_longest_sequence(monkeypatch):
    lp, x, agg, _, _ = _block_inputs()
    lengths = np.array([5, 1, 3, 2, 5, 1, 4, 1, 3, 1, 3])
    whole = full_block(x, agg, lp, 2, lengths)
    seen = []
    weights = ad._attention_weights

    def record(q, k, mask):
        seen.append((len(q), k.shape[2] - 1, mask is None))  # keys: [agg; x]
        return weights(q, k, mask)

    monkeypatch.setattr(ad, "_attention_weights", record)
    monkeypatch.setattr(ad, "_TILE", 10)
    tiled = full_block(x, agg, lp, 2, lengths)
    # sorted lengths 1 1 1 1 | 2 3 3 3 | 4 5 5; a tile without PAD gets no mask
    assert seen == [(4, 1, True), (4, 3, False), (3, 5, False)]
    np.testing.assert_allclose(tiled.data, whole.data, rtol=0, atol=1e-13)


def test_block_in_row_chunks_gives_the_same_gradients(monkeypatch):
    lp, x, agg, lengths, params = _block_inputs(seed=2)
    weights = np.random.default_rng(3).standard_normal(x.shape)
    grads = []
    for tile in (None, 4):  # 11 sequences: one tile, or tiles of 4, 4 and 3
        if tile:
            monkeypatch.setattr(ad, "_TILE", tile)
        for t in [p for _, p in params.named_parameters()] + [x, agg]:
            t.zero_grad()
        out = full_block(x, agg, lp, 2, lengths)
        (out * weights).sum().backward()
        grads.append([p.grad.copy() for _, p in params.named_parameters()
                      if p.grad is not None] + [x.grad.copy(), agg.grad.copy()])
    assert len(grads[0]) == len(grads[1]) == 17  # 15 layer tensors, x and agg
    for want, got in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)



@pytest.mark.parametrize("tile", [None, 4])
@pytest.mark.parametrize("full_rows", [0, 5, 11])
def test_block_with_full_rows_matches_the_whole_block(full_rows, tile, monkeypatch):
    # 11 sequences with PAD: the first full_rows keep token states, the rest
    # run [CLS] alone and must get the whole block's [CLS] and gradients
    lp, x, agg, lengths, params = _block_inputs(seed=4)
    weights = np.random.default_rng(5).standard_normal(x.shape)
    outs, grads = [], []
    for plan in (None, full_rows):
        for t in [p for _, p in params.named_parameters()] + [x, agg]:
            t.zero_grad()
        if plan is None:
            whole = full_block(x, agg, lp, 2, lengths)
            states, cls = whole[:full_rows], whole[:, 0, :]
        else:
            if tile:
                monkeypatch.setattr(ad, "_TILE", tile)
            states, cls = transformer_block(x, agg, lp, 2, lengths, full_rows=plan)
            assert (states is None) == (full_rows == 0)
        loss = (cls * weights[:, 0]).sum()
        if full_rows:
            loss = loss + (states * weights[:full_rows]).sum()
        loss.backward()
        outs.append([cls.data] + ([states.data] if full_rows else []))
        grads.append([p.grad.copy() for _, p in params.named_parameters()
                      if p.grad is not None] + [x.grad.copy(), agg.grad.copy()])
    for want, got in zip(*outs, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert len(grads[0]) == len(grads[1]) == 17
    for want, got in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# -- eval vs fine-tune --------------------------------------------------------------


def _write_init_checkpoint(cfg, graph, path):
    vocab, _, params = runner.build_fresh_model(cfg, graph)
    path.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(path.parent / "vocab.tsv")
    save_model(path, params, {"config_digest": cfg.digest(), "epoch": -1, "step": 0,
                              "seed": cfg.seed})


@pytest.mark.parametrize("finetune", [False, True])
def test_classify_eval_leaves_loaded_parameters_untouched(tmp_path, monkeypatch, finetune):
    cfg = small_cfg(tmp_path)
    cfg.task.classify_shots, cfg.task.finetune_epochs, cfg.task.head_epochs = 2, 1, 5
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    loaded = []
    real_load = runner.load_model

    def keep_params(path):
        out = real_load(path)
        loaded.append(out[0])
        return out

    monkeypatch.setattr(runner, "load_model", keep_params)
    report = runner.run_task(cfg, graph, "classify", ckpt, finetune=finetune)
    assert 0.0 <= report.value <= 1.0
    saved, _ = load_arrays(ckpt)
    changed = [name for name, p in loaded[0].named_parameters()
               if name not in saved or not np.array_equal(p.data, saved[name])]
    assert bool(changed) == finetune


def test_eval_on_a_checkpoint_with_key_biases_ignores_them(tmp_path):
    # a checkpoint of the format that held a key bias per layer loads, and
    # eval reports what it reports without them
    cfg = small_cfg(tmp_path)
    cfg.task.classify_shots, cfg.task.head_epochs = 2, 5
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    want = runner.run_task(cfg, graph, "classify", ckpt, finetune=False)
    params, meta, _ = load_model(ckpt)
    write_with_key_biases(ckpt, params, meta)
    assert runner.run_task(cfg, graph, "classify", ckpt, finetune=False) == want


def _fail_on_any_work(monkeypatch):
    for name in ("_few_shot_split", "finetune_classify", "dpr_finetune", "compute_embeddings"):
        monkeypatch.setattr(runner, name, lambda *a, **k: pytest.fail("worked before the check"))


@pytest.mark.parametrize("finetune", [False, True])
@pytest.mark.parametrize("task", ["retrieve", "rerank"])
@pytest.mark.parametrize("kept,match", [
    ({1, 2}, "names 2 labels but not 1 fine label.*: 0;"),
    (set(), "names 0 labels but not 3 fine label.*: 0, 1, 2;"),
], ids=["label 0 unnamed", "no label named"])
def test_a_fine_label_without_a_name_raises_before_any_work(
        tmp_path, monkeypatch, finetune, task, kept, match):
    # without label 0's name, dpr_finetune ended in a KeyError and eval
    # counted its nodes as misses; with no name, encode_texts got no text
    cfg = small_cfg(tmp_path)
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    graph = dataclasses.replace(graph, label_names={lid: name for lid, name
                                                    in graph.label_names.items() if lid in kept})
    _fail_on_any_work(monkeypatch)
    with pytest.raises(GraphFormatError, match=match):
        runner.run_task(cfg, graph, task, ckpt, finetune=finetune)


def test_classify_on_one_coarse_class_raises_before_any_work(tmp_path, monkeypatch):
    # it fine-tuned, then classify_train_eval raised a ValueError
    cfg = small_cfg(tmp_path)
    cfg.task.classify_shots = 2
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    graph = dataclasses.replace(graph, coarse_labels=(None,) + (5,) * (graph.num_nodes - 1))
    _fail_on_any_work(monkeypatch)
    with pytest.raises(GraphFormatError, match="at least two coarse classes.*coarse_label 5"):
        runner.run_task(cfg, graph, "classify", ckpt)


@pytest.mark.parametrize("task", ["linkpred", "retrieve", "rerank"])
def test_finetune_from_one_checkpoint_repeats(tmp_path, task):
    cfg = small_cfg(tmp_path)
    cfg.task.finetune_epochs, cfg.task.finetune_batch = 2, 4
    cfg.task.linkpred_shots, cfg.task.retrieve_shots, cfg.task.rerank_shots = 12, 3, 3
    cfg.task.recall_k, cfg.task.rerank_candidates = 2, 3
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    reports = [runner.run_task(cfg, graph, task, ckpt) for _ in range(2)]
    assert reports[0] == reports[1]


def test_classify_finetune_keeps_the_head_out_of_the_model(tmp_path):
    cfg = small_cfg(tmp_path)
    cfg.task.finetune_epochs = 1
    graph = small_graph()
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    split = make_few_shot_split(graph, 2, "coarse", cfg.seed)
    runner.finetune_classify(cfg, graph, params, vocab, split, graph.labels("coarse"))
    fresh = init_params(vocab.size, cfg.dims, schedule.depth, schedule.hop_count, seed=0)
    names = [name for name, _ in params.named_parameters()]
    assert names == [name for name, _ in fresh.named_parameters()]
    path = tmp_path / "tuned.bin"
    save_model(path, params, {"config_digest": cfg.digest(), "epoch": 0, "step": 0,
                              "seed": cfg.seed})
    loaded = dict(load_model(path)[0].named_parameters())
    assert list(loaded) == names
    for name, p in params.named_parameters():
        np.testing.assert_array_equal(loaded[name].data, p.data, err_msg=name)


def test_finetune_holds_one_tape_at_a_time(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path)
    cfg.task.classify_shots, cfg.task.finetune_epochs, cfg.task.finetune_batch = 2, 2, 2
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    results, live_at_start = [], []
    forward = runner.odin_forward

    def tracked(*args, **kwargs):
        live_at_start.append(sum(ref() is not None for ref in results))
        res = forward(*args, **kwargs)
        results.append(weakref.ref(res))
        return res

    monkeypatch.setattr(runner, "odin_forward", tracked)
    runner.run_task(cfg, graph, "classify", ckpt, finetune=True)
    # 3 classes x 2 shots in batches of 2: 3 steps per epoch, then the eval pass
    assert len(results) == 2 * 3 + 1
    assert live_at_start == [0] * len(results)


def test_a_finetune_tokenizes_every_node_once(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path)
    cfg.task.finetune_epochs, cfg.task.finetune_batch = 2, 4
    graph = small_graph()
    vocab, _, params = runner.build_fresh_model(cfg, graph)
    train_pairs, _ = runner.split_edges(graph, 8, cfg.seed)
    calls, forwards = [], []
    tokenize, forward = runner.tokenize_nodes, runner.odin_forward

    def tracked_tokenize(graph, nodes, *args):
        calls.append(list(nodes))
        return tokenize(graph, nodes, *args)

    def tracked_forward(*args, **kwargs):
        forwards.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(runner, "tokenize_nodes", tracked_tokenize)
    monkeypatch.setattr(runner, "odin_forward", tracked_forward)
    runner.finetune_linkpred(cfg, graph, params, vocab, train_pairs)
    assert len(forwards) == 2 * 2  # 8 pairs in batches of 4, two epochs
    assert calls == [list(range(graph.num_nodes))]


def test_a_pretraining_run_tokenizes_every_node_once(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path, epochs=2, batch_size=8)
    graph = small_graph()
    calls, tables = [], []
    tokenize, step = runner.tokenize_nodes, runner.pretrain_step

    def tracked_tokenize(graph, nodes, *args):
        calls.append(list(nodes))
        return tokenize(graph, nodes, *args)

    def tracked_step(batch, graph, params, schedule, optimizer, vocab, tokens, *args, **kw):
        before = {v: ids.copy() for v, ids in tokens.items()}
        rec = step(batch, graph, params, schedule, optimizer, vocab, tokens, *args, **kw)
        tables.append(tokens)
        assert tokens.keys() == before.keys()  # the masked rows are copies
        assert all(np.array_equal(tokens[v], ids) for v, ids in before.items())
        return rec

    monkeypatch.setattr(runner, "tokenize_nodes", tracked_tokenize)
    monkeypatch.setattr(runner, "pretrain_step", tracked_step)
    report = runner.run_pretrain(cfg, graph, cfg.paths.out_dir)
    assert calls == [list(range(graph.num_nodes))]
    assert len(tables) == report["steps"] > 2
    assert all(table is tables[0] for table in tables)


# -- checkpoint loading --------------------------------------------------------------


def test_vocab_from_another_graph_is_rejected(tmp_path):
    cfg = small_cfg(tmp_path)
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    other = generate(SyntheticSpec(n_nodes=30, n_classes=3, vocab_size=90,
                                   words_per_node=6, seed=5))
    other_vocab, _, _ = runner.build_fresh_model(cfg, other)
    assert other_vocab.size != runner.build_fresh_model(cfg, graph)[0].size
    other_vocab.save(ckpt.parent / "vocab.tsv")
    with pytest.raises(ValueError, match="vocab"):
        runner.run_task(cfg, graph, "classify", ckpt, finetune=False)
    with pytest.raises(ValueError, match="vocab"):
        runner.load_checkpoint(ckpt)


def test_zero_epochs_writes_the_random_init_checkpoint(tmp_path):
    cfg = small_cfg(tmp_path, epochs=0)
    graph = small_graph()
    out = tmp_path / "run"
    report = runner.run_pretrain(cfg, graph, out)
    assert report["steps"] == 0 and report["epoch_mean_loss"] == []
    params, meta, _, vocab = runner.load_checkpoint(out / "checkpoint.bin")
    assert (meta["epoch"], meta["step"]) == (-1, 0)
    _, _, fresh = runner.build_fresh_model(cfg, graph)
    for (name, p), (_, q) in zip(params.named_parameters(), fresh.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
    for task in ("linkpred", "classify"):
        rep = runner.run_task(cfg, graph, task, out / "checkpoint.bin", finetune=False)
        assert rep.task == task and 0.0 <= rep.value <= 1.0


def test_every_log_row_pairs_or_counts_each_batch_node(tmp_path):
    cfg = small_cfg(tmp_path, epochs=2, batch_size=6)
    runner.run_pretrain(cfg, small_graph(seed=1), tmp_path / "run")
    rows = [json.loads(line)
            for line in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
    assert len(rows) == 2 * (24 // 6)  # 80% of 30 nodes train
    assert all(row["pairs"] + row["unpaired"] == 6 for row in rows)
    assert any(row["unpaired"] for row in rows) and any(row["pairs"] for row in rows)
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert "unpaired" not in report



def test_every_log_row_records_loss_means_beside_their_chance_levels(tmp_path):
    cfg = small_cfg(tmp_path, epochs=2, batch_size=6)
    runner.run_pretrain(cfg, small_graph(seed=1), tmp_path / "run")
    rows = [json.loads(line)
            for line in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
    vocab = Vocab.load(tmp_path / "run" / "vocab.tsv")
    assert rows and all(row["masked_tokens"] for row in rows)
    for row in rows:
        # a step without contrast pairs has no mean MNP loss
        assert row["l1_mean"] == (row["l1"] / row["pairs"] if row["pairs"] else None)
        assert row["l2_mean"] == row["l2"] / row["masked_tokens"]
        assert row["l1_chance"] == math.log(2)
        assert row["l2_chance"] == math.log(vocab.size)
    report = (tmp_path / "run" / "report.json").read_text()
    assert not [key for key in ("l1_mean", "l2_mean", "l1_chance", "l2_chance") if key in report]


def test_every_log_row_records_the_blas_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    cfg = small_cfg(tmp_path, epochs=1, batch_size=6)
    runner.run_pretrain(cfg, small_graph(), tmp_path / "run")
    rows = [json.loads(line)
            for line in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
    assert rows and all({name: row[name] for name in runner.BLAS_THREAD_VARS}
                        == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                            "MKL_NUM_THREADS": "2"} for row in rows)
    report = (tmp_path / "run" / "report.json").read_text()
    assert not [name for name in runner.BLAS_THREAD_VARS if name in report]


def test_every_log_row_records_the_peak_rss(tmp_path):
    cfg = small_cfg(tmp_path, epochs=1, batch_size=6)
    runner.run_pretrain(cfg, small_graph(), tmp_path / "run")
    rows = [json.loads(line)
            for line in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
    assert len(rows) == 24 // 6
    peaks = [row["peak_rss_mb"] for row in rows]
    assert all(isinstance(mb, float) and 10 < mb < 1e5 for mb in peaks)
    assert peaks == sorted(peaks)  # a process's peak never falls
    assert "peak_rss_mb" not in (tmp_path / "run" / "report.json").read_text()


# -- resumed pretraining ---------------------------------------------------------------


class _Crash(RuntimeError):
    pass


def _run_dir_files(out):
    rows = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    for row in rows:
        del row["wall_ms"], row["peak_rss_mb"]
    return ((out / "report.json").read_bytes(), (out / "checkpoint.bin").read_bytes(), rows)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("crash_offset", [0, 2])  # first step of epoch 1, mid-epoch 1
def test_resume_after_crash_matches_uninterrupted_run(tmp_path, monkeypatch, optimizer,
                                                      crash_offset):
    cfg = small_cfg(tmp_path, epochs=2, batch_size=6, optimizer=optimizer)
    graph = small_graph()
    steps_per_epoch = 24 // 6  # 80% of 30 nodes train
    runner.run_pretrain(cfg, graph, tmp_path / "straight")
    want = _run_dir_files(tmp_path / "straight")
    assert [row["step"] for row in want[2]] == list(range(2 * steps_per_epoch))

    crash_at = steps_per_epoch + crash_offset
    real_step = runner.pretrain_step
    calls = []

    def crashing_step(*args, **kwargs):
        if len(calls) == crash_at:
            raise _Crash
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(runner, "pretrain_step", crashing_step)
    with pytest.raises(_Crash):
        runner.run_pretrain(cfg, graph, tmp_path / "resumed")
    logged = (tmp_path / "resumed" / "train_log.jsonl").read_text().splitlines()
    assert len(logged) == crash_at
    monkeypatch.setattr(runner, "pretrain_step", real_step)
    report = runner.run_pretrain(cfg, graph, tmp_path / "resumed", resume=True)
    assert len(report["epoch_mean_loss"]) == 2
    got = _run_dir_files(tmp_path / "resumed")
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]


def test_resume_under_another_config_is_rejected_and_touches_nothing(tmp_path):
    cfg = small_cfg(tmp_path, epochs=1, batch_size=6)
    graph = small_graph()
    out = tmp_path / "run"
    runner.run_pretrain(cfg, graph, out)
    files = ("checkpoint.bin", "train_log.jsonl", "vocab.tsv")
    before = {name: (out / name).read_bytes() for name in files}
    cfg.pretrain.mask_ratio = 0.3
    with pytest.raises(ConfigError, match=re.escape(f"{out / 'checkpoint.bin'} was produced "
                                                    "by a different config")):
        runner.run_pretrain(cfg, graph, out, resume=True)
    assert {name: (out / name).read_bytes() for name in files} == before


# -- float32 against float64 ------------------------------------------------------------


def _losses_and_embeddings(cfg, graph, float64, steps=10):
    """Total losses of `steps` pretrain steps from the config's init, then the
    whole-graph embeddings; with `float64` the init is cast first."""
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    if float64:
        as_float64(params)
    p = cfg.pretrain
    optimizer = make_optimizer(p.optimizer, p.lr_encoder, p.lr_gnn)
    train = runner.pretrain_split(graph, p.train_fraction, cfg.seed).train_ids
    tokens = tokenize_nodes(graph, range(graph.num_nodes), vocab, params.dims.max_len)
    losses = []
    for i in range(steps):
        batch = np.random.default_rng(i).choice(train, p.batch_size, replace=False).tolist()
        rec = pretrain_step(batch, graph, params, schedule, optimizer, vocab, tokens, i,
                            cfg.sampler.fanout, p.mask_ratio)
        losses.append(rec["total"])
    emb = _embed(cfg, graph, range(graph.num_nodes), params, schedule, vocab)
    return np.array(losses), np.stack([emb[v] for v in range(graph.num_nodes)])


def test_float32_run_stays_near_float64_from_the_same_init():
    """The default config under Adam at 1e-3, which moves the weights more
    than the default SGD, on a 100-node graph. Measured at seeds 0-2: losses
    within 2e-7 relative, embeddings within 3.3e-6 (max |e| about 3)."""
    cfg = RunConfig(seed=0)
    cfg.pretrain.optimizer, cfg.pretrain.lr_encoder = "adam", 1e-3
    graph = generate(SyntheticSpec(seed=0, n_nodes=100))
    losses32, emb32 = _losses_and_embeddings(cfg, graph, float64=False)
    losses64, emb64 = _losses_and_embeddings(cfg, graph, float64=True)
    assert emb32.dtype == np.float32 and emb64.dtype == np.float64
    np.testing.assert_allclose(losses32, losses64, rtol=1e-5, atol=0)
    np.testing.assert_allclose(emb32, emb64, rtol=0, atol=1e-4)


# -- learning gate ----------------------------------------------------------------------

# Set from the sizing run before this test existed: at these seeds the smallest
# gains over the random init were +0.034 on linkpred and +0.17 on classify.
GATE_MARGINS = {"linkpred": 0.01, "classify": 0.10}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pretraining_beats_the_random_init(tmp_path, seed):
    """A small config that is measured to learn: 40 epochs of Adam at 1e-3
    beat the epochs=0 checkpoint on linkpred and classify, without fine-tuning."""
    graph = generate(SyntheticSpec(seed=0, n_nodes=100))
    scores = {}
    for epochs in (0, 40):
        cfg = RunConfig(seed=seed)
        cfg.schedule = LayerSchedule(4, (2,), "PG")
        cfg.dims.d, cfg.dims.heads, cfg.dims.max_len = 16, 2, 16
        cfg.pretrain.optimizer, cfg.pretrain.lr_encoder, cfg.pretrain.epochs = "adam", 1e-3, epochs
        cfg.validate()
        out = tmp_path / f"epochs-{epochs}"
        runner.run_pretrain(cfg, graph, out)
        scores[epochs] = {task: runner.run_task(cfg, graph, task, out / "checkpoint.bin",
                                                finetune=False).value
                          for task in GATE_MARGINS}
    for task, margin in GATE_MARGINS.items():
        assert scores[40][task] - scores[0][task] >= margin, (task, scores)


@pytest.mark.xfail(strict=True, reason="defaults do not learn (ROADMAP item 1)")
def test_default_config_pretraining_beats_the_random_init(tmp_path):
    """The default config, pretrained for its 10 epochs, must beat its own
    epochs=0 checkpoint by GATE_MARGINS at every seed, without fine-tuning.
    One test over the seeds, so one lucky seed cannot pass it."""
    graph = generate(SyntheticSpec(seed=0, n_nodes=100))
    default_epochs = RunConfig().pretrain.epochs
    gains = {}
    for seed in (0, 1, 2):
        scores = {}
        for epochs in (0, default_epochs):
            cfg = RunConfig(seed=seed)
            cfg.pretrain.epochs = epochs
            out = tmp_path / f"seed-{seed}-epochs-{epochs}"
            runner.run_pretrain(cfg, graph, out)
            scores[epochs] = {task: runner.run_task(cfg, graph, task, out / "checkpoint.bin",
                                                    finetune=False).value
                              for task in GATE_MARGINS}
        gains[seed] = {task: scores[default_epochs][task] - scores[0][task]
                       for task in GATE_MARGINS}
    assert all(gain[task] >= margin for gain in gains.values()
               for task, margin in GATE_MARGINS.items()), gains
