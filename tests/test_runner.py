"""End-to-end runs: whole-graph embeddings, the row-chunked block they use,
eval without fine-tuning, repeatable fine-tunes, the checkpoint loader and
resumed pretraining."""

import json

import numpy as np
import pytest

from odin import autodiff as ad
from odin import encoder, runner
from odin.checkpoint import load_arrays, save_model
from odin.config import RunConfig
from odin.encoder import ModelDims, init_params, transformer_block
from odin.fusion import odin_forward, tokenize_nodes
from odin.graph import TextGraph
from odin.rngutil import sub_seed
from odin.sampler import sample_frontiers
from odin.synth import SyntheticSpec, generate

from helpers import rand_tensor


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


def test_embeddings_match_one_unchunked_forward_with_grad(tmp_path):
    cfg = small_cfg(tmp_path)
    cfg.task.eval_batch = 4
    graph = small_graph(seed=1, isolated=True)
    lonely = graph.num_nodes - 1
    assert graph.degree(lonely) == 0
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    got = _embed(cfg, graph, range(graph.num_nodes), params, schedule, vocab)

    sub = sample_frontiers(graph, range(graph.num_nodes), schedule.hop_count,
                           cfg.sampler.fanout, sub_seed(cfg.seed, "embed"))
    tokens = tokenize_nodes(graph, sub.base, vocab, params.dims.max_len)
    res = odin_forward(graph, sub, tokens, params, schedule)
    assert res.cls.requires_grad
    want = np.stack([got[v] for v in range(graph.num_nodes)])
    np.testing.assert_allclose(want, res.cls.data, rtol=0, atol=1e-12)


def test_embeddings_agree_across_eval_batch(tmp_path):
    cfg = small_cfg(tmp_path)
    graph = small_graph()
    assert len({len(text.split()) for text in graph.texts}) > 2  # chunks trim differently
    vocab, schedule, params = runner.build_fresh_model(cfg, graph)
    runs = []
    for batch in (1, 4, 7, graph.num_nodes):
        cfg.task.eval_batch = batch
        emb = _embed(cfg, graph, range(graph.num_nodes), params, schedule, vocab)
        runs.append(np.stack([emb[v] for v in range(graph.num_nodes)]))
    for got in runs[1:]:
        np.testing.assert_allclose(got, runs[0], rtol=0, atol=1e-13)


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


# -- row-chunked Transformer block ------------------------------------------------


def _block_inputs(seed=0, n=11, t=5, d=8):
    rng = np.random.default_rng(seed)
    params = init_params(20, ModelDims(d=d, heads=2, max_len=t), 1, 0, seed)
    x = rand_tensor(rng, n, t, d)
    agg = rand_tensor(rng, n, d)
    lengths = rng.integers(1, t + 1, size=n)
    key_mask = np.arange(t)[None, :] < lengths[:, None]
    return params.layers[0], x, agg, key_mask, params


@pytest.mark.parametrize("rows", [1, 4, 11, 50])
def test_block_in_row_chunks_equals_whole_block(rows):
    lp, x, agg, key_mask, _ = _block_inputs()
    whole = transformer_block(x, agg, lp, 2, key_mask)
    with ad.no_grad():
        chunked = transformer_block(x, agg, lp, 2, key_mask, rows=rows)
    assert chunked.shape == whole.shape
    np.testing.assert_allclose(chunked.data, whole.data, rtol=0, atol=1e-13)


def test_block_output_is_zero_at_pad_positions():
    lp, x, agg, key_mask, _ = _block_inputs()
    assert not key_mask.all()
    for rows in (None, 4):
        out = transformer_block(x, agg, lp, 2, key_mask, rows=rows).data
        assert np.all(out[~key_mask] == 0)


def test_block_chunks_are_trimmed_to_their_longest_sequence(monkeypatch):
    lp, x, agg, _, _ = _block_inputs()
    lengths = np.array([5, 1, 3, 2, 5, 1, 4, 1, 3, 1, 3])
    key_mask = np.arange(5)[None, :] < lengths[:, None]
    whole = transformer_block(x, agg, lp, 2, key_mask)
    seen = []
    attend = encoder.attention_block

    def record(x, agg, lp, heads, key_mask=None):
        seen.append((x.shape[:2], key_mask is None))
        return attend(x, agg, lp, heads, key_mask=key_mask)

    monkeypatch.setattr(encoder, "attention_block", record)
    chunked = transformer_block(x, agg, lp, 2, key_mask, rows=4)
    # sorted lengths 1 1 1 1 | 2 3 3 3 | 4 5 5; a chunk without PAD gets no mask
    assert seen == [((4, 1), True), ((4, 3), False), ((3, 5), False)]
    np.testing.assert_allclose(chunked.data, whole.data, rtol=0, atol=1e-13)


def test_block_in_row_chunks_gives_the_same_gradients():
    lp, x, agg, key_mask, params = _block_inputs(seed=2)
    weights = np.random.default_rng(3).standard_normal(x.shape)
    grads = []
    for rows in (None, 4):  # 11 rows: chunks of 4, 4 and 3
        params.zero_grad()
        x.zero_grad()
        agg.zero_grad()
        out = transformer_block(x, agg, lp, 2, key_mask, rows=rows)
        (out * weights).sum().backward()
        grads.append([p.grad.copy() for _, p in params.named_parameters()
                      if p.grad is not None] + [x.grad.copy(), agg.grad.copy()])
    assert len(grads[0]) == len(grads[1]) == 18  # 16 layer tensors, x and agg
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


@pytest.mark.parametrize("task", ["linkpred", "retrieve", "rerank"])
def test_finetune_from_one_checkpoint_repeats(tmp_path, task):
    cfg = small_cfg(tmp_path)
    cfg.task.finetune_epochs, cfg.task.finetune_batch = 2, 4
    cfg.task.linkpred_shots, cfg.task.retrieve_shots, cfg.task.rerank_shots = 12, 3, 3
    cfg.task.recall_k, cfg.task.rerank_candidates = 2, 3
    graph = small_graph()
    ckpt = tmp_path / "init" / "checkpoint.bin"
    _write_init_checkpoint(cfg, graph, ckpt)
    reports = [runner.run_task(cfg, graph, task, ckpt).to_json() for _ in range(2)]
    assert reports[0] == reports[1]


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


# -- resumed pretraining ---------------------------------------------------------------


class _Crash(RuntimeError):
    pass


def _run_dir_files(out):
    rows = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    for row in rows:
        del row["wall_ms"]
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
