"""The three workloads: inputs made from a seed, the timed set-up, one round
of operations, and the checks on each round's outputs.

A round is the unit a run repeats; it always does the same work for a given
seed, so its deterministic outputs must repeat bit for bit.

- pretrain-dense: one two-epoch ``run_pretrain`` call on the default
  ``odin synth`` graph. Ops are the ``pretrain_step`` calls it makes.
- embed-sparse: one whole-graph ``compute_embeddings`` pass with a random-init
  checkpoint on a sparse graph with jittered text lengths. The op is the pass.
- finetune-tasks: the four ``run_task`` calls with fine-tuning, from a
  random-init checkpoint. Ops are the task runs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from odin import checkpoint, graph as graph_io, runner
from odin.config import RunConfig
from odin.encoder import Vocab
from odin.synth import SyntheticSpec, generate

WORKLOADS = ("pretrain-dense", "embed-sparse", "finetune-tasks")
TASKS = ("linkpred", "classify", "retrieve", "rerank")
SETUP_REPEATS = 11

# Graph and config per workload and size. "full" is what the benchmark
# measures; "smoke" is a seconds-long version for the benchmark's tests.
SIZES = {
    "pretrain-dense": {
        # default `odin synth` graph: 3 hops of fanout 5 reach ~197 of 200 nodes
        "full": {"graph": {}, "epochs": 2},
        "smoke": {"graph": {"n_nodes": 40}, "epochs": 1, "batch_size": 8},
    },
    "embed-sparse": {
        # avg degree 2 keeps |B_0| near half the graph per 32-node chunk, and
        # 2..12 words per node leave a large PAD share in each token matrix
        "full": {"graph": {"n_nodes": 512, "avg_degree": 2.0, "n_classes": 16,
                           "n_coarse": 4, "words_per_node": 12,
                           "min_words_per_node": 2, "vocab_size": 400}},
        "smoke": {"graph": {"n_nodes": 48, "avg_degree": 2.0, "n_classes": 4,
                            "words_per_node": 8, "min_words_per_node": 2}},
    },
    "finetune-tasks": {
        # 16 fine labels > recall_k=10 so retrieval ranks; 2 shots per fine
        # label and 4 per coarse label leave test nodes in every class
        "full": {"graph": {"n_nodes": 160, "avg_degree": 4.0, "n_classes": 16,
                           "n_coarse": 4, "vocab_size": 200},
                 "task": {"retrieve_shots": 2, "rerank_shots": 2, "classify_shots": 4,
                          "linkpred_shots": 32, "finetune_epochs": 2}},
        "smoke": {"graph": {"n_nodes": 72, "avg_degree": 3.0, "n_classes": 12,
                            "n_coarse": 3, "vocab_size": 120},
                  "task": {"retrieve_shots": 2, "rerank_shots": 2, "classify_shots": 2,
                           "linkpred_shots": 8, "finetune_epochs": 1}},
    },
}


@dataclass
class Inputs:
    """What odin receives: the generated graph files and a config."""

    workload: str
    cfg: RunConfig
    files: tuple[Path, Path, Path]
    work: Path


@dataclass
class State:
    graph: object
    vocab: Vocab
    schedule: object
    params: object
    ckpt: Path


@dataclass
class Round:
    """Ops of one round. Times come in pairs: wall clock and process CPU."""

    attempted: int = 0
    failed: int = 0
    op_ms: list[float] = field(default_factory=list)      # wall ms per op
    op_cpu_ms: list[float] = field(default_factory=list)  # CPU ms per op
    nodes: int = 0           # nodes the round's ops produced
    busy_s: float = 0.0      # wall seconds of the ops
    busy_cpu_s: float = 0.0  # CPU seconds of the ops
    output: dict = field(default_factory=dict)  # must repeat bit for bit
    extra: dict = field(default_factory=dict)   # workload metrics
    errors: list[str] = field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _clocks() -> tuple[float, float]:
    return perf_counter(), process_time()


def _since(started: tuple[float, float]) -> tuple[float, float]:
    wall, cpu = _clocks()
    return wall - started[0], cpu - started[1]


def make_inputs(workload: str, seed: int, size: str, work: Path) -> Inputs:
    """Generate the graph for `seed` with odin's synthetic generator and write
    it where odin's loader reads it."""
    sizing = SIZES[workload][size]
    graph = generate(SyntheticSpec(seed=seed, **sizing["graph"]))
    work.mkdir(parents=True, exist_ok=True)
    files = (work / "nodes.jsonl", work / "edges.txt", work / "labels.jsonl")
    graph_io.save_graph(graph, *files)
    cfg = RunConfig(seed=seed)
    cfg.paths.data_dir = str(work)
    cfg.paths.out_dir = str(work / "run")
    cfg.pretrain.epochs = sizing.get("epochs", cfg.pretrain.epochs)
    cfg.pretrain.batch_size = sizing.get("batch_size", cfg.pretrain.batch_size)
    cfg.task.finetune_backbone = True
    for key, value in sizing.get("task", {}).items():
        setattr(cfg.task, key, value)
    cfg.validate()
    return Inputs(workload, cfg, files, work)


def setup(inputs: Inputs) -> State:
    """Load the graph, build the vocab, init params, write the random-init
    checkpoint and read it back: everything before the first timed op."""
    graph = graph_io.load_graph(*inputs.files)
    vocab, schedule, params = runner.build_fresh_model(inputs.cfg, graph)
    ckpt_dir = inputs.work / "init"
    ckpt_dir.mkdir(exist_ok=True)
    vocab.save(ckpt_dir / "vocab.tsv")
    checkpoint.save_model(ckpt_dir / "checkpoint.bin", params,
                          {"config_digest": inputs.cfg.digest(), "epoch": -1, "step": 0,
                           "seed": inputs.cfg.seed})
    params, _, _ = checkpoint.load_model(ckpt_dir / "checkpoint.bin")
    vocab = Vocab.load(ckpt_dir / "vocab.tsv")
    return State(graph, vocab, schedule, params, ckpt_dir / "checkpoint.bin")


def timed_setup(inputs: Inputs, repeats: int) -> tuple[State, list[tuple[float, float]]]:
    """The last State and the (wall, CPU) seconds of each set-up."""
    times = []
    for _ in range(repeats):
        gc.collect()  # same heap state each time; the median was bimodal without it
        started = _clocks()
        state = setup(inputs)
        times.append(_since(started))
    return state, times


# -- rounds ----------------------------------------------------------------------


def _pretrain_round(inputs: Inputs, state: State) -> Round:
    out = Round()
    steps = []
    original = runner.pretrain_step

    def timed_step(batch, *args, **kwargs):
        out.attempted += 1
        started = _clocks()
        rec = original(batch, *args, **kwargs)
        steps.append((_since(started), len(batch), rec))
        return rec

    runner.pretrain_step = timed_step
    started = _clocks()
    try:
        report = runner.run_pretrain(inputs.cfg, state.graph, inputs.cfg.paths.out_dir)
    except Exception as exc:  # an op failed; count it and keep the record
        out.failed += 1
        out.errors.append(f"pretrain step {len(steps)}: {exc!r}")
        return out
    finally:
        out.busy_s, out.busy_cpu_s = _since(started)
        runner.pretrain_step = original
    totals = [rec["total"] for _, _, rec in steps]
    out.op_ms = [wall * 1e3 for (wall, _), _, _ in steps]
    out.op_cpu_ms = [cpu * 1e3 for (_, cpu), _, _ in steps]
    out.nodes = sum(n for _, n, _ in steps)
    ckpt = Path(inputs.cfg.paths.out_dir) / "checkpoint.bin"
    out.output = {
        "totals": totals,
        "pairs": [rec["pairs"] for _, _, rec in steps],
        "masked_tokens": [rec["masked_tokens"] for _, _, rec in steps],
        "b0_nodes": [rec["encoded_nodes"] for _, _, rec in steps],
        "checkpoint_sha256": _sha(ckpt.read_bytes()),
    }
    n_train = int(round(inputs.cfg.pretrain.train_fraction * state.graph.num_nodes))
    expected = inputs.cfg.pretrain.epochs * max(1, n_train // inputs.cfg.pretrain.batch_size)
    if len(steps) != expected or report["steps"] != expected:
        out.errors.append(f"expected {expected} steps, ran {len(steps)}")
    bad = [i for i, t in enumerate(totals) if not math.isfinite(t)]
    if bad:
        out.failed += len(bad)
        out.errors.append(f"non-finite loss at steps {bad}")
    out.extra["pretrain_loss"] = statistics.fmean(totals)
    return out


def _embed_round(inputs: Inputs, state: State) -> Round:
    out = Round(attempted=1)
    cfg, n = inputs.cfg, state.graph.num_nodes
    started = _clocks()
    try:
        emb = runner.compute_embeddings(state.graph, range(n), state.params, state.schedule,
                                        state.vocab, cfg.sampler.fanout, cfg.seed,
                                        cfg.task.eval_batch)
    except Exception as exc:
        out.failed = 1
        out.errors.append(f"compute_embeddings: {exc!r}")
        return out
    out.busy_s, out.busy_cpu_s = _since(started)
    out.op_ms, out.op_cpu_ms = [out.busy_s * 1e3], [out.busy_cpu_s * 1e3]
    d = state.params.dims.d
    ok = (sorted(emb) == list(range(n))
          and all(v.shape == (d,) and np.isfinite(v).all() for v in emb.values()))
    if not ok:
        out.failed = 1
        out.errors.append("some node lacks a finite (d,) embedding")
        return out
    out.nodes = n
    out.output = {"embeddings_sha256": _sha(np.stack([emb[v] for v in range(n)]).tobytes())}
    return out


def _query_count(report) -> int:
    return report.details["test_size" if report.task == "classify" else "queries"]


def _finetune_round(inputs: Inputs, state: State) -> Round:
    out = Round()
    cfg = inputs.cfg
    for task in TASKS:
        out.attempted += 1
        started = _clocks()
        try:
            report = runner.run_task(cfg, state.graph, task, state.ckpt, finetune=True)
        except Exception as exc:
            out.failed += 1
            out.errors.append(f"run_task({task!r}): {exc!r}")
            continue
        wall, cpu = _since(started)
        out.busy_s += wall
        out.busy_cpu_s += cpu
        out.extra[f"{task}_s"] = wall
        out.nodes += _query_count(report)
        out.output[task] = [report.metric, report.value, report.details]
        if not (math.isfinite(report.value) and _query_count(report) > 0):
            out.failed += 1
            out.errors.append(f"{task}: value {report.value!r}, details {report.details}")
        if task == "retrieve" and report.details["k"] != cfg.task.recall_k:
            out.errors.append(f"retrieve clipped k to {report.details['k']}")
    if not out.failed:  # the round is the op that op_ms_p50 times
        out.op_ms, out.op_cpu_ms = [out.busy_s * 1e3], [out.busy_cpu_s * 1e3]
    return out


ROUNDS = {
    "pretrain-dense": _pretrain_round,
    "embed-sparse": _embed_round,
    "finetune-tasks": _finetune_round,
}


def run_round(inputs: Inputs, state: State) -> Round:
    """One round, started from a collected heap: a real run does the work
    once, so garbage left by an earlier round is not part of it."""
    gc.collect()
    return ROUNDS[inputs.workload](inputs, state)


def same_outputs(rounds: list[Round]) -> bool:
    """Bit-for-bit equality of the rounds' deterministic outputs."""
    first = json.dumps(rounds[0].output, sort_keys=True)
    return all(json.dumps(r.output, sort_keys=True) == first for r in rounds[1:])
