"""Command-line surface.

Subcommands: synth, ingest, pretrain, finetune, eval, sweep, theory.
Every command is deterministic under (config, seed) at a fixed BLAS thread
count: the BLAS splits its sums by thread, so another count moves losses in
the last ULP. Artifacts that must be reproducible byte-for-byte (report.json,
checkpoints, generated data) never contain wall-clock values, which live in
the .jsonl/.log files instead. A bad config, graph file or checkpoint, or a
missing file, ends the command with one `odin: error: ...` line on stderr
and exit status 2.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .config import RunConfig, apply_override, load_config
from .encoder import ConfigError, ModelDims, build_vocab, init_params
from .fusion import LayerSchedule, light_preset
from .graph import GraphFormatError, load_graph, save_graph
from .rngutil import generator
from .runner import TASK_RUNNERS, run_pretrain, run_task
from .sampler import encoded_node_count, sample_frontiers
from .synth import SyntheticSpec, generate, intra_class_fraction
from .theory import (
    BASELINE_THRESHOLD,
    FUSED_THRESHOLD,
    collapse_gap_demo,
    gnn_reduction_check,
    structural_separation_check,
    textual_separation_check,
    transformer_reduction_check,
)

log = logging.getLogger(__name__)


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for item in args.set or []:
        apply_override(cfg, item)
    cfg.validate()
    return cfg


def _write_report(out_dir, payload: dict) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _graph_from_cfg(cfg: RunConfig):
    nodes, edges, labels = cfg.data_files()
    return load_graph(nodes, edges, labels)


def _require_count(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def _data_digest(cfg: RunConfig) -> str:
    """Digest of the graph files the config reads."""
    digest = hashlib.sha256()
    for path in cfg.data_files():
        if path is not None:
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()[:12]


# -- commands ------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n_nodes=args.nodes, n_classes=args.classes, homophily=args.homophily,
        vocab_size=args.vocab_size, words_per_node=args.words_per_node,
        seed=args.seed, avg_degree=args.avg_degree, n_coarse=args.coarse_classes,
        class_word_prob=args.class_word_prob,
        min_words_per_node=args.min_words_per_node,
        ensure_connected=args.ensure_connected,
    )
    graph = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(graph, out / "nodes.jsonl", out / "edges.txt", out / "labels.jsonl")
    (out / "synth_spec.json").write_text(
        json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True) + "\n")
    print(f"wrote {graph.num_nodes} nodes, {graph.num_edges} edges to {out}")
    print(f"intra-class edge fraction: {intra_class_fraction(graph):.3f}")
    return 0


def cmd_ingest(args) -> int:
    graph = load_graph(args.nodes, args.edges, args.labels)
    degrees = [graph.degree(v) for v in range(graph.num_nodes)]
    stats = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "mean_degree": round(float(np.mean(degrees)), 4),
        "max_degree": int(max(degrees)),
        "isolated": int(sum(1 for d in degrees if d == 0)),
        "has_fine_labels": graph.fine_labels is not None,
        "has_coarse_labels": graph.coarse_labels is not None,
    }
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_graph(graph, out / "nodes.jsonl", out / "edges.txt",
                   out / "labels.jsonl" if graph.label_names else None)
        print(f"normalized copy written to {out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    graph = _graph_from_cfg(cfg)
    out_dir = Path(cfg.paths.out_dir)
    report = run_pretrain(cfg, graph, out_dir, resume=args.resume)
    cfg.save(out_dir / "config.json")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_task(args) -> int:
    """finetune or eval one task from a checkpoint; the report, stamped with
    the seed and config digest, goes to out_dir/<command>/<task>/report.json."""
    cfg = _load_cfg(args)
    graph = _graph_from_cfg(cfg)
    ckpt = args.checkpoint or str(Path(cfg.paths.out_dir) / "checkpoint.bin")
    report = run_task(cfg, graph, args.task, ckpt, finetune=args.command == "finetune")
    line = json.dumps({**dataclasses.asdict(report), "seed": cfg.seed,
                       "config_digest": cfg.digest()}, sort_keys=True)
    out_dir = Path(cfg.paths.out_dir) / args.command / args.task
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(line + "\n")
    print(line)
    return 0


def cmd_sweep(args) -> int:
    """Grid of schedule cells. A cell is either 'positions:strategy', such as
    '1,6,11:PG', at the config's schedule.depth, or a schedule preset name,
    such as 'light-2,4', which sets the whole schedule (see light_preset).
    Per seed, each cell pretrains (or reuses a checkpoint cached under its
    config digest and the digest of the graph files) and runs link prediction
    and classification. A row reports the schedule, the nodes one pretrain
    batch encodes at the first seed, and each task's mean and std over the
    seeds. The wall time of each pretrain goes to sweep.log, never to
    report.json."""
    _require_count("--seeds", args.seeds)
    cfg = _load_cfg(args)
    cells = []
    for cell in args.grid.split(";"):
        cell_cfg = copy.deepcopy(cfg)
        if ":" in cell:
            sched_part, _, strategy = cell.partition(":")
            try:
                positions = [int(x) for x in sched_part.split(",") if x]
            except ValueError:
                raise ConfigError(f"sweep cell {cell!r}: positions must be integers") from None
            cell_cfg.schedule = LayerSchedule(cfg.schedule.depth, positions, strategy)
        else:
            cell_cfg.schedule = light_preset(cell)
        cell_cfg.validate()  # every cell, before the first one runs
        cells.append((cell, cell_cfg))
    graph = _graph_from_cfg(cfg)
    data_digest = _data_digest(cfg)
    out_root = Path(cfg.paths.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    batch = range(min(cfg.pretrain.batch_size, graph.num_nodes))
    rows = []
    with open(out_root / "sweep.log", "w", encoding="utf-8") as sweep_log:
        for cell, cell_cfg in cells:
            schedule = cell_cfg.schedule
            sub = sample_frontiers(graph, batch, schedule.hop_count, cfg.sampler.fanout, cfg.seed)
            metrics = {"linkpred": [], "classify": []}
            for s in range(args.seeds):
                seed_cfg = copy.deepcopy(cell_cfg)
                seed_cfg.seed = cfg.seed + s
                cell_dir = out_root / f"cell-{seed_cfg.digest()}-{data_digest}"
                seed_cfg.paths.out_dir = str(cell_dir)
                if not (cell_dir / "checkpoint.bin").exists():
                    started = time.perf_counter()
                    run_pretrain(seed_cfg, graph, cell_dir)
                    sweep_log.write(f"{cell}\tseed={seed_cfg.seed}\t{cell_dir.name}\t"
                                    f"wall_s={time.perf_counter() - started:.3f}\n")
                for task, values in metrics.items():
                    rep = run_task(seed_cfg, graph, task, cell_dir / "checkpoint.bin")
                    values.append(rep.value)
            row = {
                "cell": cell,
                "depth": schedule.depth,
                "positions": list(schedule.positions),
                "strategy": schedule.strategy,
                "encoded_nodes_per_batch": encoded_node_count(sub, schedule.depth,
                                                              schedule.positions),
                "seeds": args.seeds,
            }
            for task, values in metrics.items():
                row[f"{task}_mean"] = round(float(np.mean(values)), 6)
                row[f"{task}_std"] = round(float(np.std(values)), 6)
            rows.append(row)
    payload = {"command": "sweep", "config_digest": cfg.digest(), "rows": rows}
    path = _write_report(out_root, payload)
    print(f"{'cell':<14} {'nodes/batch':>11}  {'linkpred':<13} {'classify':<13}")
    for r in rows:
        print(f"{r['cell']:<14} {r['encoded_nodes_per_batch']:>11}  "
              f"{r['linkpred_mean']:.3f}±{r['linkpred_std']:.3f}   "
              f"{r['classify_mean']:.3f}±{r['classify_std']:.3f}")
    print(f"report: {path}")
    return 0


def cmd_theory(args) -> int:
    _require_count("--separation-seeds", args.separation_seeds)
    _require_count("--profile-seeds", args.profile_seeds)
    results = []

    g = generate(SyntheticSpec(n_nodes=20, n_classes=2, vocab_size=60, words_per_node=6,
                               seed=args.seed, avg_degree=4, ensure_connected=True))
    vocab = build_vocab(g.texts)
    params = init_params(vocab.size, ModelDims(d=16, heads=2, max_len=12), 3, 0, args.seed)
    dev = transformer_reduction_check(g, range(5), params, vocab, seed=args.seed)
    results.append(("transformer-reduction", dev, dev < 1e-6))

    rng = generator(args.seed, "theory_gnn")
    w1s = [rng.standard_normal((8, 8)) * 0.4 for _ in range(2)]
    w2s = [rng.standard_normal((8, 8)) * 0.4 for _ in range(2)]
    feats = {v: rng.standard_normal(8) for v in range(g.num_nodes)}
    dev = gnn_reduction_check(w1s, w2s, g, feats, range(6), fanout=3, seed=args.seed)
    results.append(("gnn-reduction", dev, dev < 1e-6))

    n = args.separation_seeds
    for name, check in (("structural-separation", structural_separation_check),
                        ("textual-separation", textual_separation_check)):
        hits = sum(r.fused > 1e-3 and r.reduction < 1e-6 for r in map(check, range(n)))
        results.append((name, hits / n, hits >= n - 1))

    demo = collapse_gap_demo(seeds=tuple(range(args.profile_seeds)))
    base_final = min(p.final for p in demo["baseline"])
    odin_final = max(p.final for p in demo["odin"])
    results.append(("baseline-collapse", base_final, base_final > BASELINE_THRESHOLD))
    results.append(("fused-dispersal", odin_final, odin_final < FUSED_THRESHOLD))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "smoothing_profiles.csv", "w", encoding="utf-8") as fh:
            fh.write("model,seed,layer,mean_pairwise_cosine\n")
            for tag in ("baseline", "odin"):
                for s, prof in enumerate(demo[tag]):
                    for layer, c in enumerate(prof.cosines):
                        fh.write(f"{tag},{s},{layer},{c:.10f}\n")
        payload = {
            "command": "theory",
            "seed": args.seed,
            "checks": [{"name": n, "value": float(v), "passed": bool(p)}
                       for n, v, p in results],
        }
        _write_report(out, payload)

    print(f"{'check':<26} {'value':>12}  status")
    ok = True
    for name, value, passed in results:
        ok &= passed
        print(f"{name:<26} {value:>12.3e}  {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="odin",
        description="Graph-structure injection for Transformer encoders on "
                    "text-attributed graphs",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic text-attributed graph")
    sp.add_argument("--out", required=True)
    sp.add_argument("--nodes", type=int, default=200)
    sp.add_argument("--classes", type=int, default=4)
    sp.add_argument("--coarse-classes", type=int, default=None)
    sp.add_argument("--homophily", type=float, default=0.8)
    sp.add_argument("--vocab-size", type=int, default=120)
    sp.add_argument("--words-per-node", type=int, default=10)
    sp.add_argument("--min-words-per-node", type=int, default=None)
    sp.add_argument("--class-word-prob", type=float, default=0.5)
    sp.add_argument("--avg-degree", type=float, default=6.0)
    sp.add_argument("--ensure-connected", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("ingest", help="validate graph files and print stats")
    sp.add_argument("--nodes", required=True)
    sp.add_argument("--edges", required=True)
    sp.add_argument("--labels", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ingest)

    for name, fn, extra in (
        ("pretrain", cmd_pretrain, ("resume",)),
        ("finetune", cmd_task, ("task", "checkpoint")),
        ("eval", cmd_task, ("task", "checkpoint")),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--set", action="append", metavar="KEY=VALUE")
        if "resume" in extra:
            sp.add_argument("--resume", action="store_true")
        if "task" in extra:
            sp.add_argument("--task", required=True, choices=list(TASK_RUNNERS))
            sp.add_argument("--checkpoint", default=None)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("sweep", help="schedule ablation grid: cost and quality per cell")
    sp.add_argument("--config", default=None)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE")
    sp.add_argument("--grid", required=True,
                    help="semicolon-separated cells, each 'positions:strategy' at "
                         "schedule.depth or a schedule preset name, like '1,6,11:PG;light-2,4'")
    sp.add_argument("--seeds", type=int, default=3)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("theory", help="run the executable theorem checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--separation-seeds", type=int, default=20)
    sp.add_argument("--profile-seeds", type=int, default=3)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_theory)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, GraphFormatError, CheckpointError, FileNotFoundError) as exc:
        print(f"odin: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
