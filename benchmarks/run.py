"""odin's benchmark: one workload per process, closed loop, BLAS pinned to one
thread.

    python3 benchmarks/run.py --workload pretrain-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it sets up several times, then repeats rounds of the
workload for about ``--seconds`` seconds and reports the end-to-end metrics.
With ``--trace 1`` it runs two untraced rounds, then set-up and two rounds
under the span tracer, checks that the traced outputs and counts equal the
untraced ones, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it print every metric by name with its unit; a
record with the environment goes to ``.bench_out/`` at the repository root.
See benchmarks/README.md for the metrics and why the workloads are built the
way they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# workloads and tracer import numpy and odin, so run.py imports them only
# after main() has pinned the BLAS and put src/ on the path.
ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Gated end-to-end metrics. Their times are process CPU time: on a shared VM,
# wall time also carries the time other tenants steal from the vCPU. The
# wall-clock versions are printed and recorded next to them.
E2E_UNITS = {"setup_s": "s", "nodes_per_cpu_s": "nodes/s", "op_cpu_ms_p50": "ms",
             "peak_rss_mb": "MiB"}

# Per-layer metrics (trace run). "_ms" values and plain counts are per op
# (pretrain step, whole-graph pass, task run), except the per-call ones
# marked in README.md.
_PER_OP_TIMES = {
    "sampler.ms": ("fwd", "sampler.sample_frontiers"),
    "fusion.forward_self_ms": ("self", "fusion.odin_forward"),
    "fusion.tokenize_ms": ("fwd", "fusion.tokenize"),
    "fusion.agg.fwd_ms": ("fwd", "fusion.agg"),
    "fusion.agg.bwd_ms": ("bwd", "fusion.agg"),
    "autodiff.backward_ms": ("fwd", "autodiff.backward"),
    "autodiff.tape_walk_ms": ("self", "autodiff.backward"),
    "objectives.plan_ms": ("fwd", "objectives.plan"),
    "objectives.mnp_ms": ("fwd+bwd", "objectives.mnp"),
    "objectives.nmlm_ms": ("fwd+bwd", "objectives.nmlm"),
    "objectives.opt_ms": ("fwd", "objectives.opt"),
    "runner.finetune_ms": ("fwd", "runner.finetune"),
    "runner.embed_ms": ("fwd", "runner.embed"),
    "runner.encode_labels_ms": ("fwd", "runner.encode_labels"),
    "tasks.score_ms": ("fwd", "tasks.score"),
    "tasks.bm25_ms": ("fwd", "tasks.bm25"),
}
for _layer, _label in (("embed", "encoder.embed"), ("layer0", "encoder.block.layer0"),
                       ("tg_layers", "encoder.block.tg_layers"),
                       ("cheap_layers", "encoder.block.cheap_layers"),
                       ("attn", "encoder.attn"), ("mlp", "encoder.mlp"), ("ln", "encoder.ln")):
    for _side in ("fwd", "bwd"):
        _PER_OP_TIMES[f"encoder.{_layer}.{_side}_ms"] = (_side, _label)
for _op in ("gelu", "matmul", "softmax", "layer_norm", "scatter_rows"):
    for _side in ("fwd", "bwd"):
        _PER_OP_TIMES[f"autodiff.{_op}.{_side}_ms"] = (_side, f"autodiff.{_op}")
_PER_OP_TIMES["autodiff.take_rows.bwd_ms"] = ("bwd", "autodiff.take_rows")

_PER_OP_COUNTS = ("sampler.calls", "fusion.encoded_node_layers", "encoder.token_rows",
                  "autodiff.tape_tensors", "objectives.pairs", "objectives.masked_tokens")
_PER_CALL_TIMES = {"checkpoint.save_ms": "checkpoint.save",
                   "checkpoint.load_ms": "checkpoint.load", "graph.load_ms": "graph.load"}
# ratio metrics: (numerator count, denominator count)
_RATIOS = {
    "sampler.b0_nodes": ("sampler.b0_nodes", "sampler.calls"),
    "sampler.b0_share": ("sampler.b0_share", "sampler.calls"),
    "fusion.redundancy": ("fusion.encoded_node_layers", "fusion.returned_node_layers"),
    "fusion.pad_fraction": ("fusion.pad_slots", "fusion.token_slots"),
    "checkpoint.bytes": ("checkpoint.bytes", "checkpoint.saves"),
}
_COUNT_UNITS = {"sampler.calls": "count", "fusion.encoded_node_layers": "node-layers",
                "encoder.token_rows": "rows", "autodiff.tape_tensors": "count",
                "objectives.pairs": "count", "objectives.masked_tokens": "count",
                "sampler.b0_nodes": "nodes", "sampler.b0_share": "fraction",
                "fusion.redundancy": "ratio", "fusion.pad_fraction": "fraction",
                "checkpoint.bytes": "bytes"}
_TRACE_UNITS = {"trace.overhead_pct": "%", "trace.spans": "count"}


def per_layer_units() -> dict[str, str]:
    units = {name: "ms" for name in (*_PER_OP_TIMES, *_PER_CALL_TIMES)}
    units.update({name: _COUNT_UNITS[name] for name in (*_PER_OP_COUNTS, *_RATIOS)})
    units.update(_TRACE_UNITS)
    return units


def _blas_runtime_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or None when
    there is no such library to ask."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in _BLAS_ENV},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or (None, None) when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None, None
    return sorted(samples)[n - 11], round(100.0 * (n - 10) / n, 1)


def _median(values):
    return statistics.median(values) if values else float("nan")


# -- untraced run -------------------------------------------------------------------


def measure(inputs, state, seconds: float):
    """Repeat rounds and stop at the round boundary nearest to `seconds`,
    after at least two rounds so that their outputs can be compared."""
    import workloads as wl

    rounds = []
    started = perf_counter()
    while True:
        rounds.append(wl.run_round(inputs, state))
        elapsed = perf_counter() - started
        if rounds[-1].failed or (
                len(rounds) >= 2 and elapsed + 0.5 * elapsed / len(rounds) > seconds):
            return rounds


def workload_metrics(workload: str, rounds, setup_times) -> dict:
    """Every end-to-end metric of the workload under its own name, plus the
    gated ones (E2E_UNITS) that every workload reports."""
    import workloads as wl

    op_ms = [ms for r in rounds for ms in r.op_ms]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    out = {
        "setup_s": (_median([cpu for _, cpu in setup_times]), "s"),
        "setup_wall_s": (_median([wall for wall, _ in setup_times]), "s"),
        "nodes_per_cpu_s": (_median([r.nodes / r.busy_cpu_s for r in rounds if r.busy_cpu_s]),
                            "nodes/s"),
        "op_cpu_ms_p50": (_median([ms for r in rounds for ms in r.op_cpu_ms]), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        "nodes_per_s": (_median([r.nodes / r.busy_s for r in rounds if r.busy_s]), "nodes/s"),
        "op_ms_p50": (_median(op_ms), "ms"),
        "failed_frac": (failed / attempted if attempted else 1.0, "fraction"),
    }
    if workload == "pretrain-dense":
        value, pct = tail(op_ms)
        out["train_nodes_per_s"] = (out["nodes_per_s"][0], "nodes/s")
        out["step_ms_p50"] = (out["op_ms_p50"][0], "ms")
        out["step_ms_tail"] = (value, "ms", {"percentile": pct, "samples": len(op_ms)})
        out["pretrain_loss"] = (rounds[0].extra.get("pretrain_loss"), "nats")
    elif workload == "embed-sparse":
        out["embed_nodes_per_s"] = (out["nodes_per_s"][0], "nodes/s")
    else:
        for task in wl.TASKS:
            out[f"{task}_s"] = (_median([r.extra[f"{task}_s"] for r in rounds
                                         if f"{task}_s" in r.extra]), "s")
        res = rounds[0].output
        for task, name in (("linkpred", "linkpred_prec"), ("classify", "classify_acc"),
                           ("retrieve", "retrieve_recall"), ("rerank", "rerank_prec")):
            if task in res:
                note = {k: res[task][2][k] for k in ("k", "gold_absent") if k in res[task][2]}
                out[name] = (res[task][1], "fraction", note) if note else (res[task][1], "fraction")
    return out


# -- traced run ---------------------------------------------------------------------


def layer_metrics(tracer, counts, ops: int) -> dict[str, float]:
    fwd, bwd, self_s, calls = tracer.totals()
    sides = {"fwd": fwd, "bwd": bwd, "self": self_s}
    out = {}
    for name, (side, label) in _PER_OP_TIMES.items():
        total = fwd[label] + bwd[label] if side == "fwd+bwd" else sides[side][label]
        out[name] = total * 1e3 / ops
    for name in _PER_OP_COUNTS:
        out[name] = counts[name] / ops
    for name, label in _PER_CALL_TIMES.items():
        out[name] = fwd[label] * 1e3 / calls[label] if calls[label] else 0.0
    for name, (num, den) in _RATIOS.items():
        out[name] = counts[num] / counts[den] if counts[den] else 0.0
    out["trace.spans"] = tracer.span_count() / ops
    return out


def traced_run(inputs):
    """Two untraced rounds (the first warms up), then set-up and two rounds
    under the tracer."""
    import workloads as wl
    from tracer import Tracer

    state = wl.setup(inputs)
    untraced = [wl.run_round(inputs, state) for _ in range(2)]
    segments = []
    with Tracer() as tracer:
        state = wl.setup(inputs)
        setup_counts = tracer.counts
        traced = []
        for _ in range(2):
            tracer.counts = defaultdict(float)
            traced.append(wl.run_round(inputs, state))
            segments.append(dict(tracer.counts))
    counts = defaultdict(float, setup_counts)
    for seg in segments:
        for key, value in seg.items():
            counts[key] += value
    rounds = [*untraced, *traced]
    errors = [e for r in rounds for e in r.errors]
    if not wl.same_outputs(rounds):
        errors.append("traced outputs differ from the untraced round")
    if segments[0] != segments[1]:
        errors.append("traced counts differ between the two traced rounds")
    # pretrain_step reports its own counts; the wrappers must see the same
    for count, own in (("sampler.b0_nodes", "b0_nodes"), ("objectives.pairs", "pairs"),
                       ("objectives.masked_tokens", "masked_tokens")):
        if own in traced[0].output and segments[0].get(count) != sum(traced[0].output[own]):
            errors.append(f"traced {count} differs from what pretrain_step reported")
    ops = sum(r.attempted for r in traced)
    metrics = layer_metrics(tracer, counts, max(ops, 1))
    untraced_ms = _median(untraced[1].op_cpu_ms)
    traced_ms = _median([ms for r in traced for ms in r.op_cpu_ms])
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    return rounds, metrics, errors, tracer


# -- entry point ----------------------------------------------------------------------


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        out_dir: Path | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import workloads as wl

    out_dir = Path(out_dir) if out_dir else ROOT / ".bench_out"
    work = out_dir / f"work-{workload}-{os.getpid()}"
    env = environment()
    try:
        inputs = wl.make_inputs(workload, seed, size, work)
        if trace:
            rounds, metrics, errors, tracer = traced_run(inputs)
            units = per_layer_units()
            report = {name: (metrics[name], units[name]) for name in units}
            tracer.save(out_dir / f"spans-{workload}.npz")
        else:
            state, setup_times = wl.timed_setup(inputs, wl.SETUP_REPEATS)
            rounds = measure(inputs, state, seconds)
            errors = [e for r in rounds for e in r.errors]
            if not wl.same_outputs(rounds):
                errors.append("rounds gave different outputs")
            report = workload_metrics(workload, rounds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    keys = per_layer_units() if trace else E2E_UNITS
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in keys},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "environment": env, "rounds": len(rounds), "errors": errors,
              "metrics": {k: {"value": v[0], "unit": v[1], **(v[2] if len(v) > 2 else {})}
                          for k, v in report.items()},
              "op_ms": [ms for r in rounds for ms in r.op_ms],
              "op_cpu_ms": [ms for r in rounds for ms in r.op_cpu_ms],
              "outputs": rounds[0].output if rounds else None}
    suffix = ".trace" if trace else ""
    (out_dir / f"BENCH_{workload}{suffix}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, entry in report.items():
        note = f"  {json.dumps(entry[2], sort_keys=True)}" if len(entry) > 2 else ""
        print(f"{workload}  {name:<28} {_format(entry[0]):>12} {entry[1]}{note}")
    print(f"{workload}  environment {json.dumps(env, sort_keys=True)}")
    for error in errors:
        print(f"{workload}  CHECK FAILED: {error}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "pretrain-dense", "embed-sparse", "finetune-tasks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "odin" / "__init__.py").is_file():
        print(f"error: odin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin the BLAS before numpy loads: a second thread buys nothing here and
    # changes the loss in the last ULP.
    for key in _BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import logging

    logging.getLogger("odin").setLevel(logging.ERROR)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
