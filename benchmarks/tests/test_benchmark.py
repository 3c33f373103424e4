"""Tests of the benchmark itself (not of odin). Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics each workload prints and records under its own name.
NAMED = {
    "pretrain-dense": {"train_nodes_per_s", "step_ms_p50", "step_ms_tail", "pretrain_loss"},
    "embed-sparse": {"embed_nodes_per_s"},
    "finetune-tasks": {"linkpred_s", "classify_s", "retrieve_s", "rerank_s", "linkpred_prec",
                       "classify_acc", "retrieve_recall", "rerank_prec"},
}
EVERY_WORKLOAD = {"setup_s", "peak_rss_mb", "failed_frac"}


def _current(owner, key):
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)


def _snapshot():
    return [(owner, key, _current(owner, key)) for owner, key in tracer.patch_targets()]


def test_contract_names_the_workloads_and_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_repeat_for_a_seed(tmp_path, workload):
    made = [wl.make_inputs(workload, seed, "full", tmp_path / f"{i}")
            for i, seed in enumerate((5, 5, 6))]
    files = [[f.read_bytes() for f in inputs.files] for inputs in made]
    assert files[0] == files[1]
    assert files[0] != files[2]
    configs = [inputs.cfg.to_dict() for inputs in made]
    for cfg in configs:
        cfg.pop("paths")
    assert configs[0] == configs[1]


def test_tracer_restores_every_attribute_on_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert all(_current(o, k) is not v for o, k, v in before)
            raise RuntimeError("boom")
    assert all(_current(o, k) is v for o, k, v in before)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(10))) == (None, None)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
    assert sum(1 for i in range(40) if i > value) == 10


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_workload_emits_every_metric(tmp_path, workload, trace):
    before = _snapshot()
    result = run.run(workload, 3, 1.0, trace, size="smoke", out_dir=tmp_path)
    assert all(_current(o, k) is v for o, k, v in before)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    record = json.loads(
        (tmp_path / f"BENCH_{workload}{'.trace' if trace else ''}.json").read_text())
    assert record["environment"]["blas_threads"] == 1
    if not trace:
        assert EVERY_WORKLOAD | NAMED[workload] <= set(record["metrics"])
        assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))
    elif workload == "embed-sparse":  # forward only: no tape, no backward
        assert result["metrics"]["autodiff.tape_tensors"]["value"] == 0
        assert result["metrics"]["autodiff.backward_ms"]["value"] == 0
    else:
        assert result["metrics"]["autodiff.backward_ms"]["value"] > 0


def test_traced_counts_repeat_across_runs(tmp_path):
    counts = [name for name, unit in run.per_layer_units().items() if unit != "ms"
              and not name.startswith("trace.")]
    runs = [run.run("embed-sparse", 4, 1.0, True, size="smoke", out_dir=tmp_path / str(i))
            for i in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in runs)
    assert first == second


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "embed-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
