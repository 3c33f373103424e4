"""The command line end to end: synth, ingest, pretrain, resume, finetune
and eval of every task, sweep and theory, all through cli.main on a tiny
config."""

import json
import re

import pytest

from odin import checkpoint, cli, runner
from odin.graph import load_graph
from odin.sampler import encoded_node_count, sample_frontiers

TASKS = ("linkpred", "classify", "retrieve", "rerank")

TINY = (
    "paths.data_dir=data", "paths.out_dir=run",
    "schedule.depth=4", "schedule.positions=[1,2]",
    "dims.d=8", "dims.heads=2", "dims.max_len=12", "sampler.fanout=2",
    "pretrain.epochs=1", "pretrain.batch_size=8",
    "task.linkpred_shots=12", "task.classify_shots=2", "task.retrieve_shots=2",
    "task.rerank_shots=2", "task.finetune_epochs=1", "task.finetune_batch=4",
    "task.head_epochs=5", "task.recall_k=2", "task.rerank_candidates=3",
)


def _argv(*argv, extra=()):
    """argv with every TINY override, then the `extra` ones, which win."""
    return [*argv, *(arg for item in (*TINY, *extra) for arg in ("--set", item))]


def _main(*argv, extra=()):
    assert cli.main(_argv(*argv, extra=extra)) == 0


def _rejected(capsys, argv, match):
    """cli.main returns 2 and ends stderr with one `odin: error:` line
    that matches `match`, with no traceback."""
    capsys.readouterr()
    assert cli.main(list(argv)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("odin: error: ") and re.search(match, last), err


def _synth(seed=1):
    assert cli.main(["synth", "--out", "data", "--nodes", "30", "--classes", "3",
                     "--vocab-size", "40", "--words-per-node", "6", "--seed", str(seed)]) == 0


def _run_all(root, monkeypatch):
    """Every report.json one pass writes, by path relative to `root`. Paths
    in the config are relative, so two roots give the same config digest.
    finetune and eval share one out_dir and must not overwrite each other."""
    monkeypatch.chdir(root)
    _synth()
    _main("pretrain")
    first = (root / "run" / "report.json").read_bytes()
    _main("pretrain", "--resume")
    assert (root / "run" / "report.json").read_bytes() == first
    for task in TASKS:
        for command in ("finetune", "eval"):
            _main(command, "--task", task, "--checkpoint", "run/checkpoint.bin")
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("report.json"))}


def _keys(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


def test_cli_reports_repeat_byte_for_byte(tmp_path, monkeypatch):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(_run_all(tmp_path / name, monkeypatch))
    want = {"run/report.json"} | {f"run/{c}/{t}/report.json"
                                  for c in ("finetune", "eval") for t in TASKS}
    assert set(runs[0]) == want
    assert runs[0] == runs[1]
    for path, blob in runs[0].items():
        report = json.loads(blob)
        assert not [k for k in _keys(report) if "wall" in k or k.endswith(("_ms", "_s"))], path
    for task in TASKS:
        reports = [json.loads(runs[0][f"run/{c}/{task}/report.json"])
                   for c in ("finetune", "eval")]
        assert all(r["task"] == task and 0.0 <= r["value"] <= 1.0 for r in reports)


def test_sweep_runs_every_cell_under_the_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _synth()
    _main("sweep", "--grid", "1:VA;1,2:PG;light-2", "--seeds", "1")
    blob = (tmp_path / "run" / "report.json").read_bytes()
    report = json.loads(blob)
    assert [(r["cell"], r["depth"], r["positions"], r["strategy"]) for r in report["rows"]] == [
        ("1:VA", 4, [1], "VA"), ("1,2:PG", 4, [1, 2], "PG"), ("light-2", 6, [2], "PG")]
    # cost as the spec states it: the first batch_size nodes' frontiers at the first seed
    graph = load_graph("data/nodes.jsonl", "data/edges.txt")
    for row in report["rows"]:
        sub = sample_frontiers(graph, range(8), len(row["positions"]), fanout=2, seed=0)
        assert row["encoded_nodes_per_batch"] == encoded_node_count(
            sub, row["depth"], row["positions"])
    assert not [k for k in _keys(report) if "wall" in k or k.endswith(("_ms", "_s"))]
    cells = sorted((tmp_path / "run").glob("cell-*/checkpoint.bin"))
    assert len(cells) == 3
    assert all(checkpoint.load_model(c)[0].dims.d == 8 for c in cells)
    assert len((tmp_path / "run" / "sweep.log").read_text().splitlines()) == 3
    # a second sweep reuses every cached cell, so it pretrains nothing
    _main("sweep", "--grid", "1:VA;1,2:PG;light-2", "--seeds", "1")
    assert (tmp_path / "run" / "report.json").read_bytes() == blob
    assert (tmp_path / "run" / "sweep.log").read_text() == ""


def test_sweep_cells_are_keyed_on_the_graph_and_the_schedule(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "run" / "sweep.log"
    _synth()
    _main("sweep", "--grid", "light-2;1:VA", "--seeds", "1")
    assert len(log.read_text().splitlines()) == 2
    # a new graph in data/ must not reuse checkpoints pretrained on the old one
    _synth(seed=2)
    _main("sweep", "--grid", "light-2;1:VA", "--seeds", "1")
    assert len(log.read_text().splitlines()) == 2
    # light-2 is the schedule 2:PG at depth 6, so it is one cell
    _main("sweep", "--grid", "2:PG", "--seeds", "1", extra=("schedule.depth=6",))
    assert log.read_text() == ""
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert [(r["depth"], r["positions"], r["strategy"]) for r in report["rows"]] == [
        (6, [2], "PG")]
    assert len(list((tmp_path / "run").glob("cell-*"))) == 4


@pytest.mark.parametrize("argv,match", [
    (("pretrain", "--set", "dims.heads=3"), "heads"),
    (("sweep", "--grid", "light-9", "--seeds", "1"), "light-9"),
    (("pretrain", "--set", "pretrain.epochs=abc"), "epochs"),
    (("pretrain", "--set", "schedule=foo"), "schedule"),
    (("pretrain", "--set", "dims=3"), "dims"),
    (("pretrain", "--set", "schedule.preset=light-2"), "preset"),
    (("sweep", "--grid", "a:PG", "--seeds", "1"), "a:PG"),
])
def test_malformed_config_raises_config_error(tmp_path, monkeypatch, capsys, argv, match):
    monkeypatch.chdir(tmp_path)
    _synth()
    _rejected(capsys, argv, match)
    assert not (tmp_path / "runs").exists()  # raised before any run started


def test_rejected_override_leaves_an_existing_run_untouched(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _synth()
    _main("pretrain")
    run = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in sorted(run.iterdir()) if p.is_file()}
    assert before["train_log.jsonl"] and before["vocab.tsv"]
    _rejected(capsys, _argv("pretrain", extra=("pretrain.epochs=abc",)), "epochs")
    assert {p.name: p.read_bytes() for p in sorted(run.iterdir()) if p.is_file()} == before


@pytest.mark.parametrize("schedule", [
    ("schedule.depth=6", "schedule.positions=[2,4]"),  # more layers than the checkpoint
    ("schedule.depth=3", "schedule.positions=[1,2]"),  # fewer layers
    ("schedule.depth=4", "schedule.positions=[1,2,3]"),  # more stages
    ("dims.d=16", "dims.heads=4"),  # other dims
])
def test_eval_rejects_a_checkpoint_that_does_not_fit_the_schedule(
        tmp_path, monkeypatch, capsys, schedule):
    monkeypatch.chdir(tmp_path)
    _synth()
    _main("pretrain")
    _rejected(capsys, _argv("eval", "--task", "classify", extra=schedule), "does not fit")
    assert not (tmp_path / "run" / "eval").exists()


@pytest.mark.parametrize("command,task,setting", [
    ("eval", "retrieve", "task.retrieve_shots=16"),  # the default shots
    ("finetune", "retrieve", "task.retrieve_shots=16"),
    ("eval", "rerank", "task.rerank_shots=32"),
    ("finetune", "rerank", "task.rerank_shots=32"),
    ("finetune", "linkpred", "task.linkpred_shots=100000"),
    ("finetune", "classify", "task.classify_shots=1000"),
    ("eval", "classify", "task.classify_shots=0"),
])
def test_shots_that_leave_nothing_to_evaluate_end_in_one_error_line(
        tmp_path, monkeypatch, capsys, command, task, setting):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "data", "--nodes", "60", "--classes", "12",
                     "--coarse-classes", "3", "--seed", "1"]) == 0
    _main("pretrain", extra=("pretrain.epochs=0",))
    for name in ("finetune_linkpred", "finetune_classify", "dpr_finetune"):
        monkeypatch.setattr(runner, name, lambda *a: pytest.fail("fine-tuned before the check"))
    capsys.readouterr()
    assert cli.main(_argv(command, "--task", task, extra=(setting,))) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith(f"odin: error: {setting.split('=')[0]}"), err
    assert not (tmp_path / "run" / command).exists()



def _drop_label_field(path, field):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({k: v for k, v in row.items() if k != field}) + "\n"
                            for row in rows))


# what a task reads -> how the error names it when the graph lacks it
MISSING_LABELS = {
    "labels.jsonl": "no label names: .* labels.jsonl",
    "fine_label": "no fine labels: .* fine_label field",
    "coarse_label": "no coarse labels: .* coarse_label field",
}


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("task,missing", [
    ("retrieve", "labels.jsonl"), ("rerank", "labels.jsonl"), ("retrieve", "fine_label"),
    ("classify", "coarse_label"),
])
def test_a_graph_without_the_task_labels_ends_in_one_error_line(
        tmp_path, monkeypatch, capsys, command, task, missing):
    monkeypatch.chdir(tmp_path)
    _synth()
    _main("pretrain", extra=("pretrain.epochs=0",))
    if missing == "labels.jsonl":
        (tmp_path / "data" / "labels.jsonl").unlink()
    else:
        _drop_label_field(tmp_path / "data" / "nodes.jsonl", missing)
    for name in ("finetune_classify", "dpr_finetune"):
        monkeypatch.setattr(runner, name, lambda *a: pytest.fail("fine-tuned before the check"))
    _rejected(capsys, _argv(command, "--task", task), MISSING_LABELS[missing])
    assert not (tmp_path / "run" / command).exists()


@pytest.mark.parametrize("command,task,kept", [
    ("finetune", "retrieve", 1), ("eval", "rerank", 1), ("eval", "retrieve", 0),
], ids=["finetune retrieve, label 0 unnamed", "eval rerank, label 0 unnamed",
        "eval retrieve, labels.jsonl empty"])
def test_a_fine_label_without_a_name_ends_in_one_error_line(
        tmp_path, monkeypatch, capsys, command, task, kept):
    # finetune ended in a KeyError traceback, eval with an empty labels.jsonl
    # in a ValueError one
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "data", "--nodes", "40", "--classes", "4"]) == 0
    labels = tmp_path / "data" / "labels.jsonl"
    labels.write_text("".join(labels.read_text().splitlines(keepends=True)[1:] if kept else []))
    _main("pretrain", extra=("pretrain.epochs=0",))
    _rejected(capsys, _argv(command, "--task", task),
              "labels.jsonl names .* but not .* fine label.*: 0[,;]")
    assert not (tmp_path / "run" / command).exists()


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_classify_on_one_coarse_class_ends_in_one_error_line(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "data", "--nodes", "30", "--classes", "1"]) == 0
    _main("pretrain", extra=("pretrain.epochs=0",))
    monkeypatch.setattr(runner, "finetune_classify",
                        lambda *a: pytest.fail("fine-tuned before the check"))
    _rejected(capsys, _argv(command, "--task", "classify"), "at least two coarse classes")
    assert not (tmp_path / "run" / command).exists()


def test_a_label_of_another_type_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    # one string among integer coarse labels ended classify in a TypeError
    # from sorting the classes
    monkeypatch.chdir(tmp_path)
    _synth()
    _main("pretrain", extra=("pretrain.epochs=0",))
    nodes = tmp_path / "data" / "nodes.jsonl"
    rows = [json.loads(line) for line in nodes.read_text().splitlines()]
    rows[5]["coarse_label"] = "zero"
    nodes.write_text("".join(json.dumps(row) + "\n" for row in rows))
    _rejected(capsys, _argv("eval", "--task", "classify"),
              "data/nodes.jsonl:6: coarse_label 'zero': labels must be all JSON integers")
    assert not (tmp_path / "run" / "eval").exists()


def test_a_bad_graph_file_or_checkpoint_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _synth()
    (tmp_path / "bad.txt").write_text("0 1\n2\n")
    _rejected(capsys, ["ingest", "--nodes", "data/nodes.jsonl", "--edges", "bad.txt"],
              "bad.txt:2: expected 'u v'")
    _rejected(capsys, _argv("eval", "--task", "classify", "--checkpoint", "data/edges.txt"),
              "data/edges.txt is not a checkpoint file")
    assert not (tmp_path / "run").exists()


def test_a_negative_model_size_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _synth()
    _main("pretrain", extra=("pretrain.epochs=0",))
    arrays, meta = checkpoint.load_arrays("run/checkpoint.bin")
    meta["model"]["vocab_size"] = -5
    checkpoint.save_arrays("run/checkpoint.bin", arrays, meta)
    _rejected(capsys, _argv("eval", "--task", "classify"),
              "run/checkpoint.bin: damaged header: model vocab_size is -5")
    assert not (tmp_path / "run" / "eval").exists()


def test_a_size_the_run_cannot_use_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    # 0 heads ended pretraining in a ZeroDivisionError; an eval batch of 1
    # ended linkpred in a ValueError, but only after the whole fine-tune
    monkeypatch.chdir(tmp_path)
    _synth()
    _rejected(capsys, _argv("pretrain", extra=("dims.heads=0",)),
              "dims.heads must be at least 1, got 0")
    _rejected(capsys, _argv("finetune", "--task", "linkpred", extra=("task.eval_batch=1",)),
              "task.eval_batch must be at least 2, got 1")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("damage", ["[PAD]\t0\n[CLS] 1\n", "[PAD]\t0\n[CLS]\t1\tx\n",
                                    "[PAD]\t0\n[CLS]\t2\n"],
                         ids=["no tab", "two tabs", "ids not dense"])
def test_a_damaged_vocab_ends_in_one_error_line(tmp_path, monkeypatch, capsys, damage):
    monkeypatch.chdir(tmp_path)
    _synth()
    _main("pretrain", extra=("pretrain.epochs=0",))
    (tmp_path / "run" / "vocab.tsv").write_text(damage, encoding="utf-8")
    _rejected(capsys, _argv("eval", "--task", "classify"),
              "run/vocab.tsv: line 2 is not 'token<TAB>1'")
    assert not (tmp_path / "run" / "eval").exists()


def test_a_missing_file_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _synth()
    _rejected(capsys, _argv("eval", "--task", "classify", "--checkpoint", "nope.bin"),
              "No such file or directory: 'nope.bin'")
    _rejected(capsys, _argv("pretrain", extra=("paths.data_dir=missing",)),
              "No such file or directory: 'missing/nodes.jsonl'")
    assert not (tmp_path / "run").exists()


def test_ingest_writes_an_identical_normalized_copy(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _synth()
    files = ("nodes.jsonl", "edges.txt", "labels.jsonl")
    capsys.readouterr()
    assert cli.main(["ingest", "--nodes", "data/nodes.jsonl", "--edges", "data/edges.txt",
                     "--labels", "data/labels.jsonl", "--out", "copy"]) == 0
    stats = json.loads(capsys.readouterr().out.split("\nnormalized")[0])
    assert stats["nodes"] == 30 and stats["has_fine_labels"]
    for name in files:
        assert (tmp_path / "copy" / name).read_bytes() == (tmp_path / "data" / name).read_bytes()


def test_theory_passes_and_writes_its_report(tmp_path):
    out = tmp_path / "theory"
    assert cli.main(["theory", "--separation-seeds", "2", "--profile-seeds", "1",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["checks"]) == 6 and all(c["passed"] for c in report["checks"])
    assert (out / "smoothing_profiles.csv").read_text().startswith("model,seed,layer,")
