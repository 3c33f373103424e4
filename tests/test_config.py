"""Run configs: the digest survives a save and load, a config file and
`--set` accept and reject the same values, and the schedule section is the
LayerSchedule the model runs on."""

import dataclasses
import json

import pytest

from odin.config import RunConfig, apply_override, load_config
from odin.encoder import ConfigError, ModelDims
from odin.fusion import LayerSchedule, light_preset


def _from_file(tmp_path, data) -> RunConfig:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return load_config(path)


def _from_override(dotted) -> RunConfig:
    cfg = RunConfig()
    apply_override(cfg, dotted)
    return cfg


def test_save_then_load_keeps_the_digest(tmp_path):
    cfg = RunConfig(seed=4, schedule=LayerSchedule(6, (2, 4), "ME"))
    cfg.dims.d, cfg.pretrain.lr_gnn = 16, 0.5
    cfg.paths.out_dir = "elsewhere"
    cfg.save(tmp_path / "config.json")
    loaded = load_config(tmp_path / "config.json")
    assert loaded.digest() == cfg.digest() and loaded == cfg
    assert isinstance(loaded.schedule, LayerSchedule)
    assert RunConfig().digest() != cfg.digest()


def test_positions_as_a_list_or_a_tuple_give_one_digest(tmp_path):
    want = RunConfig(schedule=LayerSchedule(6, (2, 4))).digest()
    from_list = _from_override("schedule.positions=[2,4]")
    from_list.schedule.depth = 6
    assert from_list.digest() == want
    assert _from_file(tmp_path, {"schedule": {"depth": 6, "positions": [2, 4]}}).digest() == want
    assert RunConfig(schedule=LayerSchedule(6, [2, 4])).digest() == want
    # a preset is the same schedule spelled out
    assert RunConfig(schedule=light_preset("light-2,4")).digest() == want


@pytest.mark.parametrize("path,value,match", [
    ("bogus.x", 1, "bogus"),
    ("schedule.preset", "light-2", "preset"),
    ("pretrain.nope", 1, "nope"),
    ("seed.x", 1, "seed"),
    ("schedule", "foo", "section"),
    ("dims", 3, "section"),
    ("pretrain.epochs", "abc", "int"),
    ("pretrain.epochs", True, "int"),
    ("pretrain.epochs", 2.5, "int"),
    ("pretrain.optimizer", "sgd", "unknown"),  # a removed option
    ("pretrain.mask_ratio", "x", "float"),
    ("paths.out_dir", [1], "str"),
    ("schedule.positions", 2, "tuple"),
    ("schedule.positions", [1, True], "tuple"),
])
def test_file_and_override_reject_the_same_values(tmp_path, path, value, match):
    with pytest.raises(ConfigError, match=match):
        _from_override(f"{path}={json.dumps(value)}")
    *section, name = path.split(".")
    with pytest.raises(ConfigError, match=match):
        _from_file(tmp_path, {section[0]: {name: value}} if section else {name: value})


def test_an_int_stands_for_a_float(tmp_path):
    want = RunConfig()
    want.pretrain.mask_ratio = 1.0
    for cfg in (_from_override("pretrain.mask_ratio=1"),
                _from_file(tmp_path, {"pretrain": {"mask_ratio": 1}})):
        assert type(cfg.pretrain.mask_ratio) is float
        assert cfg.digest() == want.digest()


def test_validate_checks_the_schedule_set_field_by_field():
    cfg = RunConfig()
    apply_override(cfg, "schedule.depth=6")  # positions 1,6,11 no longer fit
    with pytest.raises(ConfigError, match="out of range"):
        cfg.validate()
    apply_override(cfg, "schedule.positions=[2,4]")
    cfg.validate()
    assert cfg.schedule == light_preset("light-2,4")
    assert cfg.schedule.positions == (2, 4)


def test_validate_rejects_dims_the_heads_do_not_divide():
    cfg = _from_override("dims.d=10")  # the default 4 heads
    with pytest.raises(ConfigError, match="not divisible"):
        cfg.validate()


@pytest.mark.parametrize("dotted,match", [
    ("dims.heads=0", "dims.heads must be at least 1, got 0"),  # was ZeroDivisionError
    ("dims.d=-4", "dims.d must be at least 1, got -4"),  # OverflowError
    ("dims.max_len=1", "dims.max_len must be at least 2, got 1"),  # ValueError
    ("dims.mlp_ratio=0", "dims.mlp_ratio must be at least 1, got 0"),  # trained no MLP
    ("sampler.fanout=0", "sampler.fanout must be at least 1, got 0"),  # ValueError
    ("pretrain.batch_size=0", "pretrain.batch_size must be at least 1, got 0"),
    ("pretrain.mask_ratio=0.0", r"pretrain.mask_ratio must lie in \(0, 1\), got 0.0"),
    ("pretrain.mask_ratio=1", r"pretrain.mask_ratio must lie in \(0, 1\), got 1.0"),
    ("task.finetune_batch=0", "task.finetune_batch must be at least 1, got 0"),
    ("task.eval_batch=1", "task.eval_batch must be at least 2, got 1"),
], ids=["heads=0", "d=-4", "max_len=1", "mlp_ratio=0", "fanout=0", "batch_size=0",
        "mask_ratio=0.0", "mask_ratio=1", "finetune_batch=0", "eval_batch=1"])
def test_validate_rejects_sizes_the_run_cannot_use(dotted, match):
    # each of these ended a run in a traceback, some only after training
    cfg = _from_override(dotted)
    with pytest.raises(ConfigError, match=match):
        cfg.validate()


@pytest.mark.parametrize("value", [4.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", ["d", "heads", "max_len", "mlp_ratio"])
def test_model_dims_reject_a_size_that_is_not_an_int(name, value):
    with pytest.raises(ConfigError, match=f"dims.{name} must be an int, got {value}"):
        ModelDims(**{name: value})


@pytest.mark.parametrize("text,match", [
    ("[1, 2]", "JSON object, not a list"),
    ('{"seed": 1', "not valid JSON"),
], ids=["a-list", "truncated"])
def test_load_config_names_the_file_it_cannot_read(tmp_path, text, match):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match) as info:
        load_config(path)
    assert str(path) in str(info.value)


def _settable_paths(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _settable_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_the_settable_config_paths_are_pinned():
    # a new knob must be added here on purpose
    assert sorted(_settable_paths(RunConfig())) == [
        "dims.d", "dims.heads", "dims.max_len", "dims.mlp_ratio",
        "paths.data_dir", "paths.out_dir",
        "pretrain.batch_size", "pretrain.epochs", "pretrain.lr_encoder", "pretrain.lr_gnn",
        "pretrain.mask_ratio", "pretrain.train_fraction",
        "sampler.fanout",
        "schedule.depth", "schedule.positions", "schedule.strategy",
        "seed",
        "task.classify_shots", "task.eval_batch", "task.finetune_batch",
        "task.finetune_epochs", "task.finetune_lr", "task.head_epochs", "task.head_lr",
        "task.linkpred_shots", "task.recall_k", "task.rerank_candidates",
        "task.rerank_shots", "task.retrieve_shots",
    ]
