"""Run configuration: a nested dataclass tree, JSON on disk, dotted-path
overrides from the command line, and a content digest embedded in artifacts.

The `schedule` section is the fusion.LayerSchedule and `dims` the
encoder.ModelDims the model runs on. A config file and `--set` share one
setter: it rejects unknown paths and values not of the field default's type
(an int may stand for a float and a list for positions; a bool never for an int).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import ConfigError, ModelDims
from .fusion import LayerSchedule

log = logging.getLogger(__name__)


@dataclass
class SamplerConfig:
    fanout: int = 5


@dataclass
class PretrainConfig:
    batch_size: int = 32
    epochs: int = 10
    mask_ratio: float = 0.15
    lr_encoder: float = 1e-5
    lr_gnn: float = 1e-3
    optimizer: str = "sgd"
    train_fraction: float = 0.8  # remainder split evenly valid/test


@dataclass
class TaskConfig:
    linkpred_shots: int = 32
    classify_shots: int = 8
    retrieve_shots: int = 16
    rerank_shots: int = 32
    head_epochs: int = 200
    head_lr: float = 0.1
    finetune_epochs: int = 4
    finetune_lr: float = 1e-3
    finetune_batch: int = 16
    eval_batch: int = 32
    recall_k: int = 10
    rerank_candidates: int = 5


@dataclass
class PathsConfig:
    data_dir: str = "data"
    out_dir: str = "runs/default"


@dataclass
class RunConfig:
    seed: int = 0
    schedule: LayerSchedule = field(default_factory=LayerSchedule)
    dims: ModelDims = field(default_factory=ModelDims)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def validate(self) -> None:
        """Raise ConfigError on a malformed schedule or dims, a sampler
        fanout, batch size or few-shot task shots below 1, an eval batch
        below 2 (linkpred scores each pair against the others of its batch),
        or a mask ratio outside (0, 1), before any work. Warn when PE or PG
        layers precede the first aggregation stage: those run as VA."""
        schedule = self.schedule
        schedule.check()
        self.dims.check()
        for path, least in (("sampler.fanout", 1), ("pretrain.batch_size", 1),
                            ("task.finetune_batch", 1), ("task.eval_batch", 2),
                            ("task.classify_shots", 1), ("task.retrieve_shots", 1),
                            ("task.rerank_shots", 1)):
            section, name = path.split(".")
            value = getattr(getattr(self, section), name)
            if value < least:
                raise ConfigError(f"{path} must be at least {least}, got {value}")
        if not 0.0 < self.pretrain.mask_ratio < 1.0:
            raise ConfigError(f"pretrain.mask_ratio must lie in (0, 1), "
                              f"got {self.pretrain.mask_ratio}")
        first_stage = schedule.positions[0] if schedule.positions else schedule.depth
        if schedule.strategy in ("PE", "PG") and first_stage > 1:
            log.warning("%s before the first aggregation stage; using VA", schedule.strategy)

    def data_files(self):
        base = Path(self.paths.data_dir)
        labels = base / "labels.jsonl"
        return base / "nodes.jsonl", base / "edges.txt", (labels if labels.exists() else None)


def _field_names(obj) -> set[str]:
    return {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()


def _set(cfg: RunConfig, path: str, value) -> None:
    """Set the config value at a dotted path such as 'pretrain.epochs'."""
    *sections, name = path.split(".")
    obj = cfg
    for part in sections:
        obj = getattr(obj, part) if part in _field_names(obj) else None
    if name not in _field_names(obj):
        raise ConfigError(f"unknown config path {path!r}")
    default = getattr(type(obj)(), name)
    if dataclasses.is_dataclass(default):
        raise ConfigError(f"{path!r} is a config section; set its fields, as in {path}.<field>")
    if isinstance(default, float) and type(value) is int:
        value = float(value)
    elif isinstance(default, tuple) and type(value) is list:
        value = tuple(value)
    if isinstance(default, tuple):  # each item typed like the default's
        ok = type(value) is tuple and all(type(v) is type(default[0]) for v in value)
    else:
        ok = type(value) is type(default)
    if not ok:
        raise ConfigError(f"config value {path}={value!r} must be a "
                          f"{type(default).__name__}")
    setattr(obj, name, value)


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, "
                          f"not a {type(data).__name__}")
    cfg = RunConfig()
    for key, value in data.items():
        if isinstance(value, dict):
            for name, item in value.items():
                _set(cfg, f"{key}.{name}", item)
        else:
            _set(cfg, key, value)
    return cfg


def apply_override(cfg: RunConfig, dotted: str) -> None:
    """Apply one 'section.field=value' override; values parse as JSON when
    possible and fall back to plain strings."""
    try:
        target, raw = dotted.split("=", 1)
    except ValueError as exc:
        raise ConfigError(f"override {dotted!r} must look like key=value") from exc
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _set(cfg, target, value)
