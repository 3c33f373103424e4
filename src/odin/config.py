"""Run configuration: a nested dataclass tree, JSON on disk, dotted-path
overrides from the command line, and a content digest embedded in artifacts."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import ConfigError, ModelDims
from .fusion import LayerSchedule, light_preset, make_schedule

log = logging.getLogger(__name__)


@dataclass
class ScheduleConfig:
    depth: int = 12
    positions: list[int] = field(default_factory=lambda: [1, 6, 11])
    strategy: str = "PG"
    preset: str | None = None  # overrides the three fields above when set

    def build(self) -> LayerSchedule:
        if self.preset:
            return light_preset(self.preset)
        return make_schedule(self.depth, self.positions, self.strategy)


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
    min_freq: int = 1
    tie_mlm: bool = False
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
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    rerank_candidates: int = 5


@dataclass
class PathsConfig:
    data_dir: str = "data"
    out_dir: str = "runs/default"


@dataclass
class RunConfig:
    seed: int = 0
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
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
        """Raise ConfigError on a malformed schedule or dims. Warn when PE or
        PG layers precede the first aggregation stage: those run as VA."""
        schedule = self.schedule.build()
        self.dims.check()
        first_stage = schedule.positions[0] if schedule.positions else schedule.depth
        if schedule.strategy in ("PE", "PG") and first_stage > 1:
            log.warning("%s before the first aggregation stage; using VA", schedule.strategy)

    def data_files(self):
        base = Path(self.paths.data_dir)
        labels = base / "labels.jsonl"
        return base / "nodes.jsonl", base / "edges.txt", (labels if labels.exists() else None)


_SECTIONS = {
    "schedule": ScheduleConfig,
    "dims": ModelDims,
    "sampler": SamplerConfig,
    "pretrain": PretrainConfig,
    "task": TaskConfig,
    "paths": PathsConfig,
}


def config_from_dict(data: dict) -> RunConfig:
    cfg = RunConfig()
    for key, value in data.items():
        if key == "seed":
            cfg.seed = int(value)
        elif key in _SECTIONS:
            section = _SECTIONS[key]()
            known = {f.name for f in dataclasses.fields(section)}
            for k, v in value.items():
                if k not in known:
                    raise ConfigError(f"unknown config field {key}.{k}")
                setattr(section, k, v)
            setattr(cfg, key, section)
        else:
            raise ConfigError(f"unknown config section {key!r}")
    return cfg


def load_config(path) -> RunConfig:
    data = json.loads(Path(path).read_text())
    return config_from_dict(data)


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
    parts = target.split(".")
    obj = cfg
    for p in parts[:-1]:
        if not hasattr(obj, p):
            raise ConfigError(f"unknown config path {target!r}")
        obj = getattr(obj, p)
    if not hasattr(obj, parts[-1]):
        raise ConfigError(f"unknown config path {target!r}")
    setattr(obj, parts[-1], value)
