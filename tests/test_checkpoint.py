"""Checkpoint writes are atomic: a failed write keeps the previous file."""

import errno
import os

import numpy as np
import pytest

from odin import checkpoint
from odin.checkpoint import CheckpointError, load_arrays, load_model, save_arrays, save_model
from odin.encoder import ModelDims, init_params


class _DiskFull:
    """File stand-in that writes `limit` bytes, then fails like a full disk."""

    def __init__(self, fh, limit):
        self.fh = fh
        self.room = limit

    def write(self, data):
        data = bytes(data)
        self.fh.write(data[: self.room])
        if len(data) > self.room:
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _arrays(seed):
    rng = np.random.default_rng(seed)
    return {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(7)}


def test_save_overwrites_and_round_trips(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_arrays(path, _arrays(0), {"step": 0})
    save_arrays(path, _arrays(1), {"step": 1})
    arrays, meta = load_arrays(path)
    assert meta == {"step": 1}
    for name, want in _arrays(1).items():
        np.testing.assert_array_equal(arrays[name], want)
    assert os.listdir(tmp_path) == ["checkpoint.bin"]


def test_write_failing_part_way_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.bin"
    save_arrays(path, _arrays(0), {"step": 0})
    before = path.read_bytes()

    def open_then_fill_disk(file, mode="r", *args, **kwargs):
        return _DiskFull(open(file, mode, *args, **kwargs), limit=len(before) // 2)

    monkeypatch.setattr(checkpoint, "open", open_then_fill_disk, raising=False)
    with pytest.raises(OSError):
        save_arrays(path, _arrays(1), {"step": 1})
    monkeypatch.undo()

    assert path.read_bytes() == before
    arrays, meta = load_arrays(path)
    assert meta == {"step": 0}
    for name, want in _arrays(0).items():
        np.testing.assert_array_equal(arrays[name], want)
    assert os.listdir(tmp_path) == ["checkpoint.bin"]


def test_model_round_trips_its_dims_and_rejects_an_older_format(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.bin"
    dims = ModelDims(d=8, heads=2, max_len=6, mlp_ratio=3)
    params = init_params(10, dims, 3, 1, seed=0)
    save_model(path, params, {"step": 0})
    loaded, meta, _ = load_model(path)
    assert loaded.dims == dims and meta["model"]["dims"] == {
        "d": 8, "heads": 2, "max_len": 6, "mlp_ratio": 3}
    for (name, want), (_, got) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(got.data, want.data, err_msg=name)
    # a file of the earlier format holds no dims record; it must not load
    monkeypatch.setattr(checkpoint, "FORMAT_VERSION", checkpoint.FORMAT_VERSION - 1)
    save_model(path, params, {"step": 0})
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)
