"""Checkpoint writes are atomic: a failed write keeps the previous file.
Each array loads back in the dtype it was saved in, as an aligned, writable
view of one buffer that no other array shares. A file that is not a whole
checkpoint of the model raises CheckpointError."""

import errno
import gc
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from odin import checkpoint, encoder
from odin.checkpoint import CheckpointError, load_arrays, load_model, save_arrays, save_model
from odin.encoder import ModelDims, init_params

from helpers import write_with_key_biases


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


def test_loading_a_model_draws_no_random_numbers(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.bin"
    params = init_params(10, ModelDims(d=8, heads=2, max_len=6), 2, 1, seed=0)
    save_model(path, params, {"step": 0})

    def no_draws(*key):
        raise AssertionError(f"load_model drew random numbers for {key}")

    monkeypatch.setattr(encoder, "generator", no_draws)
    loaded, _, _ = load_model(path)
    for (name, want), (_, got) in zip(params.named_parameters(), loaded.named_parameters()):
        assert got.data.tobytes() == want.data.tobytes(), name


def test_round_trip_keeps_each_dtype_and_its_bytes(tmp_path):
    path = tmp_path / "checkpoint.bin"
    rng = np.random.default_rng(2)
    arrays = {"f4": rng.standard_normal((3, 5)).astype(np.float32),
              "f8": rng.standard_normal(4), "scalar": np.float32(1.5)}
    save_arrays(path, arrays, {})
    loaded, _ = load_arrays(path)
    for name, want in arrays.items():
        assert loaded[name].dtype == np.asarray(want).dtype, name
        assert loaded[name].tobytes() == np.asarray(want).tobytes(), name
    with pytest.raises(CheckpointError, match="dtype"):
        save_arrays(path, {"ids": np.arange(3)}, {})


def test_model_checkpoint_is_float32(tmp_path):
    path = tmp_path / "checkpoint.bin"
    params = init_params(10, ModelDims(d=8, heads=2, max_len=6), 2, 1, seed=0)
    save_model(path, params, {"step": 0})
    loaded, _, _ = load_model(path)
    assert {p.dtype for _, p in loaded.named_parameters()} == {np.dtype(np.float32)}
    values = sum(p.size for _, p in params.named_parameters())
    assert values * 4 < path.stat().st_size < values * 8


def _write_v2(path, arrays: dict) -> None:
    """A file as format version 2 wrote it: no dtype in the manifest and a
    float64 payload."""
    manifest, payload = {}, b""
    for name in sorted(arrays):
        manifest[name] = {"shape": list(arrays[name].shape), "offset": len(payload)}
        payload += np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
    header = json.dumps({"version": 2, "meta": {}, "arrays": manifest}).encode()
    path.write_bytes(checkpoint.MAGIC + len(header).to_bytes(8, "little") + header + payload)


def test_a_version_2_file_is_rejected(tmp_path):
    path = tmp_path / "checkpoint.bin"
    _write_v2(path, _arrays(0))
    with pytest.raises(CheckpointError, match="version 2"):
        load_arrays(path)


def test_a_file_without_an_mlm_head_is_rejected(tmp_path):
    # as a model with its MLM head tied to token_emb was written
    path = tmp_path / "checkpoint.bin"
    save_model(path, init_params(10, ModelDims(d=8, heads=2, max_len=6), 1, 1, seed=0), {})
    arrays, meta = load_arrays(path)
    del arrays["mlm_head"]
    meta["model"]["tie_mlm"] = True
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="missing array mlm_head"):
        load_model(path)


def _model_file(path):
    save_model(path, init_params(10, ModelDims(d=8, heads=2, max_len=6), 1, 1, seed=0), {})
    return path.read_bytes()


@pytest.mark.parametrize("damage", ["payload-cut", "header-cut", "header-garbled"])
def test_a_damaged_checkpoint_raises_checkpoint_error_naming_it(tmp_path, damage):
    path = tmp_path / "checkpoint.bin"
    raw = _model_file(path)
    start = len(checkpoint.MAGIC) + 8
    n = int.from_bytes(raw[len(checkpoint.MAGIC): start], "little")
    if damage == "payload-cut":
        raw = raw[:-100]
    elif damage == "header-cut":
        raw = raw[: start + n // 2]
    else:
        raw = raw[:start + 20] + b"#" * 20 + raw[start + 40:]
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_model(path)


def test_an_array_of_the_wrong_shape_is_rejected(tmp_path):
    path = tmp_path / "checkpoint.bin"
    _model_file(path)
    arrays, meta = load_arrays(path)
    arrays["token_emb"] = arrays["token_emb"][1:]
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="shape mismatch for token_emb"):
        load_model(path)


def test_a_foreign_file_and_an_unknown_dtype_are_rejected(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b"PK\x03\x04 an archive, not a checkpoint")
    with pytest.raises(CheckpointError, match="not a checkpoint file"):
        load_arrays(path)
    monkeypatch.setattr(checkpoint, "DTYPES", (*checkpoint.DTYPES, "<i8"))
    save_arrays(path, {"ids": np.arange(3, dtype="<i8")}, {})
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="ids has unsupported dtype '<i8'"):
        load_arrays(path)


def _with_header(path, header):
    """Rewrite the checkpoint at `path` with `header`, keeping its payload."""
    raw = path.read_bytes()
    start = len(checkpoint.MAGIC) + 8
    n = int.from_bytes(raw[len(checkpoint.MAGIC): start], "little")
    text = json.dumps(header).encode()
    path.write_bytes(checkpoint.MAGIC + len(text).to_bytes(8, "little") + text + raw[start + n:])


def _header(path):
    raw = path.read_bytes()
    start = len(checkpoint.MAGIC) + 8
    return json.loads(raw[start: start + int.from_bytes(raw[len(checkpoint.MAGIC): start],
                                                        "little")])


def _no_dtype(header):
    del header["arrays"]["mlm_head"]["dtype"]
    return header


def _negative_offset(header):
    header["arrays"]["mlm_head"]["offset"] = -8
    return header


def _no_model(header):
    del header["meta"]["model"]
    return header


@pytest.mark.parametrize("damage", [lambda h: {}, lambda h: {"version": 3},
                                    lambda h: [h], _no_dtype, _negative_offset, _no_model],
                         ids=["empty object", "version only", "a list", "an array without dtype",
                              "a negative offset", "meta without the model"])
def test_a_header_of_the_wrong_shape_raises_checkpoint_error_naming_it(tmp_path, damage):
    path = tmp_path / "checkpoint.bin"
    _model_file(path)
    _with_header(path, damage(_header(path)))
    loaders = [load_model] if damage is _no_model else [load_arrays, load_model]
    for load in loaders:
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*damaged"):
            load(path)


@pytest.mark.parametrize("shape", [[-1], [2.5]], ids=["a negative dimension",
                                                     "a non-integer dimension"])
def test_a_bad_dimension_raises_checkpoint_error_naming_it(tmp_path, shape):
    # `a` holds 3 floats and `b` 5; read with shape [-1], `a` took all 8
    path = tmp_path / "checkpoint.bin"
    save_arrays(path, {"a": np.zeros(3, np.float32), "b": np.ones(5, np.float32)}, {})
    header = _header(path)
    header["arrays"]["a"]["shape"] = shape
    _with_header(path, header)
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*damaged.*a has shape"):
        load_arrays(path)


@pytest.mark.parametrize("key,value", [("vocab_size", -5), ("depth", -1), ("num_stages", -2)])
def test_a_negative_model_size_raises_checkpoint_error_naming_it(tmp_path, key, value):
    # at -1 and -2, a model without layers or stages loaded; at -5, numpy
    # raised a ValueError that named no file
    path = tmp_path / "checkpoint.bin"
    _model_file(path)
    header = _header(path)
    header["meta"]["model"][key] = value
    _with_header(path, header)
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + f".*{key} is {value}"):
        load_model(path)


@pytest.mark.parametrize("key,value,match", [
    ("d", -8, "dims.d must be at least 1, got -8"),
    ("max_len", -3, "dims.max_len must be at least 2, got -3"),
    ("mlp_ratio", -1, "dims.mlp_ratio must be at least 1, got -1"),
    ("heads", 0, "dims.heads must be at least 1, got 0"),
    ("heads", 3, "dims.d 8 is not divisible by dims.heads 3"),
    ("d", 8.0, "dims.d must be an int, got 8.0"),
], ids=["d=-8", "max_len=-3", "mlp_ratio=-1", "heads=0", "heads=3", "d=8.0"])
def test_bad_model_dims_raise_checkpoint_error_naming_it(tmp_path, key, value, match):
    # numpy raised a ValueError at a negative size and ModelDims a
    # ZeroDivisionError at 0 heads; 3 heads gave a ConfigError without the file
    path = tmp_path / "checkpoint.bin"
    _model_file(path)
    header = _header(path)
    header["meta"]["model"]["dims"][key] = value
    _with_header(path, header)
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: damaged header: model {match}")):
        load_model(path)


def test_a_checkpoint_with_key_biases_loads_without_them(tmp_path):
    path = tmp_path / "checkpoint.bin"
    params = init_params(10, ModelDims(d=8, heads=2, max_len=6), 2, 1, seed=0)
    arrays = write_with_key_biases(path, params, {"step": 0})
    loaded, meta, _ = load_model(path)
    named = dict(loaded.named_parameters())
    assert sorted(named) == sorted(name for name in arrays if not name.endswith(".bk"))
    for name, p in named.items():
        assert p.data.tobytes() == arrays[name].tobytes(), name
    assert meta["step"] == 0


def _default_model():
    # the embed-sparse benchmark's model: 189 arrays, 0.71 MiB of float32
    return init_params(404, ModelDims(), 12, 3, seed=0)


def test_save_writes_the_format_byte_for_byte(tmp_path):
    path = tmp_path / "checkpoint.bin"
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(3)}
    save_arrays(path, arrays, {"step": 2})
    header = json.dumps({"version": 3, "meta": {"step": 2}, "arrays": {
        "b": {"dtype": "<f8", "offset": 0, "shape": [3]},
        "w": {"dtype": "<f4", "offset": 24, "shape": [2, 3]}}},
        sort_keys=True, separators=(",", ":")).encode()
    assert path.read_bytes() == (checkpoint.MAGIC + len(header).to_bytes(8, "little") + header
                                 + arrays["b"].tobytes() + arrays["w"].tobytes())


def test_loaded_parameters_are_aligned_writable_views(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_model(path, _default_model(), {})
    loaded = [p.data for _, p in load_model(path)[0].named_parameters()]
    assert len(loaded) == 189
    for arr in loaded:
        assert arr.flags.aligned and arr.flags.writeable and arr.flags.c_contiguous
        assert not arr.flags.owndata  # a view of the one buffer, not a copy


def test_an_update_in_place_changes_one_parameter_and_not_the_file(tmp_path):
    path = tmp_path / "checkpoint.bin"
    params = init_params(10, ModelDims(d=8, heads=2, max_len=6), 2, 1, seed=0)
    save_model(path, params, {})
    raw = path.read_bytes()
    saved = {name: p.data for name, p in params.named_parameters()}
    loaded = dict(load_model(path)[0].named_parameters())
    updated = set()
    for name, p in loaded.items():
        p.data += 1.0
        updated.add(name)
        for other, q in loaded.items():
            np.testing.assert_array_equal(q.data, saved[other] + (other in updated),
                                          err_msg=f"{other} after updating {name}")
    assert path.read_bytes() == raw


def test_a_float64_after_an_odd_float32_loads_aligned(tmp_path):
    # `a` holds 3 float32s, so `b` starts at byte 12, which 8 does not divide
    path = tmp_path / "checkpoint.bin"
    arrays = {"a": np.arange(3, dtype=np.float32), "b": np.linspace(0, 1, 5),
              "c": np.full((2, 2), 7, np.float32)}
    save_arrays(path, arrays, {})
    assert _header(path)["arrays"]["b"]["offset"] == 12
    loaded, _ = load_arrays(path)
    for name, want in arrays.items():
        got = loaded[name]
        assert got.dtype == want.dtype and got.flags.aligned and got.flags.writeable, name
        assert got.tobytes() == want.tobytes(), name
    loaded["b"][:] = 0
    np.testing.assert_array_equal(loaded["a"], arrays["a"])
    np.testing.assert_array_equal(loaded["c"], arrays["c"])


@pytest.mark.parametrize("offset", [0, 8, 12], ids=["same start", "inside", "last float"])
def test_arrays_that_overlap_raise_checkpoint_error_naming_it(tmp_path, offset):
    # at any of these offsets `b` would share bytes with `a`, which holds
    # bytes 0..16, and an update to one would change the other
    path = tmp_path / "checkpoint.bin"
    save_arrays(path, {"a": np.zeros(4, np.float32), "b": np.ones(4, np.float32),
                       "c": np.ones(0, np.float32)}, {})
    header = _header(path)
    header["arrays"]["b"]["offset"] = offset
    header["arrays"]["c"]["offset"] = 4  # empty, so it shares no byte
    _with_header(path, header)
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*damaged.*a and b overlap"):
        load_arrays(path)
    header["arrays"]["b"]["offset"] = 16
    _with_header(path, header)
    loaded, _ = load_arrays(path)
    assert loaded["c"].shape == (0,) and list(loaded["b"]) == [1, 1, 1, 1]


def test_loading_a_model_allocates_little_beyond_its_payload(tmp_path):
    # the file's bytes, a sliced copy of the payload, a copy of each array and
    # a float64 skeleton made the peak 3.2x the payload
    path = tmp_path / "checkpoint.bin"
    params = _default_model()
    save_model(path, params, {"step": 0})
    payload = sum(p.data.nbytes for _, p in params.named_parameters())
    del params
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_model(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert loaded[0].depth == 12
    assert peak <= 1.25 * payload, peak / payload


def test_the_skeleton_is_read_only_and_holds_no_parameter_memory():
    skeleton = init_params(10, ModelDims(d=8, heads=2, max_len=6), 2, 1, seed=None)
    for name, p in skeleton.named_parameters():
        assert p.dtype == np.float32 and not p.data.flags.writeable, name
        assert all(stride == 0 for stride in p.data.strides), name
        want = 1.0 if name.endswith("_g") else 0.0
        assert np.all(p.data == want), name
