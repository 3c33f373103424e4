"""Versioned checkpoint container.

A checkpoint is a single binary file: a magic string, an 8-byte header
length, a JSON header carrying the format version, run metadata, and a
manifest of each array's shape, dtype and offset, then the raw little-endian
payload. Each array is stored in its own dtype, float32 (`<f4`) or float64
(`<f8`), and loads back in it: model parameters and Adam moments are float32,
so a model checkpoint is float32. Version 3 added the dtype; older files are
rejected. The writer is fully deterministic (no timestamps), so identical
runs produce identical bytes. A file that is not such a checkpoint, or is
cut short or garbled, raises CheckpointError naming its path. A model loads
the arrays it names; others, such as the key biases of older files, are
ignored.

A load holds one buffer: the payload is read once into a 64-byte aligned
array, and every array it returns is a writable view of that buffer, so
loading a model allocates about the payload's size and copies nothing. The
views must not alias, so a header whose arrays overlap is rejected; an array
whose offset its itemsize does not divide (a float64 after an odd number of
float32s) is copied out to stay aligned. The buffer lives while any of its
views does, with the bytes of the arrays nobody took, such as Adam moments
beside the parameters of an evaluated model.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from .encoder import ConfigError, ModelDims, ParamSet, init_params

MAGIC = b"ODINCKPT\x01\n"
FORMAT_VERSION = 3
DTYPES = ("<f4", "<f8")


class CheckpointError(ValueError):
    pass


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write the checkpoint to a sibling temp file, then rename it over `path`,
    so a crash mid-write leaves the previous checkpoint whole. Each array goes
    out through the buffer protocol, without a bytes copy."""
    path = Path(path)
    names = sorted(arrays)
    payload = []
    manifest = {}
    offset = 0
    for name in names:
        arr = np.asarray(arrays[name])
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        if arr.dtype.str not in DTYPES:
            raise CheckpointError(f"cannot store {name} of dtype {arr.dtype}")
        payload.append(arr)
        manifest[name] = {"shape": list(arr.shape), "dtype": arr.dtype.str, "offset": offset}
        offset += arr.nbytes
    header = json.dumps(
        {"version": FORMAT_VERSION, "meta": meta, "arrays": manifest},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in payload:
                fh.write(arr.data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _header_fields(path):
    """A header that is not JSON, or a field of it that is missing or of the
    wrong type, raises CheckpointError naming `path`."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError, UnicodeError) as exc:
        raise CheckpointError(f"{path}: damaged header ({type(exc).__name__}: {exc})") from None


_ALIGN = 64  # bytes; a cache line, and more than any stored itemsize


def load_arrays(path):
    """(arrays, meta): each array a writable view of one aligned buffer that
    holds the payload as read; arrays whose bytes would overlap, or lie
    outside the bytes read, raise CheckpointError naming `path`."""
    with open(path, "rb") as fh, _header_fields(path):
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file")
        n = int.from_bytes(fh.read(8), "little")
        rest = os.fstat(fh.fileno()).st_size - fh.tell()
        header = json.loads(fh.read(min(n, rest)))
        if header["version"] != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {header['version']}")
        size = max(rest - n, 0)
        buf = np.empty(size + _ALIGN, np.uint8)
        start = -buf.ctypes.data % _ALIGN
        buf = buf[start: start + size]  # a view: slicing an ndarray copies nothing
        payload = buf[: fh.readinto(buf)]
        arrays, spans = {}, []
        for name, info in header["arrays"].items():
            dtype, shape, offset = info["dtype"], tuple(info["shape"]), info["offset"]
            if dtype not in DTYPES:
                raise CheckpointError(f"{path}: {name} has unsupported dtype {dtype!r}")
            if not all(type(dim) is int and dim >= 0 for dim in shape):
                raise CheckpointError(f"{path}: damaged header: {name} has shape {list(shape)}")
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            if type(offset) is not int or not 0 <= offset <= len(payload) - nbytes:
                raise CheckpointError(f"{path} is cut short or its header damaged: {name} "
                                      "lies outside the payload")
            arr = payload[offset: offset + nbytes].view(dtype).reshape(shape)
            arrays[name] = arr if arr.flags.aligned else arr.copy()
            if nbytes:
                spans.append((offset, offset + nbytes, name))
        spans.sort()
        for (_, end, first), (begin, _, second) in zip(spans, spans[1:]):
            if begin < end:
                raise CheckpointError(f"{path}: damaged header: {first} and {second} overlap")
        return arrays, header["meta"]


def save_model(path, params: ParamSet, meta: dict, optimizer=None) -> None:
    arrays = {name: p.data for name, p in params.named_parameters()}
    meta = dict(meta)
    meta["model"] = {
        "vocab_size": params.vocab_size,
        "depth": params.depth,
        "num_stages": len(params.stages),
        "dims": dataclasses.asdict(params.dims),
    }
    if optimizer is not None:
        meta["optimizer"] = {"kind": optimizer.kind}
        state = optimizer.state_dict()
        if state:
            meta["optimizer"]["t"] = state["t"]
            for key in ("m", "v"):
                for name, arr in state[key].items():
                    arrays[f"opt.{key}.{name}"] = arr
    save_arrays(path, arrays, meta)


def load_model(path):
    """Returns (params, meta, optimizer_state_or_None). A negative model
    size in the header, or dims that ModelDims.check rejects, raises
    CheckpointError naming `path`."""
    arrays, meta = load_arrays(path)
    with _header_fields(path):
        spec, opt = meta["model"], meta.get("optimizer", {})
        for key in ("vocab_size", "depth", "num_stages"):
            if spec[key] < 0:
                raise CheckpointError(f"{path}: damaged header: model {key} is {spec[key]}")
        try:
            dims = ModelDims(**spec["dims"])
        except ConfigError as exc:
            raise CheckpointError(f"{path}: damaged header: model {exc}") from None
        params = init_params(spec["vocab_size"], dims, spec["depth"], spec["num_stages"],
                             seed=None)
        adam_step = opt["t"] if opt.get("kind") == "adam" else None
    for name, p in params.named_parameters():
        if name not in arrays:
            raise CheckpointError(f"{path}: missing array {name}")
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: checkpoint "
                                  f"{arrays[name].shape}, model {p.data.shape}")
        p.data = arrays[name]
    opt_state = None
    if adam_step is not None:
        opt_state = {
            "t": adam_step,
            "m": {k[len("opt.m."):]: v for k, v in arrays.items() if k.startswith("opt.m.")},
            "v": {k[len("opt.v."):]: v for k, v in arrays.items() if k.startswith("opt.v.")},
        }
    return params, meta, opt_state
