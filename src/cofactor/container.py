"""Deterministic binary container: a JSON manifest followed by raw array payloads.

Layout: 8-byte magic, uint64-LE header length, UTF-8 JSON header, then the
concatenated array bytes. Arrays are little-endian, C-contiguous; the header
maps each name to (offset, shape, dtype). Writing the same content twice
produces byte-identical files, which npz (a zip with timestamps) does not.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

_MAGIC = b"COFACTR1"

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def write_container(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `meta` plus named arrays to `path`. Floats stored as <f8, ints as <i8."""
    manifest = {}
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            arr = np.ascontiguousarray(arr, dtype="<f8")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: array {name!r} holds a non-finite value")
        elif arr.dtype.kind in "iu":
            arr = np.ascontiguousarray(arr, dtype="<i8")
        else:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for array {name!r}")
        raw = arr.tobytes()
        manifest[name] = {"offset": offset, "shape": list(arr.shape), "dtype": arr.dtype.str}
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"meta": meta, "arrays": manifest}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


class _Entries(dict):
    """A container's meta or arrays: a missing name raises CheckpointError."""

    def __init__(self, path: str | Path, entries: dict):
        super().__init__(entries)
        self.path = path

    def __missing__(self, key):
        raise CheckpointError(f"{self.path}: no {key!r} in the container")


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by write_container; returns (meta, arrays).
    A truncated or malformed file, or an array holding a NaN or an infinity,
    raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise CheckpointError(f"{path}: not a cofactor container (bad magic)")
    try:
        (hlen,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
        payload = memoryview(blob)[16 + hlen:]
        arrays = {}
        for name, info in header["arrays"].items():
            dtype = _DTYPES.get(info["dtype"])
            if dtype is None:
                raise CheckpointError(f"{path}: unknown dtype {info['dtype']} for {name!r}")
            shape = tuple(info["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(payload, dtype=dtype, count=count, offset=info["offset"])
            arrays[name] = arr.reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: array {name!r} holds a non-finite value")
        return _Entries(path, header["meta"]), _Entries(path, arrays)
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: truncated or corrupt container ({exc})") from None
