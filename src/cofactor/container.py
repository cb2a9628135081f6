"""Deterministic binary container: a JSON manifest followed by raw array payloads.

Layout: 8-byte magic, uint64-LE header length, UTF-8 JSON header, then the
concatenated array bytes. Arrays are little-endian, C-contiguous; the header
maps each name to (offset, shape, dtype). Writing the same content twice
produces byte-identical files, which npz (a zip with timestamps) does not.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

_MAGIC = b"COFACTR1"

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def _stored(path: str | Path, name: str, arr) -> np.ndarray:
    """`arr` as the container stores it: C-contiguous <f8, all finite, or <i8.
    An array already in that form is returned as it is, not copied."""
    arr = np.asarray(arr)
    if arr.dtype.kind == "f":
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name!r} holds a non-finite value")
        return arr
    if arr.dtype.kind in "iu":
        return np.ascontiguousarray(arr, dtype="<i8")
    raise CheckpointError(f"unsupported dtype {arr.dtype} for array {name!r}")


def write_container(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `meta` plus named arrays to `path`. Floats stored as <f8, ints as <i8.

    The header, which gives every array's offset, is written first; then each
    array is converted again and written as it is reached, so at most one
    converted copy (none for an array already stored as it is given) is held.
    Every array, and the manifest's numbers (all finite), is checked before the
    file is opened.
    """
    manifest = {}
    offset = 0
    for name, arr in arrays.items():
        arr = _stored(path, name, arr)
        manifest[name] = {"offset": offset, "shape": list(arr.shape), "dtype": arr.dtype.str}
        offset += arr.nbytes
    try:
        header = json.dumps({"meta": meta, "arrays": manifest}, sort_keys=True,
                            separators=(",", ":"), allow_nan=False).encode("utf-8")
    except ValueError:
        raise CheckpointError(f"{path}: the manifest holds a non-finite number") from None
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for name, arr in arrays.items():
            fh.write(np.ascontiguousarray(arr, dtype=manifest[name]["dtype"]))


class _Entries(dict):
    """A container's meta or arrays: a missing name raises CheckpointError."""

    def __init__(self, path: str | Path, entries: dict):
        super().__init__(entries)
        self.path = path

    def __missing__(self, key):
        raise CheckpointError(f"{self.path}: no {key!r} in the container")

    def checked(self, key, ok, requirement: str):
        """The value of `key`; CheckpointError naming the file unless ok(value)."""
        if not ok(value := self[key]):
            raise CheckpointError(f"{self.path}: {key!r} must be {requirement}")
        return value

    def strings(self, key) -> tuple[str, ...]:
        """The list of strings under `key` (an id table, a vocabulary), as a tuple."""
        return tuple(self.checked(key, lambda v: type(v) is list and all(
            type(s) is str for s in v), "a list of strings"))


def _no_constant(name: str):
    raise ValueError(f"the header holds {name}, which JSON does not define")


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by write_container; returns (meta, arrays).
    A truncated or malformed file, an array holding a NaN or an infinity, or a
    header holding the NaN or Infinity constant raises CheckpointError. Each
    array is read straight into its own buffer, so no copy of the file is held."""
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise CheckpointError(f"{path}: not a cofactor container (bad magic)")
        try:
            size = os.fstat(fh.fileno()).st_size
            (hlen,) = struct.unpack("<Q", fh.read(8))
            if 16 + hlen > size:
                raise ValueError(f"a header of {hlen} bytes runs past the end of the file")
            header = json.loads(fh.read(hlen).decode("utf-8"), parse_constant=_no_constant)
            arrays = {}
            for name, info in header["arrays"].items():
                dtype = _DTYPES.get(info["dtype"])
                if dtype is None:
                    raise CheckpointError(f"{path}: unknown dtype {info['dtype']} for {name!r}")
                shape, start = tuple(info["shape"]), 16 + hlen + info["offset"]
                if min(shape, default=0) < 0 or info["offset"] < 0:
                    raise ValueError(f"array {name!r} has a negative size or offset")
                if start + math.prod(shape) * dtype.itemsize > size:
                    raise ValueError(f"array {name!r} runs past the end of the file")
                arr = np.empty(shape, dtype=dtype)
                fh.seek(start)
                fh.readinto(arr)
                if not np.isfinite(arr).all():
                    raise CheckpointError(f"{path}: array {name!r} holds a non-finite value")
                arrays[name] = arr
            return _Entries(path, header["meta"]), _Entries(path, arrays)
        except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CheckpointError(f"{path}: truncated or corrupt container ({exc})") from None
