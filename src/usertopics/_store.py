"""Workspace file primitives: atomic writes, checked ``.npy`` arrays, JSON files.

Arrays are plain ``.npy`` files (format 1.0, C order, an explicit
little-endian dtype) written by ``np.save`` without pickling. They are read
back by matching the header against the one expected for the dtype and
rank and checking the data length against the file size before any data
is read, so a mangled header cannot ask for more memory than the file
holds, and nothing is evaluated or unpickled.

Every file is written under a temporary name in its target directory and
moved into place with ``os.replace``: a write cut short leaves the old file
or the new one, never a partial file under the final name.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np

_NPY_MAGIC_1_0 = b"\x93NUMPY\x01\x00"


@contextlib.contextmanager
def atomic_file(path: Path):
    """Binary file handle whose content appears at ``path`` only when complete."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_array(path: Path, arr: np.ndarray, dtype: str) -> Path:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    with atomic_file(path) as fh:
        np.save(fh, arr, allow_pickle=False)
    return path


def load_array(path: Path, dtype: str, ndim: int) -> np.ndarray:
    """Read a ``.npy`` file written by :func:`save_array`; ValueError if it is not one.

    The header must be the one ``np.save`` writes for a C-order ``ndim``-d
    array of ``dtype`` (format 1.0); it is matched as text, never evaluated.
    """
    dtype = np.dtype(dtype)
    dims = ", ".join([r"(\d{1,18})"] * ndim) + ("," if ndim == 1 else "")
    expected = re.compile(
        rf"\{{'descr': '{re.escape(dtype.str)}', 'fortran_order': False, "
        rf"'shape': \({dims}\), \}} *\n"
    )
    with open(path, "rb") as fh:
        prefix = fh.read(10)
        if len(prefix) < 10 or prefix[:8] != _NPY_MAGIC_1_0:
            raise ValueError(f"{path.name}: not a version 1.0 .npy file")
        header = fh.read(int.from_bytes(prefix[8:], "little")).decode("latin1")
        match = expected.fullmatch(header)
        if match is None:
            raise ValueError(f"{path.name}: expected a C-order {ndim}-d {dtype.str} array")
        shape = tuple(int(dim) for dim in match.groups())
        nbytes = math.prod(shape) * dtype.itemsize
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != nbytes:
            raise ValueError(f"{path.name}: shape {shape} needs {nbytes} data bytes, found {found}")
        arr = np.empty(shape, dtype=dtype)
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise ValueError(f"{path.name}: file changed while reading")
    return arr


def write_json(path: Path, obj: dict) -> Path:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    with atomic_file(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())
    return path


def read_sidecar(path: Path, fields: dict) -> dict:
    """JSON object with exactly the keys of ``fields``, each of the given type(s)."""
    with open(path, "rb") as fh:
        meta = json.loads(fh.read())
    if not isinstance(meta, dict) or set(meta) != set(fields):
        raise ValueError(f"{path.name}: expected the keys {sorted(fields)}")
    for key, types in fields.items():
        value = meta[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{path.name}: bad {key}: {value!r:.80}")
    return meta
