"""Workspace file primitives: atomic writes, checked ``.npy`` arrays, JSON
files, text tables and the workspace lock.

Arrays are plain ``.npy`` files (format 1.0, C order, an explicit
little-endian dtype) written by ``np.save`` without pickling. They are read
back by matching the header against the one expected for the dtype and
rank and checking the data length against the file size before any data
is read, so a mangled header cannot ask for more memory than the file
holds, and nothing is evaluated or unpickled.

Text tables (assignments, centroids, reports, logs) go through
:func:`write_rows`: UTF-8 whatever the locale, LF line ends, CSV quoting by
:func:`quote`, and an optional header of ``# `` comment lines.

Every file is written under a temporary name in its target directory and
moved into place with ``os.replace``: a write cut short leaves the old file
or the new one, never a partial file under the final name. The workspace
lock is the exception: it is created in place with ``O_EXCL``, so that of
two runs only one creates it, and a lock found empty may be one that its
run has not written yet.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import os
import re
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

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


def quote(text: str, delimiter: str = ",") -> str:
    """``text`` as a CSV field: in quotes, its quotes doubled, if it holds the
    delimiter, a quote, CR or LF. csv.writer leaves a lone CR unquoted, and
    csv.reader then ends the record there."""
    if delimiter in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _field(value, delimiter: str) -> str:
    """A value as csv.writer writes it: None empty, a float by its repr, else str()."""
    text = "" if value is None else float.__repr__(value) if isinstance(value, float) else str(value)
    return quote(text, delimiter)


def write_rows(path: str | Path, rows, comments=(), delimiter: str = ",") -> Path:
    """One ``# `` line per comment, then ``rows`` as CSV; UTF-8 with LF line ends.

    A row of one empty field is written ``""``, as csv.writer does, so that
    it does not read as a blank line.
    """
    path = Path(path)
    with atomic_file(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        for row in rows:
            fields = [_field(value, delimiter) for value in row]
            fh.write((delimiter.join(fields) or '""' * len(fields)) + "\n")
    return path


def write_sidecar(path: Path, obj: dict) -> Path:
    """``obj`` as compact JSON with sorted keys and a final newline."""
    with atomic_file(path) as fh:
        fh.write((json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode())
    return path


def read_sidecar(path: Path, fields: dict) -> dict:
    """JSON object with exactly the keys of ``fields``, each of the given type(s)."""
    with open(path, "rb") as fh:
        try:
            meta = json.loads(fh.read())
        except RecursionError:
            raise ValueError(f"{path.name}: JSON nested too deep") from None
    if not isinstance(meta, dict) or set(meta) != set(fields):
        raise ValueError(f"{path.name}: expected the keys {sorted(fields)}")
    for key, types in fields.items():
        value = meta[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{path.name}: bad {key}: {value!r:.80}")
    return meta


class WorkspaceLocked(Exception):
    """Another run holds the workspace, or its lock cannot be shown to be stale."""


@contextlib.contextmanager
def workspace_lock(directory: Path):
    """Hold ``directory/.lock``, which names this run as ``PID hostname``.

    A lock whose process is dead on this host is taken over with a
    warning. A lock of a live process or of another host, or one that is
    empty or unreadable, raises WorkspaceLocked.
    """
    directory.mkdir(parents=True, exist_ok=True)
    lock = directory / ".lock"
    try:
        _create_lock(lock)
    except FileExistsError:
        _take_over(lock)
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)


def _create_lock(lock: Path) -> None:
    fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    try:
        os.write(fd, f"{os.getpid()} {os.uname().nodename}\n".encode())
    finally:
        os.close(fd)


def _dead_owner(text: bytes) -> str | None:
    """The PID a lock names if that process is dead on this host, else None."""
    owner = re.fullmatch(rb"([1-9][0-9]*) (.+)\n", text)
    if owner is None or owner[2] != os.uname().nodename.encode():
        return None
    try:
        os.kill(int(owner[1]), 0)
    except ProcessLookupError:
        return owner[1].decode()
    except (OSError, OverflowError):  # a process of another user, or no valid PID
        pass
    return None


def _take_over(lock: Path) -> None:
    locked = WorkspaceLocked(
        f"workspace {lock.parent} is locked by another run (remove {lock} if stale)"
    )
    try:
        text = lock.read_bytes()
    except OSError:
        raise locked from None
    pid = _dead_owner(text)
    if pid is None:
        raise locked
    # of two runs taking over one stale lock, only one moves that lock aside
    aside = lock.with_name(f"{lock.name}.{os.getpid()}")
    try:
        os.rename(lock, aside)
    except OSError:
        raise locked from None
    if aside.read_bytes() != text:  # the new lock of a run that took over first
        os.rename(aside, lock)
        raise locked
    aside.unlink()
    log.warning("taking over %s from process %s, which is no longer running", lock, pid)
    try:
        _create_lock(lock)
    except FileExistsError:
        raise locked from None
