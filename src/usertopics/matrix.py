"""Sparse users-by-domains matrices, descriptive statistics, and workspace files.

Storage is compressed sparse row (CSR): ``indptr``/``indices``/``data``
numpy arrays plus the user and domain names. Only what the weighting,
factorization and reporting stages need is implemented: the row of each
stored entry and column counts. Matrix-block products run in scipy's
compiled CSR routines over the same three arrays (see
:mod:`usertopics._kernels`), loaded without importing ``scipy.sparse``;
this module does not import scipy at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._store import load_array, read_sidecar, save_array, write_sidecar

FEATURE_PROVENANCES = ("tfidf", "row_normalized")


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """CSR matrix over (user row, domain column) with the names of both.

    Immutable after construction; statistics and products are read-only and
    safe to share across workers.
    """

    n_users: int
    n_domains: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    users: tuple[str, ...]
    domains: tuple[str, ...]

    def __post_init__(self):
        if len(self.users) != self.n_users or len(self.domains) != self.n_domains:
            raise ValueError("user and domain names do not cover the matrix shape")
        if len(set(self.users)) != self.n_users:
            raise ValueError("duplicate user ids")
        if len(set(self.domains)) != self.n_domains:
            raise ValueError("duplicate domains")
        if self.indptr.shape != (self.n_users + 1,):
            raise ValueError("indptr length must be n_users + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_domains
        ):
            raise ValueError("column index out of range")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, in CSR order."""
        return np.repeat(np.arange(self.n_users), np.diff(self.indptr))

    def column_counts(self) -> np.ndarray:
        """Number of stored entries per column."""
        return np.bincount(self.indices, minlength=self.n_domains).astype(np.int64)

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.n_users, self.n_domains))
        dense[self.entry_rows, self.indices] = self.data
        return dense


@dataclass(frozen=True, eq=False)
class ProfileMatrix(SparseMatrix):
    """Raw activity matrix; stored entries are strictly positive, and every
    user's and every domain's total is within the float64 range."""

    def __post_init__(self):
        super().__post_init__()
        if self.data.size and not np.all(self.data > 0):
            raise ValueError("profile matrix entries must be strictly positive")
        rows = self.entry_rows
        for kind, keys, pos in (("user", self.users, rows), ("domain", self.domains, self.indices)):
            totals = np.bincount(pos, weights=self.data, minlength=len(keys))
            if not np.isfinite(totals).all():
                name = keys[int(np.argmin(np.isfinite(totals)))]
                raise ValueError(f"activity total of {kind} {name!r} is beyond the float64 range")


@dataclass(frozen=True, eq=False)
class FeatureMatrix(SparseMatrix):
    """Weighted matrix; entries may be negative, zeros are structural."""

    provenance: str = "tfidf"

    def __post_init__(self):
        super().__post_init__()
        if self.provenance not in FEATURE_PROVENANCES:
            raise ValueError(f"unknown provenance: {self.provenance!r}")


def csr_from_triplets(n_rows, n_cols, rows, cols, values):
    """Assemble CSR arrays from triplets, sorted by (row, column)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    if rows.size and np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
        raise ValueError("duplicate (row, column) triplet")
    counts = np.bincount(rows, minlength=n_rows) if rows.size else np.zeros(n_rows, dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, cols, values


# --------------------------------------------------------------------------
# descriptive statistics
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DomainStats:
    """Per-domain medians, visitor counts and totals over all users."""

    domains: tuple[str, ...]
    median: np.ndarray  # per-domain median over all users, zeros included
    n_visitors: np.ndarray  # users with positive activity on the domain
    total: np.ndarray
    n_users: int

    @property
    def nonzero_median_fraction(self) -> float:
        if len(self.domains) == 0:
            return 0.0
        return float(np.count_nonzero(self.median) / len(self.domains))


def domain_stats(m: SparseMatrix) -> DomainStats:
    """Column statistics; the median counts non-visiting users as zeros.

    Medians over even counts use the lower median, which keeps integer
    inputs integral.
    """
    n_d = m.n_domains
    medians = np.zeros(n_d)
    totals = np.zeros(n_d)
    visitors = m.column_counts()
    mid = (m.n_users - 1) // 2  # lower-median position
    col_indptr = np.concatenate(([0], np.cumsum(visitors)))
    col_data = m.data[np.argsort(m.indices, kind="stable")]
    for j in range(n_d):
        vals = col_data[col_indptr[j] : col_indptr[j + 1]]
        totals[j] = vals.sum()
        zeros = m.n_users - vals.size
        if zeros <= mid and vals.size:
            medians[j] = np.sort(vals)[mid - zeros]
    return DomainStats(domains=m.domains, median=medians, n_visitors=visitors, total=totals,
                       n_users=m.n_users)


def rank_domains(stats: DomainStats) -> list[str]:
    """Domains in descending median order; ties break by name ascending."""
    order = sorted(range(len(stats.domains)), key=lambda j: (-stats.median[j], stats.domains[j]))
    return [stats.domains[j] for j in order]


# --------------------------------------------------------------------------
# workspace files
# --------------------------------------------------------------------------
#
# A matrix under prefix P is four files: the CSR arrays P.indptr.npy,
# P.indices.npy (both <i8) and P.data.npy (<f8), and the sidecar
# P.meta.json with n_users, n_domains, nnz, provenance (null for a profile
# matrix), and the names: users and domains, JSON arrays in row and column
# order. The writer removes the old sidecar first and writes the new one
# last, so a write cut short reads as no matrix.

_CSR_ARRAYS = (("indptr", "<i8"), ("indices", "<i8"), ("data", "<f8"))
_META_FIELDS = {"n_users": int, "n_domains": int, "nnz": int, "provenance": (str, type(None)),
                "users": list, "domains": list}


def _file(prefix: Path, suffix: str) -> Path:
    return prefix.with_name(prefix.name + suffix)


def matrix_sidecar(prefix: str | Path) -> Path:
    """The file whose presence marks a complete matrix under ``prefix``."""
    return _file(Path(prefix), ".meta.json")


def write_matrix(m: SparseMatrix, prefix: str | Path) -> list[Path]:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    sidecar = matrix_sidecar(prefix)
    sidecar.unlink(missing_ok=True)
    written = [
        save_array(_file(prefix, f".{name}.npy"), getattr(m, name), dtype)
        for name, dtype in _CSR_ARRAYS
    ]
    meta = {
        "n_users": m.n_users,
        "n_domains": m.n_domains,
        "nnz": m.nnz,
        "provenance": getattr(m, "provenance", None),
        "users": m.users,
        "domains": m.domains,
    }
    written.append(write_sidecar(sidecar, meta))
    return written


def _check_sorted_rows(m: SparseMatrix) -> None:
    """Columns strictly increase within each row: sorted, no duplicate cells."""
    step_up = np.diff(m.indices) > 0
    starts = m.indptr[1:-1]
    step_up[starts[(starts > 0) & (starts < m.nnz)] - 1] = True  # a row begins
    if not step_up.all():
        raise ValueError("column indices not sorted and unique within each row")


def read_matrix(prefix: str | Path) -> SparseMatrix:
    """Load a matrix written by :func:`write_matrix`.

    Returns a FeatureMatrix when the sidecar names a provenance, otherwise a
    ProfileMatrix. Raises ValueError for files that do not hold a valid
    matrix (wrong dtype, shape or length, non-finite values, unsorted rows,
    names that are not UTF-8 strings) and OSError for missing or unreadable
    files.
    """
    prefix = Path(prefix)
    sidecar = matrix_sidecar(prefix)
    meta = read_sidecar(sidecar, _META_FIELDS)
    names = {key: tuple(meta[key]) for key in ("users", "domains")}
    for key, keys in names.items():
        try:  # a JSON "\ud800" escape reads as a lone surrogate, which UTF-8 cannot encode
            "".join(keys).encode()
        except (TypeError, UnicodeEncodeError) as exc:
            raise ValueError(f"{sidecar.name}: bad {key}: {exc}") from None
    indptr, indices, data = (
        load_array(_file(prefix, f".{name}.npy"), dtype, ndim=1) for name, dtype in _CSR_ARRAYS
    )
    if indices.size != meta["nnz"] or data.size != meta["nnz"]:
        raise ValueError(f"{prefix.name}: expected {meta['nnz']} stored entries")
    if not np.isfinite(data).all():
        raise ValueError(f"{prefix.name}: non-finite matrix entries")
    common = dict(
        n_users=meta["n_users"],
        n_domains=meta["n_domains"],
        indptr=indptr,
        indices=indices,
        data=data,
        **names,
    )
    if meta["provenance"] is not None:
        m = FeatureMatrix(provenance=meta["provenance"], **common)
    else:
        m = ProfileMatrix(**common)
    _check_sorted_rows(m)
    return m


def matrix_checksum(m: SparseMatrix) -> str:
    """sha256 over a canonical header, the little-endian CSR arrays and the names."""
    h = hashlib.sha256()
    prov = getattr(m, "provenance", "")
    h.update(f"csr\n{prov}\n{m.n_users} {m.n_domains} {m.nnz}\n".encode())
    for name, dtype in _CSR_ARRAYS:
        h.update(np.ascontiguousarray(getattr(m, name), dtype=dtype).data)
    h.update(json.dumps([m.users, m.domains]).encode())
    return h.hexdigest()
