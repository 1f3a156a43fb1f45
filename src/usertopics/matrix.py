"""Sparse users-by-domains matrices, descriptive statistics, and text IO.

Storage is compressed sparse row (CSR): ``indptr``/``indices``/``data``
numpy arrays plus user and domain index maps. Only what the weighting and
factorization stages need is implemented: row scaling and column counts.
Matrix-block products run in ``scipy.sparse`` over the same three arrays
(see :mod:`usertopics._kernels`); this module does not import scipy, so
commands that never multiply do not pay for loading it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

FEATURE_PROVENANCES = ("tfidf", "row_normalized")


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """CSR matrix over (user row, domain column) with index maps.

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
            raise ValueError("index maps do not cover the matrix shape")
        if len(set(self.users)) != self.n_users:
            raise ValueError("duplicate user ids in index map")
        if len(set(self.domains)) != self.n_domains:
            raise ValueError("duplicate domains in index map")
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

    @cached_property
    def user_pos(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    @cached_property
    def domain_pos(self) -> dict[str, int]:
        return {d: j for j, d in enumerate(self.domains)}

    @cached_property
    def _csc(self):
        """Column-major view: (col_indptr, row indices, values), stable order."""
        rows = np.repeat(np.arange(self.n_users), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.n_domains)
        col_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return col_indptr, rows[order], self.data[order]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Stored (column indices, values) of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def column_values(self, j: int) -> np.ndarray:
        """Stored values of column ``j`` (row order)."""
        col_indptr, _, col_data = self._csc
        return col_data[col_indptr[j] : col_indptr[j + 1]]

    def column_counts(self) -> np.ndarray:
        """Number of stored entries per column."""
        return np.bincount(self.indices, minlength=self.n_domains).astype(np.int64)

    def row_sums(self) -> np.ndarray:
        rows = np.repeat(np.arange(self.n_users), np.diff(self.indptr))
        return np.bincount(rows, weights=self.data, minlength=self.n_users)

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.n_users, self.n_domains))
        rows = np.repeat(np.arange(self.n_users), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


@dataclass(frozen=True, eq=False)
class ProfileMatrix(SparseMatrix):
    """Raw activity matrix; stored entries are strictly positive."""

    def __post_init__(self):
        super().__post_init__()
        if self.data.size and not np.all(self.data > 0):
            raise ValueError("profile matrix entries must be strictly positive")


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


def matrices_equal(a: SparseMatrix, b: SparseMatrix) -> bool:
    return (
        a.n_users == b.n_users
        and a.n_domains == b.n_domains
        and a.users == b.users
        and a.domains == b.domains
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
        and getattr(a, "provenance", None) == getattr(b, "provenance", None)
    )


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
    col_indptr, _, col_data = m._csc if m.nnz else (np.zeros(n_d + 1, dtype=np.int64), None, np.empty(0))
    for j in range(n_d):
        vals = col_data[col_indptr[j] : col_indptr[j + 1]]
        totals[j] = vals.sum()
        zeros = m.n_users - vals.size
        if zeros <= mid and vals.size:
            medians[j] = np.sort(vals)[mid - zeros]
    return DomainStats(
        domains=m.domains,
        median=medians,
        n_visitors=visitors,
        total=totals,
        n_users=m.n_users,
    )


def rank_domains(stats: DomainStats, by: str = "median") -> list[str]:
    """Domains in descending key order; ties break by name ascending."""
    keys = {"median": stats.median, "total": stats.total, "n_j": stats.n_visitors}
    if by not in keys:
        raise ValueError(f"unknown ranking key: {by!r}")
    key = keys[by]
    order = sorted(range(len(stats.domains)), key=lambda j: (-key[j], stats.domains[j]))
    return [stats.domains[j] for j in order]


@dataclass(frozen=True, eq=False)
class Histogram:
    """Bin counts over half-open intervals [edges[i], edges[i+1]).

    ``zeros`` counts exact-zero values in scope (they have no logarithmic
    bin); ``below``/``above`` count values outside explicit edges.
    """

    edges: np.ndarray
    counts: np.ndarray
    zeros: int = 0
    below: int = 0
    above: int = 0

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.zeros + self.below + self.above


def _log_edges(vmin: float, vmax: float) -> np.ndarray:
    lo = math.floor(math.log10(vmin))
    hi = math.ceil(math.log10(vmax))
    while 10.0**hi <= vmax:
        hi += 1
    if hi <= lo:
        hi = lo + 1
    return 10.0 ** np.arange(lo, hi + 1)


def intensity_histogram(
    m: SparseMatrix, domain: str, bins="log", include_zeros: bool = False
) -> Histogram:
    """Histogram of one domain's per-user activity.

    ``bins`` is either ``"log"`` (decade edges spanning the data) or an
    explicit increasing edge sequence. Zero activity is excluded unless
    ``include_zeros``; with log bins zeros are tallied separately.
    """
    if domain not in m.domain_pos:
        raise KeyError(f"unknown domain: {domain!r}")
    j = m.domain_pos[domain]
    values = m.column_values(j)
    zeros = int(m.n_users - values.size) if include_zeros else 0
    if values.size == 0:
        return Histogram(edges=np.empty(0), counts=np.empty(0, dtype=np.int64), zeros=zeros)
    if isinstance(bins, str):
        if bins != "log":
            raise ValueError(f"unknown bin spec: {bins!r}")
        if values.min() <= 0:
            raise ValueError("log bins need strictly positive values")
        edges = _log_edges(float(values.min()), float(values.max()))
    else:
        edges = np.asarray(bins, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be an increasing sequence")
    pos = np.searchsorted(edges, values, side="right") - 1
    in_range = (pos >= 0) & (values < edges[-1])
    counts = np.bincount(pos[in_range], minlength=edges.size - 1).astype(np.int64)
    return Histogram(
        edges=edges,
        counts=counts,
        zeros=zeros,
        below=int(np.count_nonzero(values < edges[0])),
        above=int(np.count_nonzero(values >= edges[-1])),
    )


# --------------------------------------------------------------------------
# text export / import
# --------------------------------------------------------------------------
#
# Triplet file: optional "# provenance: <tag>" comment, a "n_users n_domains
# nnz" header line, then one "i j value" line per stored entry with values
# in shortest round-trip form. Index maps are written alongside as
# two-column "index,key" CSV files (<prefix>.users.txt, <prefix>.domains.txt).


def write_matrix(m: SparseMatrix, prefix: str | Path) -> list[Path]:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    triplet_path = prefix.with_name(prefix.name + ".triplets.txt")
    with open(triplet_path, "w", newline="\n") as fh:
        prov = getattr(m, "provenance", None)
        if prov is not None:
            fh.write(f"# provenance: {prov}\n")
        fh.write(f"{m.n_users} {m.n_domains} {m.nnz}\n")
        rows = np.repeat(np.arange(m.n_users), np.diff(m.indptr))
        for i, j, v in zip(rows, m.indices, m.data):
            fh.write(f"{i} {j} {float(v)!r}\n")
    written = [triplet_path]
    for name, keys in (("users", m.users), ("domains", m.domains)):
        path = prefix.with_name(prefix.name + f".{name}.txt")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for idx, key in enumerate(keys):
                writer.writerow([idx, key])
        written.append(path)
    return written


def _read_index(path: Path, expect: int) -> tuple[str, ...]:
    keys: list[str] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if int(row[0]) != len(keys):
                raise ValueError(f"{path}: index map out of order")
            keys.append(row[1])
    if len(keys) != expect:
        raise ValueError(f"{path}: expected {expect} entries, found {len(keys)}")
    return tuple(keys)


def read_matrix(prefix: str | Path) -> SparseMatrix:
    """Load a matrix written by :func:`write_matrix`.

    Returns a FeatureMatrix when a provenance line is present, otherwise a
    ProfileMatrix.
    """
    prefix = Path(prefix)
    triplet_path = prefix.with_name(prefix.name + ".triplets.txt")
    provenance = None
    with open(triplet_path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("provenance:"):
                provenance = body.split(":", 1)[1].strip()
            line = fh.readline()
        n_users, n_domains, nnz = (int(tok) for tok in line.split())
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for idx in range(nnz):
            i, j, v = fh.readline().split()
            rows[idx], cols[idx], vals[idx] = int(i), int(j), float(v)
    indptr, indices, data = csr_from_triplets(n_users, n_domains, rows, cols, vals)
    users = _read_index(prefix.with_name(prefix.name + ".users.txt"), n_users)
    domains = _read_index(prefix.with_name(prefix.name + ".domains.txt"), n_domains)
    common = dict(
        n_users=n_users,
        n_domains=n_domains,
        indptr=indptr,
        indices=indices,
        data=data,
        users=users,
        domains=domains,
    )
    if provenance is not None:
        return FeatureMatrix(provenance=provenance, **common)
    return ProfileMatrix(**common)


def matrix_checksum(m: SparseMatrix) -> str:
    """sha256 over the canonical serialized form, index maps included."""
    h = hashlib.sha256()
    prov = getattr(m, "provenance", "")
    h.update(f"{prov}\n{m.n_users} {m.n_domains} {m.nnz}\n".encode())
    rows = np.repeat(np.arange(m.n_users), np.diff(m.indptr))
    for i, j, v in zip(rows, m.indices, m.data):
        h.update(f"{i} {j} {float(v)!r}\n".encode())
    h.update("\x00".join(m.users).encode())
    h.update(b"\x01")
    h.update("\x00".join(m.domains).encode())
    return h.hexdigest()
