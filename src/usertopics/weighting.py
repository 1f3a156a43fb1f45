"""Log TF-IDF weighting and the row-normalized baseline.

The TF weight of user i on domain j is ``1 + log(B_ij / sum_j B_ij)`` and
the IDF weight of domain j is ``log(N_u / n_j)`` with ``n_j`` the number of
users who visited the domain. Logs are natural by default; pass ``base=10``
for sensitivity studies (the base rescales IDF uniformly but TF
non-uniformly because of the leading 1).

TF weights go negative whenever a domain holds less than exp(-1) of a
user's activity. They are kept exactly as computed: clamping would silently
change the geometry the factorization stage sees. Use
:func:`negative_fraction` to quantify how much of a matrix is negative.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import _kernels
from .matrix import FeatureMatrix, ProfileMatrix, SparseMatrix

log = logging.getLogger(__name__)


def drop_zero_rows(m: ProfileMatrix) -> tuple[ProfileMatrix, tuple[str, ...]]:
    """Remove users with no stored activity; they have no place in TF space.

    Returns the filtered matrix and the dropped user ids. A warning is
    logged when anything is dropped.
    """
    row_nnz = np.diff(m.indptr)
    keep = row_nnz > 0
    if bool(keep.all()):
        return m, ()
    dropped = tuple(u for u, k in zip(m.users, keep) if not k)
    log.warning(
        "dropping %d zero-activity user(s) before weighting: %s",
        len(dropped),
        ", ".join(dropped[:5]) + ("..." if len(dropped) > 5 else ""),
    )
    kept_users = tuple(u for u, k in zip(m.users, keep) if k)
    indptr = np.concatenate(([0], np.cumsum(row_nnz[keep]))).astype(np.int64)
    rows = np.repeat(keep, row_nnz)
    filtered = ProfileMatrix(
        n_users=len(kept_users),
        n_domains=m.n_domains,
        indptr=indptr,
        indices=m.indices[rows],
        data=m.data[rows],
        users=kept_users,
        domains=m.domains,
    )
    return filtered, dropped


def _mask_entries(m: SparseMatrix, values: np.ndarray, mask: np.ndarray):
    """CSR arrays keeping only masked entries of ``m`` with new ``values``."""
    rows = np.repeat(np.arange(m.n_users), np.diff(m.indptr))
    kept_rows = rows[mask]
    counts = np.bincount(kept_rows, minlength=m.n_users)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, m.indices[mask], values[mask]


def tf(m: ProfileMatrix, base: float = math.e) -> SparseMatrix:
    """Logarithmic term-frequency weights on the support of ``m``.

    Zero-activity rows are dropped (with a warning) before weighting.
    """
    m, _ = drop_zero_rows(m)
    log_scale = 1.0 / math.log(base)
    values = _kernels.tf_values(m.indptr, m.data, log_scale)
    indptr, indices, data = _mask_entries(m, values, values != 0.0)
    return SparseMatrix(
        n_users=m.n_users,
        n_domains=m.n_domains,
        indptr=indptr,
        indices=indices,
        data=data,
        users=m.users,
        domains=m.domains,
    )


def idf(m: ProfileMatrix, base: float = math.e) -> np.ndarray:
    """Per-domain inverse-document-frequency vector log(N_u / n_j).

    No smoothing is applied; matrix construction guarantees n_j >= 1.
    """
    n_j = m.column_counts()
    if m.n_domains and n_j.min() == 0:
        raise ValueError("matrix has a domain no user visited")
    return np.log(m.n_users / n_j) / math.log(base)


def tfidf(m: ProfileMatrix, base: float = math.e) -> FeatureMatrix:
    """Elementwise TF * IDF on the support of ``m``.

    Domains visited by every user get IDF 0, so their entries vanish from
    the result (zeros are structural, never stored). Raises ValueError
    naming the first user with a TF weight that is not finite: a share of
    the row total that underflows to 0 has no logarithm.
    """
    m, _ = drop_zero_rows(m)
    log_scale = 1.0 / math.log(base)
    with np.errstate(divide="ignore"):
        tf_vals = _kernels.tf_values(m.indptr, m.data, log_scale)
    finite = np.isfinite(tf_vals)
    if not finite.all():
        row = int(np.searchsorted(m.indptr, np.argmin(finite), side="right")) - 1
        raise ValueError(f"TF weight of user {m.users[row]!r} is not finite")
    idf_vec = idf(m, base=base)
    values = tf_vals * idf_vec[m.indices]
    indptr, indices, data = _mask_entries(m, values, values != 0.0)
    return FeatureMatrix(
        n_users=m.n_users,
        n_domains=m.n_domains,
        indptr=indptr,
        indices=indices,
        data=data,
        users=m.users,
        domains=m.domains,
        provenance="tfidf",
    )


def row_normalize(m: ProfileMatrix) -> FeatureMatrix:
    """Plain row shares B_ij / sum_j B_ij; rows sum to one."""
    m, _ = drop_zero_rows(m)
    values = _kernels.share_values(m.indptr, m.data)
    return FeatureMatrix(
        n_users=m.n_users,
        n_domains=m.n_domains,
        indptr=m.indptr.copy(),
        indices=m.indices.copy(),
        data=values,
        users=m.users,
        domains=m.domains,
        provenance="row_normalized",
    )


def negative_fraction(m: SparseMatrix) -> float:
    """Fraction of stored entries that are negative (diagnostic)."""
    if m.nnz == 0:
        return 0.0
    return float(np.count_nonzero(m.data < 0) / m.nnz)
