"""Natural-log TF-IDF weighting and the row-normalized baseline.

The TF weight of user i on domain j is ``1 + ln(B_ij / sum_j B_ij)`` and
the IDF weight of domain j is ``ln(N_u / n_j)`` with ``n_j`` the number of
users who visited the domain.

TF weights go negative whenever a domain holds less than exp(-1) of a
user's activity. They are kept exactly as computed: clamping would silently
change the geometry the factorization stage sees. Use
:func:`negative_fraction` to quantify how much of a matrix is negative.
"""

from __future__ import annotations

import logging
from dataclasses import replace

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
    # an empty row owns no entries, so every stored entry stays
    indptr = np.concatenate(([0], np.cumsum(row_nnz[keep]))).astype(np.int64)
    return replace(m, n_users=len(kept_users), indptr=indptr, users=kept_users), dropped


def _feature(m: SparseMatrix, values: np.ndarray, provenance: str) -> FeatureMatrix:
    """``values`` on the support of ``m``, keeping only the nonzero ones."""
    kept = values != 0.0
    counts = np.bincount(m.entry_rows[kept], minlength=m.n_users)
    return FeatureMatrix(
        n_users=m.n_users,
        n_domains=m.n_domains,
        indptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        indices=m.indices[kept],
        data=values[kept],
        users=m.users,
        domains=m.domains,
        provenance=provenance,
    )


def idf(m: ProfileMatrix) -> np.ndarray:
    """Per-domain inverse-document-frequency vector ln(N_u / n_j).

    ``N_u`` is ``m.n_users``. No smoothing is applied; matrix construction
    guarantees n_j >= 1.
    """
    n_j = m.column_counts()
    if m.n_domains and n_j.min() == 0:
        raise ValueError("matrix has a domain no user visited")
    return np.log(m.n_users / n_j)


def tfidf(m: ProfileMatrix) -> FeatureMatrix:
    """Elementwise TF * IDF on the support of ``m``.

    Zero-activity rows are dropped (with a warning) first. Domains visited
    by every user get IDF 0, so their entries vanish from the result (zeros
    are structural, never stored). Raises ValueError naming the first user
    with a TF weight that is not finite: a share of the row total that
    underflows to 0 has no logarithm.
    """
    m, _ = drop_zero_rows(m)
    with np.errstate(divide="ignore"):
        tf_vals = _kernels.tf_values(m.indptr, m.data)
    finite = np.isfinite(tf_vals)
    if not finite.all():
        row = m.entry_rows[np.argmin(finite)]
        raise ValueError(f"TF weight of user {m.users[row]!r} is not finite")
    return _feature(m, tf_vals * idf(m)[m.indices], "tfidf")


def row_normalize(m: ProfileMatrix) -> FeatureMatrix:
    """Plain row shares B_ij / sum_j B_ij; rows sum to one.

    A share that underflows to 0 is not stored.
    """
    m, _ = drop_zero_rows(m)
    return _feature(m, _kernels.share_values(m.indptr, m.data), "row_normalized")


def negative_fraction(m: SparseMatrix) -> float:
    """Fraction of stored entries that are negative (diagnostic)."""
    if m.nnz == 0:
        return 0.0
    return float(np.count_nonzero(m.data < 0) / m.nnz)
