"""Hot numeric kernels of the weighting, factorization and clustering stages.

Each kernel has one implementation. The sparse-times-dense products run in
``scipy.sparse``; the others are vectorized numpy. ``scipy.sparse`` is
imported inside the product functions, not at module level: only the
randomized SVD calls them, and the import costs a few tenths of a second
that every other command would otherwise pay at start-up.

Determinism: every floating-point reduction runs in a fixed serial order,
so results do not depend on the BLAS thread count. The sparse products
accumulate each output row over the stored entries in CSR order, which is
the order the reference loop ``out[i] += data[p] * dense[indices[p]]`` over
``p`` uses; seeded runs reproduce bit for bit.

Sparse arguments are raw CSR arrays (``indptr``/``indices`` int64,
``data`` float64); dense arguments must be C-contiguous float64.
"""

from __future__ import annotations

import numpy as np

# recorded in every manifest: the sparse products run in scipy.sparse
BACKEND = "scipy"


def _csr(indptr, indices, data, n_cols):
    from scipy.sparse import csr_array

    return csr_array((data, indices, indptr), shape=(indptr.size - 1, n_cols))


def tf_values(indptr, data, log_scale):
    """1 + log(value / row_sum) * log_scale for every stored entry."""
    n_rows = indptr.size - 1
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    sums = np.bincount(rows, weights=data, minlength=n_rows)
    return 1.0 + np.log(data / sums[rows]) * log_scale


def share_values(indptr, data):
    """value / row_sum for every stored entry."""
    n_rows = indptr.size - 1
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    sums = np.bincount(rows, weights=data, minlength=n_rows)
    return data / sums[rows]


def csr_matmat(indptr, indices, data, dense):
    """CSR @ dense block."""
    return _csr(indptr, indices, data, dense.shape[0]) @ dense


def csr_tmatmat(indptr, indices, data, n_cols, dense):
    """CSR.T @ dense block."""
    return _csr(indptr, indices, data, n_cols).T @ dense


def kmeans_assign(points, centroids):
    """Nearest centroid per point (ties to the lowest index).

    Returns (labels int64, squared distance to the assigned centroid).
    """
    n = points.shape[0]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for j in range(centroids.shape[0]):
        diff = points - centroids[j]
        d = np.einsum("ij,ij->i", diff, diff)
        closer = d < best
        best[closer] = d[closer]
        labels[closer] = j
    return labels, best


def kmeans_update(points, labels, k):
    """Per-cluster coordinate sums and member counts.

    Each sum adds the cluster's points in index order, as the loop
    ``sums[labels[i]] += points[i]`` does: a stable sort on the label makes
    every cluster one block of rows, and ``sum(axis=0)`` adds a block row
    after row. A single column would be summed pairwise instead, so it
    takes a running sum.
    """
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    sums = np.zeros((k, points.shape[1]))
    grouped = points[np.argsort(labels, kind="stable")]
    ends = np.cumsum(counts)
    for j in np.flatnonzero(counts):
        block = grouped[ends[j] - counts[j] : ends[j]]
        sums[j] = np.cumsum(block)[-1] if points.shape[1] == 1 else block.sum(axis=0)
    return sums, counts


def dsq_update(points, centroid, dsq):
    """In place: dsq[i] = min(dsq[i], ||points[i] - centroid||^2)."""
    diff = points - centroid
    d = np.einsum("ij,ij->i", diff, diff)
    np.minimum(dsq, d, out=dsq)
