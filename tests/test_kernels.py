import subprocess
import sys

import numpy as np

from usertopics import _kernels
from usertopics.matrix import SparseMatrix


def random_csr(rng, n_rows=30, n_cols=20, nnz_per_row=6):
    cols = np.sort(
        np.array(
            [rng.choice(n_cols, size=nnz_per_row, replace=False) for _ in range(n_rows)]
        ),
        axis=1,
    ).ravel().astype(np.int64)
    data = rng.uniform(1.0, 1e5, size=cols.size)
    indptr = np.arange(0, cols.size + 1, nnz_per_row, dtype=np.int64)
    return indptr, cols, data


def sparse_cases(rng):
    """(indptr, indices, data, n_cols) with gaps: empty rows, empty columns, nnz=0."""
    dense = rng.standard_normal((30, 20))
    dense[rng.random(dense.shape) < 0.7] = 0.0
    dense[[0, 11, 29]] = 0.0  # empty rows, first and last included
    dense[:, [0, 7, 19]] = 0.0  # empty columns, first and last included
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=30))))
    yield indptr.astype(np.int64), cols.astype(np.int64), dense[rows, cols], 20
    yield np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 3


def toarray(indptr, indices, data, n_cols):
    n_rows = indptr.size - 1
    return SparseMatrix(
        n_users=n_rows,
        n_domains=n_cols,
        indptr=indptr,
        indices=indices,
        data=data,
        users=tuple(f"u{i}" for i in range(n_rows)),
        domains=tuple(f"d{j}" for j in range(n_cols)),
    ).toarray()


def loop_matmat(indptr, indices, data, dense):
    """Reference: out[i] += data[p] * dense[indices[p]] over p in CSR order."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    out = np.zeros((indptr.size - 1, dense.shape[1]))
    np.add.at(out, rows, data[:, None] * dense[indices])
    return out


def loop_tmatmat(indptr, indices, data, n_cols, dense):
    """Reference: out[indices[p]] += data[p] * dense[i] over p in CSR order."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    out = np.zeros((n_cols, dense.shape[1]))
    np.add.at(out, indices, data[:, None] * dense[rows])
    return out


class TestSparseProducts:
    def test_csr_matmat_matches_dense(self, rng):
        for indptr, indices, data, n_cols in sparse_cases(rng):
            block = np.ascontiguousarray(rng.standard_normal((n_cols, 7)))
            out = _kernels.csr_matmat(indptr, indices, data, block)
            expect = toarray(indptr, indices, data, n_cols) @ block
            assert out.shape == expect.shape
            assert np.allclose(out, expect, rtol=1e-12, atol=1e-12)

    def test_csr_tmatmat_matches_dense(self, rng):
        for indptr, indices, data, n_cols in sparse_cases(rng):
            tall = np.ascontiguousarray(rng.standard_normal((indptr.size - 1, 5)))
            out = _kernels.csr_tmatmat(indptr, indices, data, n_cols, tall)
            expect = toarray(indptr, indices, data, n_cols).T @ tall
            assert out.shape == expect.shape
            assert np.allclose(out, expect, rtol=1e-12, atol=1e-12)

    def test_products_bit_identical_to_csr_order_loop(self, rng):
        indptr, indices, data = random_csr(rng)
        block = np.ascontiguousarray(rng.standard_normal((20, 7)))
        tall = np.ascontiguousarray(rng.standard_normal((30, 5)))
        assert np.array_equal(
            _kernels.csr_matmat(indptr, indices, data, block),
            loop_matmat(indptr, indices, data, block),
        )
        assert np.array_equal(
            _kernels.csr_tmatmat(indptr, indices, data, 20, tall),
            loop_tmatmat(indptr, indices, data, 20, tall),
        )

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, usertopics.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


def loop_update(points, labels, k):
    """Reference: add each point to its cluster's sum, in index order."""
    sums = np.zeros((k, points.shape[1]))
    for i in range(points.shape[0]):
        sums[labels[i]] += points[i]
    return sums, np.bincount(labels, minlength=k)


class TestKmeansKernels:
    def test_kmeans_assign_tie_lowest_index(self):
        pts = np.array([[0.0]])
        cents = np.array([[1.0], [-1.0]])  # equidistant
        labels, dist = _kernels.kmeans_assign(pts, cents)
        assert labels[0] == 0 and dist[0] == 1.0

    def test_kmeans_update_bit_identical_to_loop(self, rng):
        # magnitudes spread over 16 decades, so any change of summation order shows
        for n, d, k in [(800, 80, 8), (300, 1, 3), (500, 2, 4), (40, 7, 13), (3, 5, 8), (0, 4, 2)]:
            points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, size=(n, d))
            labels = rng.integers(0, max(1, k // 2), size=n)  # clusters k//2.. stay empty
            sums, counts = _kernels.kmeans_update(points, labels, k)
            want_sums, want_counts = loop_update(points, labels, k)
            assert sums.shape == (k, d) and counts.dtype == np.int64
            assert np.array_equal(sums, want_sums), (n, d, k)
            assert np.array_equal(counts, want_counts)


class TestBackendSelection:
    def test_backend_exposed(self):
        assert _kernels.BACKEND == "scipy"

    def test_empty_matrix_kernels(self):
        indptr = np.zeros(1, dtype=np.int64)
        data = np.empty(0)
        assert _kernels.tf_values(indptr, data, 1.0).size == 0
        assert _kernels.share_values(indptr, data).size == 0
