import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import STAGE_MODULES, loaded_modules
from oracles import nearest_centroid_loop
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


def wide_cases(rng):
    """(indptr, indices, data, n_cols, width): the wide-rank shape (1200 x 1000,
    3 % dense) with empty first, middle and last rows and columns and values
    from 1e-5 to 1e5, at widths 210 and 1; then nnz = 0."""
    dense = rng.random((1200, 1000)) < 0.03
    dense[[0, 600, 1199]] = False
    dense[:, [0, 500, 999]] = False
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=1200))))
    data = 10.0 ** rng.uniform(-5.0, 5.0, size=rows.size)
    for width in (210, 1):
        yield indptr.astype(np.int64), cols.astype(np.int64), data, 1000, width
    yield np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 3, 2


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

    def test_products_bit_identical_to_scipy_sparse(self, rng):
        from scipy.sparse import csr_array

        for indptr, indices, data, n_cols, width in wide_cases(rng):
            a = csr_array((data, indices, indptr), shape=(indptr.size - 1, n_cols))
            block = rng.standard_normal((n_cols, width))
            tall = rng.standard_normal((indptr.size - 1, width))
            out = _kernels.csr_matmat(indptr, indices, data, block)
            assert out.shape == (a @ block).shape
            assert out.tobytes() == (a @ block).tobytes()
            out = _kernels.csr_tmatmat(indptr, indices, data, n_cols, tall)
            assert out.shape == (a.T @ tall).shape
            assert out.tobytes() == (a.T @ tall).tobytes()

    def test_products_into_out_block(self, rng):
        indptr, indices, data = random_csr(rng)  # 30 x 20
        block, tall = rng.standard_normal((20, 7)), rng.standard_normal((30, 7))
        for product, args, shape in (
            (_kernels.csr_matmat, (indptr, indices, data, block), (30, 7)),
            (_kernels.csr_tmatmat, (indptr, indices, data, 20, tall), (20, 7)),
        ):
            out = np.full(shape, np.nan)  # overwritten, not added to
            assert product(*args, out=out) is out
            assert out.tobytes() == product(*args).tobytes()
            for bad in (
                np.zeros((shape[0] + 1, shape[1])),
                np.zeros(shape, dtype=np.float32),
                np.zeros(shape[::-1]).T,
            ):
                with pytest.raises(ValueError, match="C-contiguous float64"):
                    product(*args, out=bad)
        square = np.eye(3)
        with pytest.raises(ValueError, match="overlaps"):
            _kernels.csr_matmat(np.arange(4), np.arange(3), np.ones(3), square, out=square)

    def test_products_refuse_out_of_bounds_sizes(self, rng):
        indptr, indices, data = random_csr(rng)  # 30 x 20, 6 entries a row
        indices[0] = 19
        block, tall = np.ones((20, 2)), np.ones((30, 2))
        bad_indptr = indptr.copy()
        bad_indptr[1] = 13  # a row of 13 entries, then one of -1
        for args in (
            (indptr, indices, data, block[:19]),  # a column index past the block
            (indptr, indices, data[:-1], block),
            (indptr, indices[:-1], data[:-1], block),
            (bad_indptr, indices, data, block),
        ):
            with pytest.raises(ValueError, match="do not form"):
                _kernels.csr_matmat(*args)
        for args in (
            (indptr, indices, data, 20, tall[:29]),
            (indptr, indices, data, 19, tall),
            (indptr, -indices, data, 20, tall),
            (bad_indptr, indices, data, 20, tall),
        ):
            with pytest.raises(ValueError, match="do not form"):
                _kernels.csr_tmatmat(*args)

    def test_kernel_leaves_scipy_sparse_importable(self):
        # the kernel loads scipy's extension file on its own; a later import
        # of scipy.sparse in the same process must still see it as a submodule
        loaded = loaded_modules(
            "import numpy as np\n"
            "from usertopics import _kernels\n"
            "indptr, indices = np.array([0, 2, 3]), np.array([0, 2, 1])\n"
            "data = np.array([1.5, -2.0, 4.0])\n"
            "block = np.arange(6.0).reshape(3, 2)\n"
            "out = _kernels.csr_matmat(indptr, indices, data, block)\n"
            "assert 'scipy' not in sys.modules\n"
            "import scipy.sparse\n"
            "assert callable(scipy.sparse._sparsetools.csr_matvecs)\n"
            "a = scipy.sparse.csr_array((data, indices, indptr), shape=(2, 3))\n"
            "assert (a @ block).tobytes() == out.tobytes()\n"
        )
        assert "scipy.sparse._sparsetools" in loaded

    def test_cli_import_leaves_scipy_unloaded(self):
        loaded = loaded_modules("import usertopics.cli")
        assert "usertopics.cli" in loaded
        assert not {"scipy", *(f"usertopics.{name}" for name in STAGE_MODULES)} & loaded


def loop_update(points, labels, k):
    """Reference: add each point to its cluster's sum, in index order."""
    sums = np.zeros((k, points.shape[1]))
    for i in range(points.shape[0]):
        sums[labels[i]] += points[i]
    return sums, np.bincount(labels, minlength=k)


@st.composite
def assign_cases(draw):
    """(points, centroids) rich in ties: grid coordinates, duplicated
    centroids, points on bisectors, then a common scale and offset."""
    n, dim, k = draw(st.integers(0, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    coord = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0))
    cents = np.array(draw(st.lists(coord, min_size=k * dim, max_size=k * dim)), dtype=float)
    cents = cents.reshape(k, dim)
    if k > 1 and draw(st.booleans()):
        cents[draw(st.integers(1, k - 1))] = cents[0]
    pts = np.array(draw(st.lists(coord, min_size=n * dim, max_size=n * dim)), dtype=float)
    pts = pts.reshape(n, dim)
    for i in range(n):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            pts[i] = (cents[a] + cents[b]) / 2.0  # on the bisector of a and b
    # 1e8: cancellation in ||x||^2 - 2x.c; 1e-150: products near underflow;
    # 1e154: squares overflow for coordinates of 2 and more
    scale = draw(st.sampled_from([1.0, 1e-150, 1e154]))
    offset = draw(st.sampled_from([0.0, 1e8]))
    return pts * scale + offset, cents * scale + offset


class TestKmeansKernels:
    def test_kmeans_assign_tie_lowest_index(self):
        pts = np.array([[0.0]])
        cents = np.array([[1.0], [-1.0]])  # equidistant
        labels, dist = _kernels.kmeans_assign(pts, cents)
        assert labels[0] == 0 and dist[0] == 1.0

    @settings(max_examples=300)
    @given(assign_cases())
    def test_kmeans_assign_matches_loop(self, case):
        pts, cents = case
        labels, sq = _kernels.kmeans_assign(pts, cents)
        want_labels, want_sq = nearest_centroid_loop(pts, cents)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(sq, want_sq)

    @pytest.mark.parametrize(
        "n, dim, k", [(50, 1, 4), (50, 3, 1), (3, 2, 7), (0, 3, 2), (0, 1, 1), (300, 80, 8)]
    )
    def test_kmeans_assign_shapes(self, rng, n, dim, k):
        pts = rng.standard_normal((n, dim))
        cents = rng.standard_normal((k, dim))
        labels, sq = _kernels.kmeans_assign(pts, cents)
        want_labels, want_sq = nearest_centroid_loop(pts, cents)
        assert labels.shape == sq.shape == (n,)
        assert np.array_equal(labels, want_labels) and np.array_equal(sq, want_sq)

    def test_kmeans_assign_rechecks_near_tie(self, monkeypatch):
        # ||c||^2 - 2x.c rounds both candidates to the same value at this
        # offset, so the GEMM argmin alone would pick 0; centroid 1 is nearer
        pts = np.array([[0.0], [1e8 + 0.75], [1e8 + 1000.0]])
        cents = np.array([[1e8], [1e8 + 1.0]])
        gemm = cents @ pts.T * -2.0 + np.einsum("ij,ij->i", cents, cents)[:, None]
        assert np.argmin(gemm, axis=0)[1] == 0
        rechecked = []
        exact = _kernels._exact_nearest

        def spy(points, centroids):
            rechecked.append(points.copy())
            return exact(points, centroids)

        monkeypatch.setattr(_kernels, "_exact_nearest", spy)
        labels, sq = _kernels.kmeans_assign(pts, cents)
        assert len(rechecked) == 1 and np.array_equal(rechecked[0], pts[1:2])
        assert labels.tolist() == [0, 1, 1]
        assert sq[1] == 0.0625
        rechecked.clear()
        _kernels.kmeans_assign(np.array([[0.2], [3.0]]), np.array([[0.0], [4.0]]))
        assert rechecked == []

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


class TestOneBlasThread:
    @pytest.fixture()
    def openblas(self):
        functions = _kernels._openblas_threads()
        if functions is None:
            pytest.skip("numpy's OpenBLAS not found")
        get, set_ = functions
        previous = get()
        set_(2)
        yield get
        set_(previous)

    def test_pins_one_thread_and_restores_on_exit(self, openblas):
        with _kernels.one_blas_thread():
            assert openblas() == 1
        assert openblas() == 2
        assert _kernels.svd_blas_threads() == 1

    def test_restores_on_exception(self, openblas):
        with pytest.raises(KeyError):
            with _kernels.one_blas_thread():
                assert openblas() == 1
                raise KeyError("x")
        assert openblas() == 2

    def test_no_op_where_lookup_finds_nothing(self, openblas, monkeypatch):
        monkeypatch.setattr(_kernels, "_openblas_threads", lambda: None)
        with _kernels.one_blas_thread():
            assert openblas() == 2
        assert openblas() == 2
        assert _kernels.svd_blas_threads() is None

    def test_lookup_without_openblas_finds_nothing(self, tmp_path, monkeypatch):
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libopenblas-stub.so").write_bytes(b"not a library")
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert _kernels._openblas_threads.__wrapped__() is None


class TestBackendSelection:
    def test_backend_exposed(self):
        assert _kernels.BACKEND == "scipy"

    def test_empty_matrix_kernels(self):
        indptr = np.zeros(1, dtype=np.int64)
        data = np.empty(0)
        assert _kernels.tf_values(indptr, data).size == 0
        assert _kernels.share_values(indptr, data).size == 0
