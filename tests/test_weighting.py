import logging

import numpy as np
from hypothesis import given, strategies as st

from usertopics import _kernels
from usertopics.matrix import ProfileMatrix
from usertopics.weighting import (
    drop_zero_rows,
    idf,
    negative_fraction,
    row_normalize,
    tfidf,
)

from helpers import matrix_from_dense, random_dense_positive
from oracles import tfidf_oracle

# frozen expected values, recomputed with an arbitrary-precision oracle
TF_075 = 0.7123179275482191  # 1 + ln(0.75)
TF_025 = -0.3862943611198906  # 1 + ln(0.25)
TF_050 = 0.3068528194400547  # 1 + ln(0.5)
LN4 = 1.3862943611198906
LN8 = 2.0794415416798357


def tf_row(row):
    """TF weights of a one-user profile with every entry of ``row`` positive."""
    m = matrix_from_dense([row])
    return _kernels.tf_values(m.indptr, m.data)


class TestTf:
    def test_single_domain_row(self):
        assert tf_row([400]).tolist() == [1.0]

    def test_two_domain_row(self):
        assert np.allclose(tf_row([300, 100]), [TF_075, TF_025], atol=1e-12, rtol=0)

    def test_three_domain_row(self):
        assert np.allclose(tf_row([100, 100, 200]), [TF_025, TF_025, TF_050], atol=1e-12, rtol=0)

    @given(
        st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=1000),
    )
    def test_scale_invariance(self, row, c):
        scaled = tf_row([c * v for v in row])
        assert np.allclose(tf_row(row), scaled, atol=1e-12, rtol=0)


class TestIdf:
    def test_universal_domain_zero(self):
        m = matrix_from_dense(np.ones((8, 1)))
        assert idf(m)[0] == 0.0

    def test_quarter_visited(self):
        dense = np.zeros((8, 1)); dense[:2, 0] = 1
        assert abs(idf(matrix_from_dense(dense))[0] - LN4) <= 1e-12

    def test_single_visitor(self):
        dense = np.zeros((8, 1)); dense[0, 0] = 1
        assert abs(idf(matrix_from_dense(dense))[0] - LN8) <= 1e-12

    def test_monotone_in_visitors(self, rng):
        m = matrix_from_dense(random_dense_positive(rng))
        vec = idf(m)
        n_j = m.column_counts()
        order = np.argsort(n_j)
        assert np.all(np.diff(vec[order]) <= 1e-15)
        assert np.all((vec == 0) == (n_j == m.n_users))

    def test_zero_activity_users_count_in_n_u(self):
        m = matrix_from_dense([[0, 0], [1, 0], [1, 2], [0, 0]])
        assert idf(m).tolist() == [np.log(4 / 2), np.log(4 / 1)]


class TestTfidf:
    def test_degenerate_corpus(self):
        f = tfidf(matrix_from_dense([[400]]))
        assert f.toarray()[0, 0] == 0.0
        assert f.nnz == 0  # exact zeros are structural

    def test_single_row_with_shared_domain(self):
        dense = np.zeros((8, 2), dtype=int)
        dense[0] = [400, 0]
        dense[1] = [100, 1]
        for i in range(2, 8):
            dense[i] = [0, 1]
        f = tfidf(matrix_from_dense(dense))
        # user 0 has the whole row on domain 0 (TF=1), visited by 2 of 8 users
        assert abs(f.toarray()[0, 0] - LN4) <= 1e-12

    def test_support_preserved(self, rng):
        dense = random_dense_positive(rng)
        f = tfidf(matrix_from_dense(dense))
        assert np.all(dense[f.toarray() != 0] > 0)

    def test_support_equality_without_universal_domain(self, rng):
        dense = random_dense_positive(rng)
        dense[0, 0] = 0  # make sure domain 0 is not universal
        while not dense[0].any():
            dense[0, 1:] = rng.integers(1, 10, size=dense.shape[1] - 1)
        m = matrix_from_dense(dense)
        if np.all(np.count_nonzero(dense, axis=0) < dense.shape[0]):
            assert tfidf(m).nnz == m.nnz

    def test_universal_domain_weighted_away(self):
        dense = np.array([[5, 1, 0], [5, 0, 2], [5, 3, 0]])
        f = tfidf(matrix_from_dense(dense))
        assert np.all(f.toarray()[:, 0] == 0.0)

    def test_matches_high_precision_oracle(self, rng):
        dense = random_dense_positive(rng)
        f = tfidf(matrix_from_dense(dense)).toarray()
        for (i, j), val in tfidf_oracle(dense.tolist()).items():
            assert abs(f[i, j] - float(val)) <= 1e-12

    def test_index_maps_preserved(self, rng):
        m = matrix_from_dense(random_dense_positive(rng))
        f = tfidf(m)
        assert f.users == m.users and f.domains == m.domains


class TestRowNormalize:
    def test_proportions(self):
        f = row_normalize(matrix_from_dense([[300, 100]]))
        assert f.toarray()[0].tolist() == [0.75, 0.25]

    def test_single_entry(self):
        f = row_normalize(matrix_from_dense([[5]]))
        assert f.toarray()[0, 0] == 1.0

    def test_identical_rows_identical_output(self):
        f = row_normalize(matrix_from_dense([[3, 9], [3, 9]]))
        dense = f.toarray()
        assert np.array_equal(dense[0], dense[1])

    @given(st.lists(st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=6),
                    min_size=1, max_size=6).filter(lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        f = row_normalize(matrix_from_dense(rows))
        sums = f.toarray().sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    def test_provenance(self):
        assert row_normalize(matrix_from_dense([[1]])).provenance == "row_normalized"

    def test_underflowing_share_is_not_stored(self):
        m = ProfileMatrix(
            n_users=1, n_domains=2, indptr=np.array([0, 2]), indices=np.array([0, 1]),
            data=np.array([5e-324, 10.0]), users=("u",), domains=("a", "b"),
        )
        f = row_normalize(m)
        assert f.nnz == 1
        assert f.indices.tolist() == [1] and f.data.tolist() == [1.0]


class TestZeroRows:
    def test_dropped_with_warning(self, caplog):
        m = matrix_from_dense([[0, 0], [1, 2]])
        with caplog.at_level(logging.WARNING):
            filtered, dropped = drop_zero_rows(m)
        assert dropped == ("u0000",)
        assert filtered.n_users == 1
        assert "zero-activity" in caplog.text

    def test_weighting_drops_them(self):
        m = matrix_from_dense([[0, 0], [1, 2]])
        f = tfidf(m)
        assert f.n_users == 1 and f.users == ("u0001",)

    def test_noop_when_all_active(self, rng):
        m = matrix_from_dense(random_dense_positive(rng))
        filtered, dropped = drop_zero_rows(m)
        assert filtered is m and dropped == ()


class TestNegativeFraction:
    def test_counts_negative_entries(self):
        f = tfidf(matrix_from_dense([[300, 100, 0], [10, 0, 1000]]))
        dense = f.toarray()
        assert f.nnz > 0
        expected = np.count_nonzero(dense < 0) / f.nnz
        assert negative_fraction(f) == expected

    def test_empty(self):
        f = tfidf(matrix_from_dense([[400]]))
        assert negative_fraction(f) == 0.0
