import dataclasses

import numpy as np
import pytest

from usertopics.matrix import (
    FeatureMatrix,
    domain_stats,
    matrix_checksum,
    rank_domains,
    read_matrix,
    write_matrix,
)
from usertopics.weighting import tfidf

from helpers import matrix_from_dense, random_dense_positive
from oracles import matrices_equal

CSR_FIELDS = ("n_users", "n_domains", "indptr", "indices", "data", "users", "domains")


class TestDomainStats:
    def test_median_includes_zeros(self):
        m = matrix_from_dense([[0, 1], [0, 2], [5, 3]])
        stats = domain_stats(m)
        assert stats.median[0] == 0 and stats.n_visitors[0] == 1
        assert stats.median[1] == 2 and stats.n_visitors[1] == 3

    def test_all_visited_domain(self):
        m = matrix_from_dense([[7, 1], [7, 0], [7, 0]])
        stats = domain_stats(m)
        assert stats.median[0] == 7
        assert stats.nonzero_median_fraction == 0.5

    def test_lower_median_even_count(self):
        m = matrix_from_dense([[1], [2], [3], [4]])
        stats = domain_stats(m)
        assert stats.median[0] == 2

    def test_empty_matrix(self):
        m = matrix_from_dense(np.zeros((0, 0)))
        stats = domain_stats(m)
        assert stats.nonzero_median_fraction == 0.0
        assert len(stats.domains) == 0

    def test_support_equals_stored_entries(self, rng):
        dense = random_dense_positive(rng)
        m = matrix_from_dense(dense)
        stats = domain_stats(m)
        assert np.array_equal(stats.n_visitors, np.count_nonzero(dense, axis=0))

    def test_columns_without_stored_entries(self):
        f = tfidf(matrix_from_dense([[400]]))  # the one domain has IDF 0
        assert f.n_domains == 1 and f.nnz == 0
        stats = domain_stats(f)
        assert stats.median.tolist() == [0.0]
        assert stats.total.tolist() == [0.0]
        assert stats.n_visitors.tolist() == [0]


class TestEntryRows:
    def test_empty_first_middle_and_last_rows(self):
        m = matrix_from_dense([[0, 0], [1, 2], [0, 0], [3, 0], [0, 0]])
        assert m.entry_rows.tolist() == [1, 1, 3]


class TestRankDomains:
    def test_descending(self):
        m = matrix_from_dense([[2, 5]])
        stats = domain_stats(m)
        assert rank_domains(stats) == ["d0001", "d0000"]

    def test_tie_breaks_by_name(self):
        m = matrix_from_dense([[3, 3]])
        stats = domain_stats(m)
        assert rank_domains(stats) == ["d0000", "d0001"]

    def test_empty(self):
        stats = domain_stats(matrix_from_dense(np.zeros((0, 0))))
        assert rank_domains(stats) == []

    def test_is_permutation(self, rng):
        m = matrix_from_dense(random_dense_positive(rng))
        stats = domain_stats(m)
        assert sorted(rank_domains(stats)) == sorted(m.domains)


class TestMatrixIO:
    def test_profile_roundtrip(self, tmp_path, rng):
        m = matrix_from_dense(random_dense_positive(rng))
        write_matrix(m, tmp_path / "m")
        back = read_matrix(tmp_path / "m")
        assert matrices_equal(m, back)
        assert type(back).__name__ == "ProfileMatrix"

    def test_feature_roundtrip_keeps_provenance(self, tmp_path, rng):
        f = tfidf(matrix_from_dense(random_dense_positive(rng)))
        write_matrix(f, tmp_path / "f")
        back = read_matrix(tmp_path / "f")
        assert matrices_equal(f, back)
        assert back.provenance == "tfidf"

    def test_write_is_deterministic(self, tmp_path, rng):
        m = matrix_from_dense(random_dense_positive(rng))
        paths_a = write_matrix(m, tmp_path / "a")
        paths_b = write_matrix(m, tmp_path / "b")
        assert [p.name[1:] for p in paths_a] == [p.name[1:] for p in paths_b]
        assert len(paths_a) == 4
        for a, b in zip(paths_a, paths_b):
            assert a.read_bytes() == b.read_bytes(), a.name
        assert sorted(tmp_path.iterdir()) == sorted(paths_a + paths_b)  # no temporaries left

    def test_arrays_are_plain_little_endian_npy(self, tmp_path, rng):
        f = tfidf(matrix_from_dense(random_dense_positive(rng)))
        write_matrix(f, tmp_path / "f")
        for name, dtype in (("indptr", "<i8"), ("indices", "<i8"), ("data", "<f8")):
            arr = np.load(tmp_path / f"f.{name}.npy", allow_pickle=False)
            assert arr.dtype.str == dtype
            assert np.array_equal(arr, getattr(f, name))

    def test_interrupted_rewrite_reads_as_no_matrix(self, tmp_path, rng, monkeypatch):
        from usertopics import _store

        m = matrix_from_dense(random_dense_positive(rng))
        write_matrix(m, tmp_path / "m")
        real_save = np.save
        calls = []

        def save_then_fail(fh, arr, **kwargs):
            calls.append(arr)
            if len(calls) == 2:
                fh.write(b"partial")
                raise KeyboardInterrupt
            real_save(fh, arr, **kwargs)

        monkeypatch.setattr(_store.np, "save", save_then_fail)
        with pytest.raises(KeyboardInterrupt):
            write_matrix(m, tmp_path / "m")
        monkeypatch.undo()
        assert not (tmp_path / "m.meta.json").exists()
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        with pytest.raises(FileNotFoundError):
            read_matrix(tmp_path / "m")
        # the indices file kept its old, complete content
        assert np.array_equal(np.load(tmp_path / "m.indices.npy"), m.indices)

    def test_checksum_is_canonical(self, rng):
        m = matrix_from_dense(random_dense_positive(rng))
        copy = dataclasses.replace(m, data=m.data.copy())
        assert matrix_checksum(copy) == matrix_checksum(m)
        data = m.data.copy()
        data[-1] = np.nextafter(data[-1], np.inf)  # one ulp
        assert matrix_checksum(dataclasses.replace(m, data=data)) != matrix_checksum(m)
        f = tfidf(m)
        other = FeatureMatrix(**{k: getattr(f, k) for k in CSR_FIELDS}, provenance="row_normalized")
        assert matrix_checksum(other) != matrix_checksum(f)
        users = (m.users[0] + "x",) + m.users[1:]
        assert matrix_checksum(dataclasses.replace(m, users=users)) != matrix_checksum(m)
        domains = m.domains[:-1] + (m.domains[-1] + "x",)
        assert matrix_checksum(dataclasses.replace(m, domains=domains)) != matrix_checksum(m)

    def test_checksum_tracks_content(self, rng):
        m1 = matrix_from_dense([[1, 2], [3, 4]])
        m2 = matrix_from_dense([[1, 2], [3, 5]])
        assert matrix_checksum(m1) != matrix_checksum(m2)
        assert matrix_checksum(m1) == matrix_checksum(matrix_from_dense([[1, 2], [3, 4]]))
