import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from usertopics import _kernels, lsa
from usertopics.lsa import (
    canonicalize_signs,
    load_model,
    orthonormality_residual,
    save_model,
    truncated_svd,
    user_features,
)

from oracles import canonicalize_signs_loop, dense_to_feature, reconstruct


def decay_matrix(rng, n, d, rho=0.7):
    r = min(n, d)
    qa, _ = np.linalg.qr(rng.standard_normal((n, r)))
    qb, _ = np.linalg.qr(rng.standard_normal((d, r)))
    return (qa * rho ** np.arange(r)) @ qb.T


class TestTruncatedSvd:
    def test_diagonal_singular_values(self):
        f = dense_to_feature(np.diag([3.0, 2.0, 1.0]))
        model = truncated_svd(f, 2, method="exact")
        assert np.allclose(model.sigma, [3.0, 2.0], atol=1e-12)

    def test_rank_one(self):
        u = np.array([2.0, 0.0])  # norm 2
        v = np.array([0.0, 3.0, 0.0])  # norm 3
        f = dense_to_feature(np.outer(u, v))
        model = truncated_svd(f, 1, method="exact")
        assert abs(model.sigma[0] - 6.0) <= 1e-12

    def test_randomized_matches_exact(self, rng):
        f = dense_to_feature(decay_matrix(rng, 50, 40))
        exact = truncated_svd(f, 10, method="exact")
        rand = truncated_svd(f, 10, method="randomized", seed=0)
        rel = np.abs(rand.sigma - exact.sigma) / exact.sigma
        assert rel.max() <= 1e-6

    def test_exact_matches_independent_lapack_driver(self, rng):
        dense = decay_matrix(rng, 40, 30)
        model = truncated_svd(dense_to_feature(dense), 8, method="exact")
        ref = scipy.linalg.svd(dense, compute_uv=False, lapack_driver="gesvd")
        assert np.allclose(model.sigma, ref[:8], atol=1e-10, rtol=0)

    def test_rank_bounds(self, rng):
        f = dense_to_feature(decay_matrix(rng, 10, 6))
        with pytest.raises(ValueError):
            truncated_svd(f, 0)
        with pytest.raises(ValueError):
            truncated_svd(f, 7)

    def test_auto_method_threshold(self, rng, monkeypatch):
        f = dense_to_feature(decay_matrix(rng, 30, 20))
        assert truncated_svd(f, 3).method == "exact"
        # exact while min(N_u, N_d) <= EXACT_METHOD_MAX_DIM and N_u * N_d * 8 bytes
        # <= EXACT_METHOD_MAX_BYTES; randomized one step past either bound
        bounds = (("EXACT_METHOD_MAX_DIM", 20), ("EXACT_METHOD_MAX_BYTES", 30 * 20 * 8))
        for name, at_bound in bounds:
            monkeypatch.setattr(lsa, name, at_bound)
            assert truncated_svd(f, 3).method == "exact"
            monkeypatch.setattr(lsa, name, at_bound - 1)
            assert truncated_svd(f, 3).method == "randomized"
            monkeypatch.undo()

    def test_randomized_deterministic(self, rng):
        f = dense_to_feature(decay_matrix(rng, 60, 50))
        a = truncated_svd(f, 5, method="randomized", seed=7)
        b = truncated_svd(f, 5, method="randomized", seed=7)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.sigma, b.sigma)
        c = truncated_svd(f, 5, method="randomized", seed=8)
        assert not np.array_equal(a.u, c.u)

    def test_rank_beyond_numerical_rank(self):
        f = dense_to_feature(np.diag([3.0, 2.0, 0.0]))
        model = truncated_svd(f, 3, method="exact")
        assert model.sigma[2] <= 1e-12

    @pytest.mark.parametrize("method", ["exact", "randomized"])
    def test_factorizations_run_on_one_blas_thread(self, rng, monkeypatch, method):
        functions = _kernels._openblas_threads()
        if functions is None:
            pytest.skip("numpy's OpenBLAS not found")
        get, set_ = functions
        f = dense_to_feature(decay_matrix(rng, 40, 30))
        seen = []
        for name in ("qr", "svd"):
            def spy(*args, _call=getattr(np.linalg, name), **kwargs):
                seen.append(get())
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        previous = get()
        set_(2)
        try:
            truncated_svd(f, 5, method=method)
            assert get() == 2
        finally:
            set_(previous)
        assert len(seen) == (1 if method == "exact" else lsa.POWER_ITERS + 2)
        assert set(seen) == {1}


class TestUserFeatures:
    def test_unscaled_unit_columns(self, rng):
        f = dense_to_feature(decay_matrix(rng, 30, 20))
        feats = user_features(truncated_svd(f, 5, method="exact"))
        norms = np.linalg.norm(feats, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_scaled_column_norms(self, rng):
        f = dense_to_feature(decay_matrix(rng, 30, 20))
        model = truncated_svd(f, 5, method="exact")
        feats = user_features(model, scale=True)
        assert np.allclose(np.linalg.norm(feats, axis=0), model.sigma, atol=1e-6)

    def test_diagonal_scaled_rows(self):
        f = dense_to_feature(np.diag([3.0, 2.0]))
        feats = user_features(truncated_svd(f, 2, method="exact"), scale=True)
        assert np.allclose(np.abs(feats), [[3.0, 0.0], [0.0, 2.0]], atol=1e-12)


class TestDomainTopics:
    def test_diagonal_signed_permutation(self):
        f = dense_to_feature(np.diag([3.0, 2.0, 1.0]))
        v = truncated_svd(f, 3, method="exact").v
        assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)

    def test_rank_one_direction(self):
        u = np.array([1.0, 1.0])
        v = np.array([3.0, 4.0, 0.0])
        f = dense_to_feature(np.outer(u, v))
        topics = truncated_svd(f, 1, method="exact").v
        assert np.allclose(np.abs(topics[:, 0]), np.abs(v) / 5.0, atol=1e-12)

    def test_orthonormal_columns(self, rng):
        f = dense_to_feature(decay_matrix(rng, 50, 40))
        model = truncated_svd(f, 10, method="randomized", seed=1)
        assert orthonormality_residual(model.v) <= 1e-6
        assert orthonormality_residual(model.u) <= 1e-6


class TestReconstruct:
    def test_full_rank_exact(self, rng):
        dense = decay_matrix(rng, 8, 5, rho=0.9)
        model = truncated_svd(dense_to_feature(dense), 5, method="exact")
        assert np.abs(reconstruct(model) - dense).max() <= 1e-8

    def test_diagonal_truncation(self):
        f = dense_to_feature(np.diag([3.0, 2.0, 1.0]))
        model = truncated_svd(f, 2, method="exact")
        assert np.allclose(reconstruct(model), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_frobenius_error_equals_tail(self, rng):
        dense = decay_matrix(rng, 30, 20, rho=0.8)
        model = truncated_svd(dense_to_feature(dense), 5, method="exact")
        err = np.linalg.norm(dense - reconstruct(model))
        tail = np.sqrt((np.linalg.svd(dense, compute_uv=False)[5:] ** 2).sum())
        assert abs(err - tail) <= 1e-8

    def test_eckart_young(self, rng):
        # further truncating the model can only increase the error
        dense = decay_matrix(rng, 20, 15, rho=0.8)
        f = dense_to_feature(dense)
        err_m = np.linalg.norm(dense - reconstruct(truncated_svd(f, 6, method="exact")))
        for m_smaller in (1, 3, 5):
            smaller = truncated_svd(f, m_smaller, method="exact")
            assert err_m <= np.linalg.norm(dense - reconstruct(smaller)) + 1e-12


class TestCanonicalizeSigns:
    def test_flips_dominant_negative(self):
        f = dense_to_feature(np.array([[1.0, -2.0, 0.3], [0.5, 1.0, 0.2]]))
        model = truncated_svd(f, 2, method="exact")
        canon = canonicalize_signs(model)
        for k in range(canon.m):
            idx = np.argmax(np.abs(canon.v[:, k]))
            assert canon.v[idx, k] > 0

    def test_definition_on_constructed_model(self):
        from dataclasses import replace
        f = dense_to_feature(np.diag([2.0, 1.0]))
        model = truncated_svd(f, 2, method="exact")
        forced = replace(
            model,
            v=np.array([[-0.8, 0.0], [0.6, 1.0]]),
            u=model.u.copy(),
        )
        canon = canonicalize_signs(forced)
        assert np.allclose(canon.v[:, 0], [0.8, -0.6])
        assert np.allclose(canon.u[:, 0], -forced.u[:, 0])

    def test_idempotent(self, rng):
        f = dense_to_feature(decay_matrix(rng, 15, 10))
        once = canonicalize_signs(truncated_svd(f, 4, method="exact"))
        twice = canonicalize_signs(once)
        assert np.array_equal(once.u, twice.u) and np.array_equal(once.v, twice.v)

    @given(
        st.integers(1, 6),
        st.integers(1, 5),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, np.inf, -np.inf]),
                 min_size=30, max_size=30),
        st.lists(st.floats(allow_nan=False), min_size=30, max_size=30),
    )
    def test_bit_identical_to_column_loop(self, n_domains, m, v_values, u_values):
        # a few repeated magnitudes of both signs, so ties on |v| are common
        v = np.array(v_values[: n_domains * m]).reshape(n_domains, m)
        u = np.array(u_values[: 6 * m]).reshape(6, m)
        model = lsa.LsaModel(u=u, sigma=np.zeros(m), v=v, m=m, method="exact", seed=None)
        canon = canonicalize_signs(model)
        want_u, want_v = canonicalize_signs_loop(u, v)
        assert canon.u.tobytes() == want_u.tobytes()
        assert canon.v.tobytes() == want_v.tobytes()

    def test_reconstruction_unchanged(self, rng):
        f = dense_to_feature(decay_matrix(rng, 15, 10))
        model = truncated_svd(f, 4, method="exact")
        before = reconstruct(model)
        after = reconstruct(canonicalize_signs(model))
        assert np.abs(before - after).max() <= 1e-12


class TestModelIO:
    def test_roundtrip(self, tmp_path, rng):
        f = dense_to_feature(decay_matrix(rng, 12, 9))
        model = truncated_svd(f, 3, method="randomized", seed=4)
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert np.array_equal(back.u, model.u)
        assert np.array_equal(back.sigma, model.sigma)
        assert np.array_equal(back.v, model.v)
        assert back.method == "randomized" and back.seed == 4
        assert back.source_checksum == model.source_checksum
