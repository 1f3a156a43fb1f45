import numpy as np
import pytest

from usertopics import _kernels
from usertopics.clustering import (
    Clustering,
    _lloyd,
    _means,
    inertia,
    kmeans,
    kmeanspp_init,
    sweep_k,
)

from oracles import optimal_inertia


class TestKmeansppInit:
    def test_single_point(self):
        pts = np.array([[4.0, 2.0]])
        c = kmeanspp_init(pts, 1, np.random.default_rng(0))
        assert np.array_equal(c, pts)

    def test_coincident_point_never_chosen(self):
        # the duplicate of an already chosen centroid has weight zero
        pts = np.array([[0.0], [0.0], [5.0]])
        for seed in range(200):
            c = kmeanspp_init(pts, 2, np.random.default_rng(seed))
            assert {c[0, 0], c[1, 0]} == {0.0, 5.0}

    def test_dsq_frequencies(self):
        # analytic: given first centroid 0, P(second = 100) = 100^2/(1 + 100^2)
        pts = np.array([[0.0], [1.0], [100.0]])
        expected = 100.0**2 / (1.0 + 100.0**2)
        picked = 0
        conditioned = 0
        for seed in range(100_000):
            c = kmeanspp_init(pts, 2, np.random.default_rng(seed))
            if c[0, 0] == 0.0:
                conditioned += 1
                if c[1, 0] == 100.0:
                    picked += 1
        assert conditioned > 30_000
        assert abs(picked / conditioned - expected) <= 0.005

    def test_k_bounds(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeanspp_init(pts, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeanspp_init(pts, 0, np.random.default_rng(0))


class TestKmeans:
    def test_two_points_two_clusters(self):
        pts = np.array([[0.0], [10.0]])
        c = kmeans(pts, 2, restarts=3, seed=0)
        assert c.inertia == 0.0
        assert sorted(c.centroids[:, 0]) == [0.0, 10.0]

    def test_four_points_optimal_split(self):
        pts = np.array([[0.0], [2.0], [10.0], [12.0]])
        c = kmeans(pts, 2, restarts=10, seed=0)
        assert optimal_inertia(pts, 2) == pytest.approx(4.0, abs=1e-12)
        assert c.inertia == pytest.approx(4.0, abs=1e-9)
        assert sorted(c.centroids[:, 0]) == [1.0, 11.0]

    def test_k_equals_n(self, rng):
        pts = rng.standard_normal((6, 2))
        assert kmeans(pts, 6, restarts=2, seed=0).inertia == 0.0

    def test_errors(self, rng):
        pts = rng.standard_normal((4, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 5)
        with pytest.raises(ValueError):
            kmeans(np.array([[np.nan, 0.0]]), 1)
        with pytest.raises(ValueError):
            kmeans(pts, 2, restarts=0)

    def test_deterministic(self, rng):
        pts = rng.standard_normal((40, 3))
        a = kmeans(pts, 4, restarts=5, seed=9)
        b = kmeans(pts, 4, restarts=5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_fixpoint_invariants_exact(self, rng):
        pts = rng.standard_normal((50, 2))
        c = kmeans(pts, 3, restarts=5, seed=1)
        # every point with its nearest centroid, ties to the lowest index
        d = ((pts[:, None, :] - c.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d, axis=1), c.assignments)
        # every centroid is the mean of its members
        for j in range(c.k):
            members = pts[c.assignments == j]
            assert members.size
            assert np.abs(c.centroids[j] - members.mean(axis=0)).max() <= 1e-9
        # stored inertia is recomputable
        assert c.inertia == pytest.approx(
            inertia(pts, c.assignments, c.centroids), rel=1e-9
        )

    def test_lloyd_inertia_monotone(self, rng):
        pts = rng.standard_normal((60, 2))
        c0 = kmeanspp_init(pts, 4, np.random.default_rng(3))
        # each run is the first ``max_iter`` steps of the longest one
        history = [_lloyd(pts, c0, max_iter, 0.0)[2] for max_iter in range(40)]
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300], ids=["unit", "1e-300", "1e300"])
    def test_lloyd_returns_exact_means_of_its_labels(self, rng, scale):
        # at 1e-300 every squared distance underflows to 0, so _repair_empty
        # finds no farthest point and leaves clusters empty; at 1e300 the
        # distances overflow
        cases = [
            rng.integers(0, 3, size=(60, 2)).astype(float),  # grid: ties and duplicates
            np.repeat(rng.standard_normal((5, 3)), 8, axis=0),  # 5 distinct points, 8 times each
            rng.standard_normal((50, 1)) * 10.0 ** rng.integers(-8, 8, size=(50, 1)),
        ]
        for pts in cases:
            pts = pts * scale
            for k in (1, 3, 7):
                c0 = kmeanspp_init(pts, k, np.random.default_rng(k))
                for max_iter in (0, 1, 100):
                    labels, cents, _, _, _ = _lloyd(pts, c0, max_iter, 0.0)
                    assert cents.tobytes() == _means(pts, labels, k).tobytes(), (k, max_iter)

    def test_empty_cluster_repair(self):
        # both duplicated centroids start on the same point; one must move
        pts = np.array([[0.0], [0.1], [10.0]])
        c0 = np.array([[0.0], [0.0]])
        labels, cents, inert, _, _ = _lloyd(pts, c0, 100, 1e-9)
        assert len(set(labels.tolist())) == 2
        assert inert == pytest.approx(optimal_inertia(pts, 2), abs=1e-9)


class TestInertia:
    def test_zero_at_centroids(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert inertia(pts, [0, 1], pts) == 0.0

    def test_single_point_distance(self):
        assert inertia(np.array([[3.0]]), [0], np.array([[0.0]])) == 9.0

    def test_four_point_example(self):
        pts = np.array([[0.0], [2.0], [10.0], [12.0]])
        assert inertia(pts, [0, 0, 1, 1], np.array([[1.0], [11.0]])) == 4.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            inertia(np.zeros((2, 1)), [0, 5], np.zeros((2, 1)))


class TestSweepK:
    def test_non_increasing_and_zero_at_n(self, rng):
        pts = rng.standard_normal((8, 2))
        results = sweep_k(pts, 1, 8, restarts=5, seed=0)
        inertias = [r.inertia for r in results]
        assert all(b <= a for a, b in zip(inertias, inertias[1:]))
        assert inertias[-1] == 0.0

    def test_matches_bruteforce_each_k(self, rng):
        pts = rng.standard_normal((6, 2))
        results = sweep_k(pts, 1, 6, restarts=50, seed=0)
        for r in results:
            assert r.inertia == pytest.approx(optimal_inertia(pts, r.k), abs=1e-9)

    def test_range_validation(self, rng):
        pts = rng.standard_normal((4, 2))
        with pytest.raises(ValueError):
            sweep_k(pts, 0, 3)
        with pytest.raises(ValueError):
            sweep_k(pts, 2, 5)

    def test_single_k(self, rng):
        pts = rng.standard_normal((5, 2))
        results = sweep_k(pts, 3, 3, restarts=3, seed=0)
        assert len(results) == 1 and results[0].k == 3


@pytest.mark.parametrize("run", [
    lambda pts: kmeans(pts, 3, restarts=2, seed=4),
    lambda pts: sweep_k(pts, 1, 3, restarts=2, seed=4),
], ids=["kmeans", "sweep_k"])
def test_kmeans_runs_on_one_blas_thread(rng, monkeypatch, run):
    functions = _kernels._openblas_threads()
    if functions is None:
        pytest.skip("numpy's OpenBLAS not found")
    get, set_ = functions
    assign = _kernels.kmeans_assign
    seen = []

    def spy(*args):
        seen.append(get())
        return assign(*args)

    monkeypatch.setattr(_kernels, "kmeans_assign", spy)
    previous = get()
    set_(2)
    try:
        run(rng.standard_normal((60, 4)))
        assert get() == 2
    finally:
        set_(previous)
    assert seen and set(seen) == {1}


class TestClusteringType:
    def test_assignment_range_checked(self):
        with pytest.raises(ValueError):
            Clustering(
                k=2,
                assignments=np.array([0, 2]),
                centroids=np.zeros((2, 1)),
                inertia=0.0,
                iterations_run=1,
            )
