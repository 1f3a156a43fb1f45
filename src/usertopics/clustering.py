"""K-means++ clustering with restarts, plus the inertia-vs-k sweep.

The objective is the within-cluster sum of squared Euclidean distances
(inertia). Seeding follows the D-squared rule: the first centroid is
uniform over the points, each later one is sampled with probability
proportional to the squared distance to the nearest centroid chosen so
far. Lloyd iterations then alternate nearest-centroid assignment (ties to
the lowest cluster index) and mean updates until the assignment reaches a
fixed point, the relative inertia change drops under ``tol``, or
``max_iter`` is hit. A cluster that empties out is reseeded to the point
farthest from its assigned centroid.

Randomness comes from numpy's PCG64 generator, whose stream for a given
seed is stable across platforms; restart ``r`` uses ``seed + r``, so runs
reproduce bit for bit and restarts may execute in any order. K-means runs
on one OpenBLAS thread (:func:`usertopics._kernels.one_blas_thread`), which
changes no label: on a 2-core host two threads at times stalled the
``kmeans_assign`` GEMM (1200 x 200, K = 10: 8.0 ms a call, 0.75 ms on one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _kernels
from ._store import write_rows


@dataclass(frozen=True)
class LloydRun:
    """Diagnostics of one Lloyd run: a k-means++ restart or a warm start.

    ``stop_reason`` is ``"fixed_point"`` (the assignment repeated),
    ``"tolerance"`` (the relative inertia change fell to ``tol`` or below)
    or ``"max_iter"``.
    """

    seed: int | None  # the restart's seed; None for a warm start
    inertia: float  # final inertia
    iterations: int
    stop_reason: str


@dataclass(frozen=True, eq=False)
class Clustering:
    """One k-means solution: assignments, centroids and inertia.

    ``runs`` holds every Lloyd run the solution was chosen from, in order.
    """

    k: int
    assignments: np.ndarray  # per-point cluster index in [0, k)
    centroids: np.ndarray  # k x dim
    inertia: float
    iterations_run: int
    runs: tuple[LloydRun, ...] = ()

    def __post_init__(self):
        if self.assignments.size and (
            self.assignments.min() < 0 or self.assignments.max() >= self.k
        ):
            raise ValueError("assignment out of range")
        if self.inertia < 0:
            raise ValueError("inertia must be non-negative")


def _as_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite coordinates")
    return pts


def kmeanspp_init(points, k: int, rng: np.random.Generator) -> np.ndarray:
    """D-squared seeding; returns a k x dim centroid matrix.

    A point coincident with an already-chosen centroid has zero selection
    probability. If every point does (total weight zero), the next
    centroid falls back to a uniform draw.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[int(rng.integers(n))]
    dsq = np.full(n, np.inf)
    _kernels.dsq_update(pts, centroids[0], dsq)
    for j in range(1, k):
        total = float(dsq.sum())
        if total > 0.0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(dsq), target, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(rng.integers(n))
        centroids[j] = pts[idx]
        _kernels.dsq_update(pts, centroids[j], dsq)
    return centroids


def _repair_empty(pts, centroids, labels, sq) -> None:
    """Reseed empty clusters to the point farthest from its centroid."""
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    for _ in range(k):
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return
        j = int(empty[0])
        idx = int(np.argmax(sq))
        counts[labels[idx]] -= 1
        labels[idx] = j
        counts[j] += 1
        centroids[j] = pts[idx]
        sq[idx] = 0.0


def _means(pts, labels, k) -> np.ndarray:
    sums, counts = _kernels.kmeans_update(pts, labels, k)
    return sums / np.maximum(counts, 1)[:, None]


def _lloyd(pts, centroids0, max_iter, tol):
    """Lloyd iterations from given centroids.

    Returns (labels, centroids, inertia, iterations, stop reason), the
    reason as in :class:`LloydRun`.
    The final centroids are exact cluster means; at an assignment fixed
    point every point also sits with its nearest centroid.
    """
    centroids = np.ascontiguousarray(centroids0, dtype=np.float64)
    k = centroids.shape[0]
    labels, sq = _kernels.kmeans_assign(pts, centroids)
    centroids = centroids.copy()
    _repair_empty(pts, centroids, labels, sq)
    prev_inertia = float(sq.sum())
    iterations = 0
    stop_reason = "max_iter"
    for it in range(1, max_iter + 1):
        centroids = _means(pts, labels, k)
        new_labels, sq = _kernels.kmeans_assign(pts, centroids)
        _repair_empty(pts, centroids, new_labels, sq)
        cur_inertia = float(sq.sum())
        iterations = it
        if np.array_equal(new_labels, labels):
            labels = new_labels
            stop_reason = "fixed_point"
            break
        converged = abs(prev_inertia - cur_inertia) <= tol * prev_inertia
        labels = new_labels
        prev_inertia = cur_inertia
        if converged:
            stop_reason = "tolerance"
            break
    final_centroids = _means(pts, labels, k)
    final_inertia = inertia(pts, labels, final_centroids)
    return labels, final_centroids, final_inertia, iterations, stop_reason


def kmeans(points, k: int, restarts: int = 10, max_iter: int = 300, tol: float = 1e-6,
           seed: int = 0) -> Clustering:
    """Best-of-``restarts`` k-means++ solution (minimal inertia wins).

    Ties between restarts resolve to the earliest one, so the result is a
    pure function of (points, k, restarts, max_iter, tol, seed).
    """
    pts = _as_points(points)
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f"k={k} outside [1, {pts.shape[0]}]")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    best = None
    runs = []
    with _kernels.one_blas_thread():
        for r in range(restarts):
            rng = np.random.default_rng(seed + r)
            centroids0 = kmeanspp_init(pts, k, rng)
            labels, centroids, inert, iters, stop = _lloyd(pts, centroids0, max_iter, tol)
            runs.append(LloydRun(seed + r, inert, iters, stop))
            if best is None or inert < best[2]:
                best = (labels, centroids, inert, iters)
    labels, centroids, inert, iters = best
    return Clustering(k, labels, centroids, inert, iters, tuple(runs))


def inertia(points, assignments, centroids) -> float:
    """Sum of squared distances from each point to its assigned centroid."""
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(assignments)
    cents = np.asarray(centroids, dtype=np.float64)
    if labels.shape[0] != pts.shape[0]:
        raise ValueError("one assignment per point required")
    if labels.size and (labels.min() < 0 or labels.max() >= cents.shape[0]):
        raise ValueError("assignment index out of range")
    diff = pts - cents[labels]
    return float(np.einsum("ij,ij->", diff, diff))


def sweep_k(points, k_min: int, k_max: int, restarts: int = 10, max_iter: int = 300,
            tol: float = 1e-6, seed: int = 0) -> list[Clustering]:
    """Best clustering for every k in [k_min, k_max].

    Besides the fresh k-means++ runs, each k is also warm-started from the
    previous k's solution extended with the point farthest from its
    assigned centroid; the cheaper of the two results is kept, and the warm
    start's run is appended to its ``runs``. Adding a
    centroid at a data point can only lower the objective, so the reported
    inertia sequence is non-increasing in k.
    """
    pts = _as_points(points)
    if not 1 <= k_min <= k_max <= pts.shape[0]:
        raise ValueError(f"bad k range [{k_min}, {k_max}] for {pts.shape[0]} points")
    results: list[Clustering] = []
    prev: Clustering | None = None
    with _kernels.one_blas_thread():
        for k in range(k_min, k_max + 1):
            best = kmeans(pts, k, restarts=restarts, max_iter=max_iter, tol=tol, seed=seed)
            if prev is not None:
                diff = pts - prev.centroids[prev.assignments]
                sq = np.einsum("ij,ij->i", diff, diff)
                extra = pts[int(np.argmax(sq))]
                warm0 = np.vstack([prev.centroids, extra[None, :]])
                labels, centroids, inert, iters, stop = _lloyd(pts, warm0, max_iter, tol)
                runs = best.runs + (LloydRun(None, inert, iters, stop),)
                if inert < best.inertia:
                    best = Clustering(k, labels, centroids, inert, iters, runs)
                else:
                    best = replace(best, runs=runs)
            results.append(best)
            prev = best
    return results


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------


def write_clustering(c: Clustering, user_ids, out_dir: str | Path) -> list[Path]:
    """Persist assignments (user_id,cluster) and centroids; returns their paths.

    The run's parameters, inertia and iteration counts go to the command's
    manifest, not to a file of their own.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    assign_path = write_rows(
        out / "assignments.csv", [("user_id", "cluster"), *zip(user_ids, c.assignments.tolist())]
    )
    cent_path = write_rows(
        out / "centroids.txt", c.centroids.tolist(),  # csv writes a float as its repr
        comments=(f"k: {c.k}", f"dim: {c.centroids.shape[1]}"), delimiter=" ",
    )
    return [assign_path, cent_path]
