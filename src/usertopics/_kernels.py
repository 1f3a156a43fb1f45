"""Hot numeric kernels of the weighting, factorization and clustering stages.

Each kernel has one implementation. The sparse-times-dense products call
scipy's compiled ``csr_matvecs``/``csc_matvecs``, the routines behind
``csr_array @ dense``; the others are vectorized numpy. The products load
scipy's ``_sparsetools`` extension file directly, once per process, and never
import ``scipy.sparse``: that import costs a few tenths of a second, loading
the one extension under a millisecond. The weighting kernels give each
stored entry its row share or its natural-log TF weight ``1 + ln(share)``.

Determinism: results do not depend on the BLAS thread count, so seeded
runs reproduce bit for bit. The sparse products accumulate each output row
over the stored entries in CSR order, which is the order the reference loop
``out[i] += data[p] * dense[indices[p]]`` over ``p`` uses; the other
reductions run in a fixed serial order too. Of the BLAS products, the
nearest-centroid candidates of ``kmeans_assign`` may be summed in any
order; they only propose labels, each accepted under a rounding bound that
holds for every order (see there), and the returned distances are serial
sums. The factorizations of :mod:`usertopics.lsa` (QR, SVD and their dense
products) round differently on different thread counts, so they run under
:func:`one_blas_thread`; their bits are independent of the thread count
only where numpy's OpenBLAS is found (see :func:`_openblas_threads`), and
elsewhere the BLAS keeps its own count.

Sparse arguments are raw CSR arrays (``indptr``/``indices`` int64,
``data`` float64); dense arguments must be C-contiguous float64.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np

# recorded in every manifest: the sparse products run in scipy's compiled kernels
BACKEND = "scipy"

# kmeans_assign: near-tie margin per unit of (d + 4) (eps s + 2**-1074), and
# the largest ||x||^2 + max ||c||^2 for which no distance can overflow
_TIE_MARGIN = 5.0
_SCALE_LIMIT = 2.0**1020


@functools.cache
def _sparsetools():
    """scipy's compiled sparse routines, loaded from the extension file of
    ``scipy.sparse._sparsetools`` without importing ``scipy`` or ``scipy.sparse``."""
    name = "scipy.sparse._sparsetools"
    loaded = name in sys.modules
    (package,) = importlib.util.find_spec("scipy").submodule_search_locations
    finder = FileFinder(os.path.join(package, "sparse"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled {name} under {package}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:
        # loading registers the name; a later ``import scipy.sparse`` that found
        # it there would not bind its ``_sparsetools`` attribute
        sys.modules.pop(name, None)
    return module


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy links, through
    ctypes, or None where no ``*openblas*`` library in ``numpy.libs``
    exports ``scipy_openblas_{get,set}_num_threads64_``."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))  # the copy numpy already loaded
        except OSError:
            continue
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread and restore the previous count on
    exit, also on an exception. Does nothing where OpenBLAS is not found.

    A dense LAPACK or BLAS call splits its work by thread count, and each
    split rounds differently; pinned to one thread, its bits do not depend
    on the count the process started with. The cost of one thread is
    measured in :mod:`usertopics.lsa`.
    """
    functions = _openblas_threads()
    if functions is None:
        yield
        return
    get, set_ = functions
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def svd_blas_threads():
    """The BLAS thread count :func:`one_blas_thread` runs on: 1, or None where
    the library could not be asked."""
    return None if _openblas_threads() is None else 1


def tf_values(indptr, data):
    """1 + ln(value / row_sum) for every stored entry."""
    return 1.0 + np.log(share_values(indptr, data))


def share_values(indptr, data):
    """value / row_sum for every stored entry."""
    n_rows = indptr.size - 1
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    sums = np.bincount(rows, weights=data, minlength=n_rows)
    return data / sums[rows]


def _check_csr(indptr, indices, data, n_rows, n_cols):
    """Refuse arrays that are not an n_rows x n_cols CSR matrix: the compiled
    routines check dtypes but not sizes, and would index out of bounds."""
    if not (
        indptr.shape == (n_rows + 1,)
        and indptr[0] == 0
        and indptr[-1] == indices.size == data.size
        and not (np.diff(indptr) < 0).any()
        and (indices.size == 0 or 0 <= indices.min() <= indices.max() < n_cols)
    ):
        raise ValueError(f"CSR arrays do not form a {n_rows} x {n_cols} matrix")


def _zeroed(out, shape, dense):
    """A zero float64 block of ``shape``: ``out`` zeroed in place, or a new one.
    The compiled routines add into the block they are given."""
    if out is None:
        return np.zeros(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 block of shape {shape}")
    if np.may_share_memory(out, dense):
        raise ValueError("out overlaps the dense operand")
    out.fill(0.0)
    return out


def csr_matmat(indptr, indices, data, dense, out=None):
    """CSR @ dense block, into ``out`` (overwritten) if given; returns the block."""
    n_rows, (n_cols, width) = indptr.size - 1, dense.shape
    _check_csr(indptr, indices, data, n_rows, n_cols)
    out = _zeroed(out, (n_rows, width), dense)
    _sparsetools().csr_matvecs(
        n_rows, n_cols, width, indptr, indices, data, dense.ravel(), out.ravel()
    )
    return out


def csr_tmatmat(indptr, indices, data, n_cols, dense, out=None):
    """CSR.T @ dense block: the same three arrays read as the CSC of the
    transpose. Into ``out`` (overwritten) if given; returns the block."""
    n_rows, width = dense.shape
    _check_csr(indptr, indices, data, n_rows, n_cols)
    out = _zeroed(out, (n_cols, width), dense)
    _sparsetools().csc_matvecs(
        n_cols, n_rows, width, indptr, indices, data, dense.ravel(), out.ravel()
    )
    return out


def kmeans_assign(points, centroids):
    """Nearest centroid per point (ties to the lowest index).

    Returns (labels int64, squared distance to the assigned centroid). The
    result is defined by the exact rule: per point, the einsum distance
    ``sum((x - c)**2)`` to each centroid in index order, a strictly smaller
    one replacing the current best. It is computed in GEMM form instead:

    1. ``g = ||c||^2 - 2 x.c`` for all pairs from one BLAS product; each
       row's candidate is its ``argmin``.
    2. A row whose candidate is not certified takes the exact rule.
    3. ``sq`` is the einsum distance to the chosen centroid, the same
       reduction the exact rule uses, so it is bit-identical to it.

    Certificate. Let u = eps/2, d the dimension, ``s = ||x||^2 + max ||c||^2``
    and ``gamma_m = m u / (1 - m u)``, the error bound of an m-term dot
    product or sum in *any* summation order, with or without FMA. For every
    centroid c, ``g_c`` is within ``2 gamma_d s + 2u(1 + gamma_d) s``, about
    ``(d + 1) eps s``, of the exact ``||x - c||^2 - ||x||^2``: ``||c||^2``
    is off by at most ``gamma_d ||c||^2``, ``2 x.c`` by at most
    ``2 gamma_d ||x|| ||c|| <= gamma_d s``, and the subtraction rounds once.
    The einsum distance is within ``gamma_(d+2) ||x - c||^2``, about
    ``(d + 2) eps s``, of the exact one, as ``||x - c||^2 <= 2 s``. Hence if
    ``g_c > g_a + (4d + 6) eps s`` the einsum distance to c exceeds that to
    a, and the exact rule cannot pick c. A candidate a is certified when
    every other centroid lies above ``g_a + 5 (d + 4) (eps s + 2**-1074)``.
    The margin leaves room for the rounding of s, of the margin itself and
    of the sum ``g_a + margin`` (each under 1.1 eps s), and for underflow,
    which adds at most ``2**-1075`` per rounded product, ``4 d 2**-1074`` in
    all. Rows with a non-finite g, or with ``s > 2**1020`` (where a
    distance could overflow), are not certified either. The labels
    therefore do not depend on how BLAS orders or splits the product, nor
    on its thread count.
    """
    dim = points.shape[1]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    with np.errstate(over="ignore", invalid="ignore"):
        # k x n, so the per-point reductions below run down contiguous columns
        g = centroids @ points.T
        g *= -2.0
        g += c_sq[:, None]
        scale = np.einsum("ij,ij->i", points, points) + c_sq.max()
        fi = np.finfo(np.float64)
        margin = _TIE_MARGIN * (dim + 4) * (fi.eps * scale + fi.smallest_subnormal)
        near = np.count_nonzero(g <= g.min(axis=0) + margin, axis=0)
    labels = np.argmin(g, axis=0).astype(np.int64, copy=False)
    uncertified = (near > 1) | ~(scale <= _SCALE_LIMIT) | ~np.isfinite(g).all(axis=0)
    rows = np.flatnonzero(uncertified)
    if rows.size:
        labels[rows], best = _exact_nearest(points[rows], centroids)
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    sq = np.einsum("ij,ij->i", diff, diff)
    if rows.size:
        sq[rows] = best  # inf, as the exact rule gives, where no distance beat inf
    return labels, sq


def _exact_nearest(points, centroids):
    """The exact rule of kmeans_assign: einsum distances in index order."""
    best = np.full(points.shape[0], np.inf)
    labels = np.zeros(points.shape[0], dtype=np.int64)
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
