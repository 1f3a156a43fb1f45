"""Truncated singular value decomposition of the feature matrix.

Two methods are provided behind one interface:

* ``exact``: full LAPACK decomposition of the densified matrix, then
  truncation. The default while the smaller matrix dimension is at most
  :data:`EXACT_METHOD_MAX_DIM` and the dense matrix takes at most
  :data:`EXACT_METHOD_MAX_BYTES`; oracle-grade accuracy at desk scale.
* ``randomized``: Gaussian range sketch of width ``m +`` :data:`OVERSAMPLE`
  with :data:`POWER_ITERS` subspace iterations, orthonormalization,
  projection, and a small dense SVD (Halko, Martinsson and Tropp, SIAM
  Review 2011, section 4). The sparse matrix is never densified on this
  path; only matrix-block products against it are used. They run in
  scipy's compiled CSR routines, which :mod:`usertopics._kernels` loads
  from their extension file (for its k-means update too); ``scipy.sparse``
  is never imported. Deterministic given (matrix, m, seed); the seed
  feeds a PCG64 generator whose stream is stable across platforms.

Both methods run their LAPACK and BLAS calls on one OpenBLAS thread
(:func:`usertopics._kernels.one_blas_thread`): a dense factorization split
over more threads rounds differently, so the factors would depend on the
core count. Pinned, they do not, wherever numpy's OpenBLAS is found; where
it is not, the BLAS keeps its own thread count and that guarantee does not
hold. Measured on a 2-core host, one thread is also faster at the
benchmark's shapes (a 1200 x 210 QR takes 24 ms instead of 39 ms), and
11-19 % slower for the QR and small SVD of criterion 7's 5000 x 810 sketch.

The left factor is the per-user topic embedding used for clustering; the
right factor relates domains to topics. Unscaled left vectors weight all
topics equally, the scaled variant (columns multiplied by the singular
values) preserves the matrix geometry; see :func:`user_features`.

:func:`save_model` writes the three factors as plain ``.npy`` arrays and
nothing else; the command's manifest records the method, rank and seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _kernels
from ._store import save_array
from .matrix import FeatureMatrix

log = logging.getLogger(__name__)

EXACT_METHOD_MAX_DIM = 500
# the densified float64 matrix the exact method factorizes
EXACT_METHOD_MAX_BYTES = 256 * 2**20
OVERSAMPLE = 10
POWER_ITERS = 2


@dataclass(frozen=True, eq=False)
class LsaModel:
    """Truncated factors: u (N_u x M), sigma (M,), v (N_d x M)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    m: int
    method: str

    def __post_init__(self):
        if self.u.shape[1] != self.m or self.v.shape[1] != self.m:
            raise ValueError("factor widths do not match the truncation rank")
        if self.sigma.shape != (self.m,):
            raise ValueError("sigma length does not match the truncation rank")
        if self.sigma.size and (
            np.any(self.sigma < 0) or np.any(np.diff(self.sigma) > 0)
        ):
            raise ValueError("singular values must be non-negative and descending")


def truncated_svd(f: FeatureMatrix, m: int, method: str = "auto", seed: int = 0) -> LsaModel:
    """Top-``m`` singular triplets of ``f``.

    ``m`` may exceed the numerical rank, in which case trailing singular
    values are near zero; it may not exceed min(N_u, N_d). ``auto`` picks
    ``exact`` for a matrix small enough to densify (see the module
    docstring), ``randomized`` otherwise.
    """
    if f.n_users < 1 or f.n_domains < 1:
        raise ValueError("feature matrix must be non-empty")
    max_rank = min(f.n_users, f.n_domains)
    if not 1 <= m <= max_rank:
        raise ValueError(f"rank m={m} outside [1, {max_rank}]")
    if method == "auto":
        dense_bytes = f.n_users * f.n_domains * 8
        small = max_rank <= EXACT_METHOD_MAX_DIM and dense_bytes <= EXACT_METHOD_MAX_BYTES
        method = "exact" if small else "randomized"
    if method not in ("exact", "randomized"):
        raise ValueError(f"unknown method: {method!r}")
    with _kernels.one_blas_thread():
        if method == "exact":
            u_full, s_full, vt_full = np.linalg.svd(f.toarray(), full_matrices=False)
            u, s, vt = u_full[:, :m], s_full[:m], vt_full[:m]
        else:
            u, s, vt = _randomized_svd(f, m, seed)
    return LsaModel(
        u=np.ascontiguousarray(u),
        sigma=np.ascontiguousarray(s),
        v=np.ascontiguousarray(vt.T),
        m=m,
        method=method,
    )


def _randomized_svd(f, m, seed):
    """(u, s, vt) of rank m. One N_d x w and one N_u x w block hold the
    sketch and every sparse product; each QR factor is dropped once used."""
    csr = (f.indptr, f.indices, f.data)
    width = min(m + OVERSAMPLE, f.n_users, f.n_domains)
    domain_block = np.empty((f.n_domains, width))
    np.random.default_rng(seed).standard_normal(out=domain_block)
    user_block = _kernels.csr_matmat(*csr, domain_block)
    for _ in range(POWER_ITERS):
        q = np.linalg.qr(user_block)[0]
        _kernels.csr_tmatmat(*csr, f.n_domains, q, out=domain_block)
        del q
        _kernels.csr_matmat(*csr, domain_block, out=user_block)
    q = np.linalg.qr(user_block)[0]
    del user_block
    # b = q.T @ f, computed through the transposed sparse product
    _kernels.csr_tmatmat(*csr, f.n_domains, q, out=domain_block)
    u_small, s, vt = np.linalg.svd(domain_block.T, full_matrices=False)
    del domain_block
    return q @ u_small[:, :m], s[:m], vt[:m]


def user_features(model: LsaModel, scale: bool = False) -> np.ndarray:
    """Per-user topic coordinates for clustering.

    ``scale=False`` (default) returns the raw left singular vectors;
    ``scale=True`` multiplies each column by its singular value.
    """
    if scale:
        return model.u * model.sigma[None, :]
    return model.u.copy()


def canonicalize_signs(model: LsaModel) -> LsaModel:
    """Fix the per-triplet sign ambiguity of the decomposition.

    Each (u column, v column) pair is flipped jointly so the
    largest-magnitude entry of the v column is positive (ties break at the
    lowest index). Idempotent; the reconstruction is unchanged.
    """
    top = np.argmax(np.abs(model.v), axis=0)
    signs = np.where(model.v[top, np.arange(model.m)] < 0, -1.0, 1.0)
    return replace(model, u=model.u * signs, v=model.v * signs)


def orthonormality_residual(mat: np.ndarray) -> float:
    """max |mat.T @ mat - I|; zero for perfectly orthonormal columns."""
    gram = mat.T @ mat
    return float(np.abs(gram - np.eye(mat.shape[1])).max())


# --------------------------------------------------------------------------
# workspace files
# --------------------------------------------------------------------------
#
# A model under prefix P is P.U.npy (N_u x M), P.sigma.npy (M) and P.V.npy
# (N_d x M), all <f8.

_FACTORS = (("U", "u"), ("sigma", "sigma"), ("V", "v"))


def save_model(model: LsaModel, prefix: str | Path) -> list[Path]:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return [
        save_array(prefix.with_name(f"{prefix.name}.{name}.npy"), getattr(model, attr), "<f8")
        for name, attr in _FACTORS
    ]
