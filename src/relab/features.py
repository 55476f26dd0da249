"""Embedding matrices: binary IO and the preprocessing applied before diffusion.

Features enter the pipeline as RELF files (a trivial binary container for an
N x D float32 matrix) and are PCA-whitened and L2-normalized before any
graph is built, mirroring standard retrieval practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, FormatError
from .fileio import HEADER, atomic_write, open_binary, read_array

RELF_MAGIC = b"RELF"
RELF_VERSION = 1
# Rows per chunk when norming and normalizing: one chunk's float64 scratch
# is 4 MiB at D = 128.
_CHUNK_ROWS = 4096


@dataclass
class WhitenStats:
    """Fitted whitening transform: x -> ((x - mean) @ basis) * scale.

    basis columns are orthonormal covariance eigenvectors (descending
    eigenvalue order, sign fixed so each column's largest-magnitude entry
    is positive); scale holds the inverse square roots of the kept
    eigenvalues.
    """

    mean: np.ndarray
    basis: np.ndarray
    scale: np.ndarray
    kept: int

    def apply(self, X):
        return ((np.asarray(X, dtype=np.float64) - self.mean) @ self.basis) * self.scale


def load_features(path):
    """Read a RELF file into an N x D float64 matrix.

    Raises FormatError for a missing file, bad magic/version, or a payload
    whose length disagrees with the header, and DataError for non-finite
    entries.
    """
    with open_binary(path, RELF_MAGIC, RELF_VERSION) as (handle, n, d, size):
        if n < 1 or d < 1:
            raise FormatError(f"{path}: header declares empty matrix ({n} x {d})")
        if size != n * d * 4:
            raise FormatError(
                f"{path}: payload holds {size // 4} float32 values, "
                f"header declares {n * d}"
            )
        X = read_array(handle, path, "<f4", n * d).reshape(n, d)
    if not np.all(np.isfinite(X)):
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise DataError(f"{path}: non-finite entry in row {bad}")
    return X.astype(np.float64)


def stored_features(X):
    """X as a RELF file stores it: a little-endian float32 array; widened
    to float64 it is what load_features reads back. Raises DataError
    unless X is 2-D, non-empty and finite in float32."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"feature matrix must be 2-D and non-empty, got shape {X.shape}")
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(X, dtype="<f4")
    if not np.all(np.isfinite(stored)):
        raise DataError("refusing to write non-finite feature values "
                        "(float32 holds magnitudes up to 3.4e38)")
    return stored


def save_features(path, X):
    """Write a matrix as a RELF file (values stored as little-endian float32)."""
    stored = stored_features(X)
    with atomic_write(path) as handle:
        handle.write(HEADER.pack(RELF_MAGIC, RELF_VERSION, *stored.shape))
        handle.write(stored)


# pca_whiten's relative eigenvalue cutoff, and the whiten step's default.
DEFAULT_EPS = 1e-10


def pca_whiten(X, eps=DEFAULT_EPS):
    """PCA-whiten rows of X; returns (whitened matrix, WhitenStats).

    Keeps every principal direction whose covariance eigenvalue exceeds
    max(eps, max(N, D) * float64 epsilon) * lambda_max, the tolerance of
    numpy.linalg.matrix_rank (whitening, not dimensionality reduction: only
    numerically null directions are dropped, however small eps is). The
    output has zero mean and identity sample covariance on the kept
    components. One eigendecomposition, of the D x D covariance, serves
    every shape, so D > N costs O(D^3) however small N is (5.6 s at
    N = 100, D = 4096 on a 2-vCPU VM), although such data keeps at most
    N - 1 directions and whitens to a regular simplex: every pairwise
    cosine is -1/(N - 1). Raises ConfigError unless 0 < eps < 1, and
    DataError naming the first row with a non-finite entry.
    """
    if not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise DegenerateInputError(f"whitening needs at least 2 samples, got {n}")
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, refused below
        mean = X.mean(axis=0)
    if not np.all(np.isfinite(mean)):
        # A non-finite entry makes its column's mean non-finite; only then
        # are the rows scanned, a chunk at a time, to name the first.
        for start in range(0, n, _CHUNK_ROWS):
            bad = np.flatnonzero(~np.isfinite(X[start:start + _CHUNK_ROWS]).all(axis=1))
            if bad.size:
                raise DataError(f"row {start + int(bad[0])} has a non-finite entry; "
                                "cannot whiten")
    Xc = X - mean

    eigvals, eigvecs = np.linalg.eigh((Xc.T @ Xc) / (n - 1))
    lam_max = float(eigvals[-1])
    if lam_max <= 0.0:
        raise DegenerateInputError("input has rank 0 after centering (all rows identical)")

    # eigh sorts ascending, so the kept indices reversed are in descending
    # order; indexing with them copies basis contiguously, where a reversed
    # view would slow Xc @ basis.
    tol = max(eps, max(n, d) * np.finfo(np.float64).eps) * lam_max
    kept = np.flatnonzero(eigvals > tol)[::-1]
    basis = eigvecs[:, kept]
    lams = eigvals[kept]

    # Deterministic sign: largest-magnitude entry of each column positive.
    flip = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])] < 0
    basis[:, flip] *= -1.0

    stats = WhitenStats(mean=mean, basis=basis, scale=1.0 / np.sqrt(lams), kept=int(lams.size))
    # stats.apply(X), bit for bit, without the centred copy alive during the scaling.
    out = Xc @ basis
    del Xc
    out *= stats.scale
    return out, stats


def _row_norms(X):
    """The Euclidean norm of every row of the float64 matrix X, computed
    _CHUNK_ROWS rows at a time: the bits of np.linalg.norm(X, axis=1)
    without its N x D scratch.

    Raises DataError naming the first row whose norm is not finite (a NaN
    or infinite entry, or an overflowing sum of squares), and
    DegenerateInputError naming the first row whose norm is below 1e-12.
    """
    norms = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _CHUNK_ROWS):
        norms[start:start + _CHUNK_ROWS] = np.linalg.norm(X[start:start + _CHUNK_ROWS], axis=1)
    bad = ~np.isfinite(norms)
    if np.any(bad):
        raise DataError(f"row {int(np.flatnonzero(bad)[0])} has a non-finite norm; "
                        "cannot normalize")
    tiny = norms < 1e-12
    if np.any(tiny):
        raise DegenerateInputError(
            f"row {int(np.flatnonzero(tiny)[0])} has near-zero norm; cannot normalize"
        )
    return norms


def l2_normalize(X):
    """Scale every row to unit Euclidean norm; raises as _row_norms does."""
    X = np.asarray(X, dtype=np.float64)
    return X / _row_norms(X)[:, None]


def unit_rows(X):
    """The float32 unit rows of X: l2_normalize(X).astype(np.float32), bit
    for bit, filled _CHUNK_ROWS rows at a time, so that no N x D float64
    scratch is allocated beside X. Every row's norm is checked first, with
    l2_normalize's refusals."""
    X = np.asarray(X, dtype=np.float64)
    norms = _row_norms(X)
    out = np.empty(X.shape, dtype=np.float32)
    for start in range(0, X.shape[0], _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        # A float64 division rounded to float32 on output, as astype rounds.
        np.divide(X[start:stop], norms[start:stop, None], out=out[start:stop])
    return out
