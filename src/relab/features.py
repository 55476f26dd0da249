"""Embedding matrices: binary IO and the preprocessing applied before diffusion.

Features enter the pipeline as RELF files (a trivial binary container for an
N x D float32 matrix) and are PCA-whitened and L2-normalized before any
graph is built, mirroring standard retrieval practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, FormatError
from .fileio import HEADER, atomic_write, read_binary

RELF_MAGIC = b"RELF"
RELF_VERSION = 1


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
    raw, n, d = read_binary(path, RELF_MAGIC, RELF_VERSION)
    if n < 1 or d < 1:
        raise FormatError(f"{path}: header declares empty matrix ({n} x {d})")
    payload = raw[HEADER.size:]
    expected = n * d * 4
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload holds {len(payload) // 4} float32 values, "
            f"header declares {n * d}"
        )
    X = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    if not np.all(np.isfinite(X)):
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise DataError(f"{path}: non-finite entry in row {bad}")
    return X.astype(np.float64)


def save_features(path, X):
    """Write a matrix as a RELF file (values stored as little-endian float32)."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"feature matrix must be 2-D and non-empty, got shape {X.shape}")
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(X, dtype="<f4")
    if not np.all(np.isfinite(stored)):
        raise DataError("refusing to write non-finite feature values "
                        "(float32 holds magnitudes up to 3.4e38)")
    n, d = X.shape
    with atomic_write(path) as handle:
        handle.write(HEADER.pack(RELF_MAGIC, RELF_VERSION, n, d))
        handle.write(stored.tobytes())


def pca_whiten(X, eps=1e-10):
    """PCA-whiten rows of X; returns (whitened matrix, WhitenStats).

    Keeps every principal direction whose covariance eigenvalue exceeds
    max(eps, max(N, D) * float64 epsilon) * lambda_max, the tolerance of
    numpy.linalg.matrix_rank (whitening, not dimensionality reduction: only
    numerically null directions are dropped, however small eps is). The
    output has zero mean and identity sample covariance on the kept
    components. Uses the D x D covariance eigendecomposition when D <= N
    and the N x N Gram (dual) path otherwise. Raises ConfigError unless
    0 < eps < 1.
    """
    if not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise DegenerateInputError(f"whitening needs at least 2 samples, got {n}")
    mean = X.mean(axis=0)
    Xc = X - mean

    if d <= n:
        cov = (Xc.T @ Xc) / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
    else:
        gram = (Xc @ Xc.T) / (n - 1)
        gvals, gvecs = np.linalg.eigh(gram)
        # Covariance eigenvectors recovered from Gram eigenvectors:
        # u = Xc^T v / sqrt((n-1) * lambda), valid only for lambda > 0.
        positive = gvals > 0
        eigvals = np.where(positive, gvals, 0.0)
        denom = np.sqrt(np.where(positive, gvals, 1.0) * (n - 1))
        eigvecs = (Xc.T @ gvecs) / denom
        eigvecs[:, ~positive] = 0.0

    lam_max = float(eigvals.max(initial=0.0))
    if lam_max <= 0.0:
        raise DegenerateInputError("input has rank 0 after centering (all rows identical)")

    keep = eigvals > max(eps, max(n, d) * np.finfo(np.float64).eps) * lam_max
    order = np.argsort(eigvals[keep], kind="stable")[::-1]
    basis = eigvecs[:, keep][:, order]
    lams = eigvals[keep][order]

    # Deterministic sign: largest-magnitude entry of each column positive.
    flip = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])] < 0
    basis[:, flip] *= -1.0

    stats = WhitenStats(mean=mean, basis=basis, scale=1.0 / np.sqrt(lams), kept=int(lams.size))
    return Xc @ basis * stats.scale, stats


def l2_normalize(X):
    """Scale every row to unit Euclidean norm.

    Raises DataError naming the first row whose norm is not finite (a NaN
    or infinite entry, or an overflowing sum of squares), and
    DegenerateInputError naming the first row whose norm is below 1e-12.
    """
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    bad = ~np.isfinite(norms)
    if np.any(bad):
        raise DataError(f"row {int(np.flatnonzero(bad)[0])} has a non-finite norm; "
                        "cannot normalize")
    tiny = norms < 1e-12
    if np.any(tiny):
        raise DegenerateInputError(
            f"row {int(np.flatnonzero(tiny)[0])} has near-zero norm; cannot normalize"
        )
    return X / norms[:, None]
