"""Cosine-power affinity graphs and their symmetric degree normalization.

The affinity between two samples is their cosine similarity clamped at zero
and raised to a sharpening exponent (gamma, default 3), with a zero
diagonal. Each node keeps its k strongest neighbours and the graph is
symmetrized with an elementwise max; k=None keeps every neighbour with a
positive affinity, which is the dense graph.

There is one construction for both. It never holds the N x N
similarities: it computes them in blocks of _BLOCK_ROWS rows with one
float64 GEMM each, written into a buffer allocated once, and selects each
block _SELECT_ROWS rows at a time.

Selection first bounds each row's k-th largest affinity from below by the
k-th largest of its first _WINDOW_COLS columns. Every top-k column, and
every column tied at the k-th value, is at or above that bound, so only
those survivors (about 130 of 10k columns on the benchmark data) go on to
argpartition, packed into a small padded matrix in column order. A slice
skips the bound and partitions its full rows when the window is not
narrower than the row, k is not below the window width, or some row's
bound is not positive (fewer than k positive affinities in its window);
the dense graph always does.

Either way a row's partitioned set is already the answer when its k-th
affinity is strictly larger than its (k+1)-th, or is zero (zeros are
dropped). Only rows tied at a positive k-th affinity fall back to a stable
sort, so ties keep the lowest column indices; at k = n - 1 every positive
affinity is kept and no row ties. The kept columns go straight into a CSR
from per-row counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, FormatError, IsolatedNodeError
from .features import l2_normalize
from .fileio import HEADER, atomic_write, read_binary

DEFAULT_GAMMA = 3.0
# Dense N^2 storage is kept up to this many nodes; above it the CLI defaults
# to top-k sparsification.
DENSE_NODE_LIMIT = 2000
DEFAULT_SPARSE_K = 50

RELG_MAGIC = b"RELG"
RELG_VERSION = 1

# Rows per similarity GEMM. The last bits of the affinities depend on it:
# BLAS blocks the product by its shape, and 128-row blocks already change
# some values, so changing it changes graph files.
_BLOCK_ROWS = 256
# Rows per argpartition call inside a block; the kept set does not depend on it.
_SELECT_ROWS = 32
# Leading columns whose k-th largest affinity bounds a row's k-th largest
# from below. The kept set does not depend on it; at N = 10k, 1024 and 2048
# columns let through enough survivors to be slower than 4096.
_WINDOW_COLS = 4096


@dataclass
class AffinityGraph:
    """Symmetric nonnegative affinity matrix with zero diagonal (CSR)."""

    n: int
    matrix: sp.csr_matrix


@dataclass
class NormalizedGraph:
    """Degree-normalized affinity S = D^{-1/2} A D^{-1/2} plus the degrees."""

    n: int
    s: sp.csr_matrix
    degrees: np.ndarray


def auto_k(n):
    """Default sparsification: dense up to DENSE_NODE_LIMIT nodes, else top-k."""
    return None if n <= DENSE_NODE_LIMIT else DEFAULT_SPARSE_K


def build_affinity(X, gamma=DEFAULT_GAMMA, k=None):
    """Build the affinity graph over the rows of X.

    A_ij = max(0, cos(x_i, x_j))^gamma off the diagonal. Each node keeps
    its k largest affinities (ties broken toward lower column index), then
    A is symmetrized entrywise as max(A_ij, A_ji). k=None keeps every
    positive affinity (the dense graph) through the same blocked loop.
    Raises ConfigError when gamma underflows a kept affinity to zero.
    """
    if not gamma > 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    V = l2_normalize(X)
    n = V.shape[0]
    if k is not None and not 1 <= k < n:
        raise ConfigError(f"k must satisfy 1 <= k < n_samples={n}, got {k}")
    matrix = _topk_affinity(V, float(gamma), n - 1 if k is None else int(k))
    return AffinityGraph(n=n, matrix=matrix)


def _topk_affinity(V, gamma, k):
    """Directed top-k cosine^gamma rows of V, max-symmetrized.

    Equal to a stable argsort of each negated row truncated to k (ties at
    the k-th value keep the lowest column indices), then dropping zeros.
    """
    n = V.shape[0]
    windowed = k < _WINDOW_COLS < n
    buffer = np.empty((min(_BLOCK_ROWS, n), n))
    counts = np.empty(n, dtype=np.int64)
    cols = []
    vals = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = buffer[:stop - start]
        np.matmul(V[start:stop], V.T, out=block)
        block[np.arange(stop - start), np.arange(start, stop)] = 0.0
        for lo in range(start, stop, _SELECT_ROWS):
            rows = block[lo - start:lo - start + _SELECT_ROWS]
            # Each row's k-th largest affinity among its window columns.
            bound = np.partition(rows[:, :_WINDOW_COLS], _WINDOW_COLS - k,
                                 axis=1)[:, _WINDOW_COLS - k] if windowed else None
            if bound is not None and bound.min() > 0.0:
                row_counts, row_cols, row_vals = _select_survivors(rows, bound, k)
            else:
                row_counts, row_cols, row_vals = _select_full(rows, k)
            counts[lo:lo + rows.shape[0]] = row_counts
            cols.append(row_cols)
            vals.append(row_vals)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.power(np.concatenate(vals), gamma)
    if not data.all():  # every kept cosine is positive, so a zero is an underflow
        raise ConfigError(f"gamma={gamma} underflows a positive affinity to 0; "
                          "use a smaller gamma")
    directed = sp.csr_matrix((data, np.concatenate(cols), indptr), shape=(n, n))
    # A canonical CSR: sorted and duplicate-free.
    return directed.maximum(directed.T)


def _stable_topk(neg, k):
    """Positions of each row's k smallest entries of neg (k < neg.shape[1]),
    the set a stable argsort puts first."""
    part = np.argpartition(neg, k, axis=1)
    top = part[:, :k]
    # initial: a one-row graph has k = 0 and keeps nothing.
    kth = np.take_along_axis(neg, top, axis=1).max(axis=1, initial=-np.inf)
    after = np.take_along_axis(neg, part[:, k:k + 1], axis=1)[:, 0]
    # The partition's set is the stable one unless the k-th value is a
    # positive affinity shared with the (k+1)-th; such rows take the
    # stable sort, which keeps the lowest tied columns.
    for i in np.flatnonzero((after == kth) & (kth < 0.0)):
        top[i] = np.argsort(neg[i], kind="stable")[:k]
    return top


def _select_full(rows, k):
    """Per-row counts, columns and affinities of each row's positive top k.

    Selects over every column; overwrites rows.
    """
    n = rows.shape[1]
    np.clip(rows, 0.0, None, out=rows)
    neg = np.negative(rows, out=rows)  # ascending order = strongest first
    top = _stable_topk(neg, k)
    positive = np.take_along_axis(neg, top, axis=1) < 0.0
    # Dropped columns become n, which sorts after every kept one.
    top = np.sort(np.where(positive, top, n), axis=1)
    kept = top < n
    row_counts = kept.sum(axis=1)
    row_cols = top[kept]
    return row_counts, row_cols, -neg[np.repeat(np.arange(neg.shape[0]), row_counts), row_cols]


def _select_survivors(rows, bound, k):
    """_select_full over the columns at or above each row's positive bound.

    Each row has at least k survivors, all positive, so it keeps exactly k.
    """
    flat = np.flatnonzero(rows >= bound[:, None])
    r, c = np.divmod(flat, rows.shape[1])
    x = rows.ravel()[flat]
    row_counts = np.bincount(r, minlength=rows.shape[0])
    starts = np.cumsum(row_counts) - row_counts
    # Survivors packed left in column order. The zero padding never reaches
    # a row's top k, and k + 1 columns give every row a (k+1)-th entry.
    neg = np.zeros((rows.shape[0], max(int(row_counts.max()), k + 1)))
    neg[r, np.arange(flat.size) - starts[r]] = -x
    top = (starts[:, None] + np.sort(_stable_topk(neg, k), axis=1)).ravel()
    return np.full(rows.shape[0], k), c[top], x[top]


def normalize(graph):
    """Symmetrically normalize an affinity graph: S = D^{-1/2} A D^{-1/2}.

    Raises IsolatedNodeError listing every node whose degree (row sum)
    is zero.
    """
    A = graph.matrix
    degrees = np.asarray(A.sum(axis=1)).ravel()
    isolated = np.flatnonzero(degrees <= 0.0)
    if isolated.size:
        raise IsolatedNodeError(isolated.tolist())
    dinv = 1.0 / np.sqrt(degrees)
    scaler = sp.diags(dinv)
    S = (scaler @ A @ scaler).tocsr()
    return NormalizedGraph(n=graph.n, s=S, degrees=degrees)


def save_graph(path, graph):
    """Write an affinity graph in the RELG binary format (CSR, little-endian)."""
    A = graph.matrix.tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    n = A.shape[0]
    nnz = A.nnz
    with atomic_write(path) as handle:
        handle.write(HEADER.pack(RELG_MAGIC, RELG_VERSION, n, nnz))
        handle.write(A.indptr.astype("<u8").tobytes())
        handle.write(A.indices.astype("<u8").tobytes())
        handle.write(A.data.astype("<f8").tobytes())


def load_graph(path):
    """Read a RELG file back into an AffinityGraph, validating its invariants."""
    raw, n, nnz = read_binary(path, RELG_MAGIC, RELG_VERSION)
    if n < 1:
        raise FormatError(f"{path}: header declares empty graph")
    expected = (n + 1) * 8 + nnz * 8 + nnz * 8
    body = raw[HEADER.size:]
    if len(body) != expected:
        raise FormatError(
            f"{path}: body is {len(body)} bytes, header implies {expected}"
        )
    offset = 0
    indptr = np.frombuffer(body, dtype="<u8", count=n + 1, offset=offset).astype(np.int64)
    offset += (n + 1) * 8
    indices = np.frombuffer(body, dtype="<u8", count=nnz, offset=offset).astype(np.int64)
    offset += nnz * 8
    values = np.frombuffer(body, dtype="<f8", count=nnz, offset=offset).astype(np.float64)

    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path}: corrupt CSR row offsets")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise FormatError(f"{path}: column index out of range")
    A = sp.csr_matrix((values, indices, indptr), shape=(n, n))
    if not np.all(np.isfinite(A.data)):
        raise DataError(f"{path}: non-finite affinity value")
    if np.any(A.data < 0):
        raise DataError(f"{path}: negative affinity value")
    if np.any(A.diagonal() != 0):
        raise DataError(f"{path}: affinity diagonal must be zero")
    if (A != A.T).nnz != 0:
        raise DataError(f"{path}: affinity matrix is not symmetric")
    A.sum_duplicates()
    A.eliminate_zeros()
    return AffinityGraph(n=int(n), matrix=A)
