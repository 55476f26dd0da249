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

Each row keeps only its survivors: the affinities at or above a positive
bound, packed into a small padded matrix in column order. The bound is the
smallest positive float, raised to the k-th largest affinity among the
row's first _WINDOW_COLS columns when k is below the window and the window
is narrower than the row. That k-th value bounds the row's k-th largest
from below, so every top-k column, and every column tied at the k-th
value, survives: about 130 of 10k columns per row on the benchmark data.
Zeros never survive, so a row whose window holds fewer than k positive
affinities, or that has no window, keeps its k strongest positive ones.

A slice in which no row has more than k survivors keeps them as they are,
as the dense graph (k = n - 1) always does. Otherwise each row's
partitioned set is already the answer when its k-th survivor is strictly
larger than its (k+1)-th or it has at most k survivors. Only rows tied at
the k-th affinity fall back to a stable sort, so ties keep the lowest
column indices. The kept columns go straight into a CSR from per-row
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, FormatError, IsolatedNodeError
from .features import l2_normalize
from .fileio import HEADER, atomic_write, read_binary

DEFAULT_GAMMA = 3.0
# Up to this many nodes the CLI and the pipeline steps keep every positive
# affinity (k=None); above it they keep DEFAULT_SPARSE_K neighbours.
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
# The least bound: zeros and negative affinities never survive.
_MIN_POSITIVE = np.nextafter(0.0, 1.0)


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


def check_affinity(n, gamma, k):
    """Raise ConfigError unless gamma > 0 and k is None or 1 <= k < n."""
    if not gamma > 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if k is not None and not 1 <= k < n:
        raise ConfigError(f"k must satisfy 1 <= k < n_samples={n}, got {k}")


def build_affinity(X, gamma=DEFAULT_GAMMA, k=None):
    """Build the affinity graph over the rows of X.

    A_ij = max(0, cos(x_i, x_j))^gamma off the diagonal. Each node keeps
    its k largest affinities (ties broken toward lower column index), then
    A is symmetrized entrywise as max(A_ij, A_ji). k=None keeps every
    positive affinity (the dense graph) through the same blocked loop.
    Raises ConfigError for the settings check_affinity refuses, and when
    gamma underflows a kept affinity to zero.
    """
    n = len(X)
    check_affinity(n, gamma, k)
    V = l2_normalize(X)
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
            bound = _MIN_POSITIVE
            if windowed:
                # Each row's k-th largest affinity among its window columns.
                kth = np.partition(rows[:, :_WINDOW_COLS], _WINDOW_COLS - k,
                                   axis=1)[:, _WINDOW_COLS - k]
                bound = np.maximum(kth, _MIN_POSITIVE)[:, None]
            row_counts, row_cols, row_vals = _select_survivors(rows, bound, k)
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
    kth = np.take_along_axis(neg, top, axis=1).max(axis=1)
    after = np.take_along_axis(neg, part[:, k:k + 1], axis=1)[:, 0]
    # The partition's set is the stable one unless the k-th value is a
    # positive affinity shared with the (k+1)-th; such rows take the
    # stable sort, which keeps the lowest tied columns.
    for i in np.flatnonzero((after == kth) & (kth < 0.0)):
        top[i] = np.argsort(neg[i], kind="stable")[:k]
    return top


def _select_survivors(rows, bound, k):
    """Each row's kept (count, columns, affinities), columns ascending.

    The survivors are the entries at or above bound, a positive column of
    per-row bounds or one bound for every row. A row keeps its k strongest
    survivors, or all of them when it has at most k.
    """
    m, n = rows.shape
    flat = np.flatnonzero(rows >= bound)
    x = rows.ravel()[flat]
    ends = np.searchsorted(flat, np.arange(1, m + 1) * n)
    row_counts = np.diff(ends, prepend=0)
    # Columns in place: at k = n - 1 the survivors are the result, and a
    # row-index temporary beside each slice's kept arrays fragmented the
    # heap enough to raise the pipeline's peak RSS by 7 MB at N = 2000.
    c = np.remainder(flat, n, out=flat)
    if row_counts.max() <= k:
        return row_counts, c, x
    starts = ends - row_counts
    r = np.repeat(np.arange(m), row_counts)
    # Survivors packed left in column order. The zero padding sorts after
    # every survivor, and k + 1 columns give every row a (k+1)-th entry.
    neg = np.zeros((m, max(int(row_counts.max()), k + 1)))
    neg[r, np.arange(c.size) - starts[r]] = -x
    top = np.sort(_stable_topk(neg, k), axis=1)
    top = (starts[:, None] + top)[top < row_counts[:, None]]
    return np.minimum(row_counts, k), c[top], x[top]


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
