"""Cosine-power affinity graphs and their symmetric degree normalization.

The affinity between two samples is their cosine similarity clamped at zero
and raised to a sharpening exponent (gamma, default 3), with a zero
diagonal. Each node keeps its k strongest neighbours and the graph is
symmetrized with an elementwise max. Keeping every neighbour with a
positive affinity is the dense graph (k = N - 1); k=None follows auto_k,
which keeps it up to DENSE_NODE_LIMIT samples and DEFAULT_SPARSE_K
neighbours above, so no default builds an N x N graph at scale.

There is one construction for both. It never holds the N x N
similarities: it computes them in blocks of _BLOCK_ROWS rows with one
float32 GEMM each, from float32 unit rows, written into a buffer
allocated once, and selects each block's neighbours before the next
GEMM. The kept cosines are widened to float64 before gamma is applied,
so the affinities are float64 powers of float32 similarities.

Each row keeps only its survivors: the affinities at or above a positive
bound, packed into a small padded matrix in column order. When k is below
g = n // _GROUP_COLS, column j + i * g (i < _GROUP_COLS) is in group j,
and the bound is the k-th largest of the row's g group maxima, floored at
the smallest positive float32. k distinct columns reach it, so it never
exceeds the row's k-th largest affinity: every top-k column, and every
column tied at the k-th value, survives. Only the columns of the groups
whose maximum reaches the bound are read again, with the last
n % _GROUP_COLS columns, which are in no group: about 51 survivors of
10k columns per row on the benchmark data at k = 50. Otherwise, as in the
dense graph, the bound is the smallest positive float32. Zeros never
survive, so a row with fewer than k positive affinities keeps them all.

A block in which no row has more than k survivors keeps them as they
are, as the dense graph (k = n - 1) always does. Otherwise one stable
sort per block orders each row's packed survivors, and each row keeps
its first k: ties at the k-th value keep the lowest columns. The kept
columns (int32) go straight into a CSR from per-row counts.

The blocked loop runs in its own function, so the unit rows, the GEMM
buffer and each block's temporaries are freed before the graph is
symmetrized; the per-block lists are freed once concatenated, and gamma
is applied in place. Symmetrizing holds the directed CSR and its CSR
transpose. Where both have the same pattern, as every dense graph does,
the max is taken in place into the directed graph's values; otherwise
scipy's max(A, A^T) builds the union, whose arrays, sized for
nnz(A) + nnz(A^T), are then copied down to its nnz. normalize builds S
on A's own index arrays and leaves A as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, FormatError, IsolatedNodeError
from .features import unit_rows
from .fileio import HEADER, atomic_write, open_binary, read_array

DEFAULT_GAMMA = 3.0
# Up to this many nodes an omitted k keeps every positive affinity; above
# it, DEFAULT_SPARSE_K neighbours.
DENSE_NODE_LIMIT = 2000
DEFAULT_SPARSE_K = 50

RELG_MAGIC = b"RELG"
RELG_VERSION = 1

# Rows per similarity GEMM. The last bits of the affinities depend on it:
# BLAS blocks the product by its shape, and 128-row blocks already change
# some values, so changing it changes graph files.
_BLOCK_ROWS = 256
# Columns per group; a row's group maxima bound its k-th largest affinity
# from below. The kept set does not depend on it.
_GROUP_COLS = 8
# The least bound: zeros and negative affinities never survive. It is a
# float32, since a float64 5e-324 rounds to 0 in the float32 bounds.
_MIN_POSITIVE = np.nextafter(np.float32(0.0), np.float32(1.0))
# Index values converted to uint64 per file write, bounding that copy (8 MB).
_WRITE_CHUNK = 1 << 20
# Entries per dinv gather in normalize, bounding that temporary (512 KB).
_GATHER_CHUNK = 1 << 16


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
    A is symmetrized entrywise as max(A_ij, A_ji). k=None follows
    auto_k(N): every positive affinity (the dense graph, through the same
    blocked loop) up to DENSE_NODE_LIMIT samples, DEFAULT_SPARSE_K
    neighbours above it, where the dense graph is k = N - 1.
    Raises ConfigError unless gamma > 0 and k is None or 1 <= k < N, and
    when gamma underflows a kept affinity to zero.
    """
    n = len(X)
    if not gamma > 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if k is not None and not 1 <= k < n:
        raise ConfigError(f"k must satisfy 1 <= k < n_samples={n}, got {k}")
    if k is None:
        k = auto_k(n) or n - 1  # auto_k's None is the dense graph
    matrix = _topk_affinity(X, float(gamma), int(k))
    return AffinityGraph(n=n, matrix=matrix)


def _topk_affinity(X, gamma, k):
    """Directed top-k cosine^gamma rows of X, max-symmetrized.

    Equal to a stable argsort of each negated row truncated to k (ties at
    the k-th value keep the lowest column indices), then dropping zeros.
    """
    n = len(X)
    indptr, cols, vals = _directed_rows(X, k)
    indices = np.concatenate(cols)
    data = np.concatenate(vals)
    del cols, vals
    np.power(data, gamma, out=data)
    if not data.all():  # every kept cosine is positive, so a zero is an underflow
        raise ConfigError(f"gamma={gamma} underflows a positive affinity to 0; "
                          "use a smaller gamma")
    directed = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    del data, indices, indptr
    return _symmetrize(directed)


def _symmetrize(directed):
    """max(A, A^T) of a canonical CSR A with positive values, as scipy's
    A.maximum(A.T) gives it: canonical, with the same bits.

    When A^T has A's pattern the max is taken in place into A's values
    and A is returned; otherwise scipy builds the union. The in-place
    result keeps A's index dtype, where scipy's turns int64 once
    2 * nnz(A) passes the int32 range.
    """
    T = directed.T.tocsr()
    if (np.array_equal(T.indptr, directed.indptr)
            and np.array_equal(T.indices, directed.indices)):
        np.maximum(directed.data, T.data, out=directed.data)
        return directed
    union = directed.maximum(T)
    del T
    # scipy sizes the union's arrays for nnz(A) + nnz(A^T) entries and keeps
    # them when the union fills more than half; normalize's S shares the
    # indices, so both arrays are copied down to the union's nnz.
    union.data = union.data.copy()
    union.indices = union.indices.copy()
    return union


def _directed_rows(X, k):
    """The directed graph's CSR row offsets and per-block kept columns
    (int32) and cosines, widened to float64 but before gamma. The unit rows
    and the GEMM buffer are freed when it returns."""
    V = unit_rows(X)
    n = V.shape[0]
    groups = n // _GROUP_COLS
    buffer = np.empty((min(_BLOCK_ROWS, n), n), dtype=np.float32)
    counts = np.empty(n, dtype=np.int64)
    cols = []
    vals = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = buffer[:stop - start]
        np.matmul(V[start:stop], V.T, out=block)
        block[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if k < groups:
            flat = _group_survivors(block, groups, k)
        else:
            flat = np.flatnonzero(block >= _MIN_POSITIVE)
        counts[start:stop], row_cols, row_vals = _select_survivors(block, flat, k)
        cols.append(row_cols.astype(np.int32))
        vals.append(row_vals.astype(np.float64))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols, vals


def _group_survivors(rows, groups, k):
    """Sorted flat indices into rows of the entries at or above each row's
    group bound (see the module docstring); k < groups."""
    m, n = rows.shape
    width = groups * _GROUP_COLS
    grouped = rows[:, :width].reshape(m, _GROUP_COLS, groups)
    gmax = grouped.max(axis=1)
    bound = np.partition(gmax, groups - k, axis=1)[:, groups - k]
    np.maximum(bound, _MIN_POSITIVE, out=bound)
    r, j = np.divmod(np.flatnonzero(gmax >= bound[:, None]), groups)
    t, i = np.divmod(np.flatnonzero(grouped[r, :, j] >= bound[r, None]), _GROUP_COLS)
    flat = r[t] * n + j[t] + i * groups
    if width < n:
        tail_r, tail_c = np.divmod(np.flatnonzero(rows[:, width:] >= bound[:, None]), n - width)
        flat = np.concatenate([flat, tail_r * n + width + tail_c])
    flat.sort()
    return flat


def _select_survivors(rows, flat, k):
    """Each row's kept (count, columns, affinities), columns ascending.

    flat holds the sorted flat indices into rows of the survivors: every
    entry at or above a positive bound no larger than its row's k-th
    largest. A row keeps its k strongest survivors, ties to the lowest
    columns, or all of them when it has at most k.
    """
    m, n = rows.shape
    x = rows.ravel()[flat]
    row_counts = np.diff(np.searchsorted(flat, np.arange(m + 1) * n))
    # Columns in place: at k = n - 1 the survivors are the result, and a
    # row-index temporary beside each block's kept arrays fragmented the
    # heap enough to raise the pipeline's peak RSS by 7 MB at N = 2000.
    c = np.remainder(flat, n, out=flat)
    if row_counts.max() <= k:
        return row_counts, c, x
    # Survivors packed left in column order, so the stable sort keeps the
    # lowest columns among ties; the zero padding sorts after every survivor
    # and is never kept.
    packed = np.arange(row_counts.max()) < row_counts[:, None]
    neg = np.zeros(packed.shape, dtype=rows.dtype)
    neg[packed] = -x
    keep = np.zeros_like(packed)
    np.put_along_axis(keep, np.argsort(neg, axis=1, kind="stable")[:, :k], True, axis=1)
    keep = keep[packed]
    return np.minimum(row_counts, k), c[keep], x[keep]


def normalize(graph):
    """Symmetrically normalize an affinity graph: S = D^{-1/2} A D^{-1/2}.

    S shares A's index arrays (indices and indptr) and holds one new
    float64 array of values; A is left as it is. Raises IsolatedNodeError
    listing every node whose degree (row sum) is zero.
    """
    A = graph.matrix
    degrees = np.asarray(A.sum(axis=1)).ravel()
    isolated = np.flatnonzero(degrees <= 0.0)
    if isolated.size:
        raise IsolatedNodeError(isolated.tolist())
    dinv = 1.0 / np.sqrt(degrees)
    # Entry (i, j) is (dinv_i * A_ij) * dinv_j, the bits of D^{-1/2} @ A @ D^{-1/2}.
    data = np.repeat(dinv, np.diff(A.indptr))
    data *= A.data
    for start in range(0, len(data), _GATHER_CHUNK):
        data[start:start + _GATHER_CHUNK] *= dinv[A.indices[start:start + _GATHER_CHUNK]]
    S = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
    return NormalizedGraph(n=graph.n, s=S, degrees=degrees)


def save_graph(path, graph):
    """Write an affinity graph in the RELG binary format (CSR, little-endian).

    The file holds the canonical form: sorted, duplicates summed, explicit
    zeros dropped. graph.matrix is left as it is; it is copied only when
    it is not already canonical.
    """
    A = graph.matrix.tocsr()
    if not (A.has_canonical_format and A.data.all()):
        A = A.copy()
        A.sum_duplicates()
        A.eliminate_zeros()
        A.sort_indices()
    with atomic_write(path) as handle:
        handle.write(HEADER.pack(RELG_MAGIC, RELG_VERSION, A.shape[0], A.nnz))
        _write_u8(handle, A.indptr)
        _write_u8(handle, A.indices)
        handle.write(np.ascontiguousarray(A.data, dtype="<f8"))


def _write_u8(handle, values):
    """Write nonnegative integers as little-endian uint64, _WRITE_CHUNK at a time."""
    for start in range(0, len(values), _WRITE_CHUNK):
        handle.write(values[start:start + _WRITE_CHUNK].astype("<u8"))


def load_graph(path):
    """Read a RELG file back into an AffinityGraph, validating its invariants.

    Each array is read into a buffer of its own, so the file's bytes are
    never held whole; besides the result, it holds the int64 columns while
    they are narrowed, then the transpose the symmetry check compares.
    """
    with open_binary(path, RELG_MAGIC, RELG_VERSION) as (handle, n, nnz, size):
        if n < 1:
            raise FormatError(f"{path}: header declares empty graph")
        expected = (n + 1) * 8 + nnz * 8 + nnz * 8
        if size != expected:
            raise FormatError(f"{path}: body is {size} bytes, header implies {expected}")
        # The uint64 offsets and columns read as int64: a value of 2**63 or
        # more reads as negative, and the checks below refuse it.
        indptr = read_array(handle, path, "<i8", n + 1)
        indices = read_array(handle, path, "<i8", nnz)
        values = read_array(handle, path, "<f8", nnz)

    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path}: corrupt CSR row offsets")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise FormatError(f"{path}: column index out of range")
    A = sp.csr_matrix((values, indices, indptr), shape=(n, n))
    del values, indices, indptr
    if not np.all(np.isfinite(A.data)):
        raise DataError(f"{path}: non-finite affinity value")
    if np.any(A.data < 0):
        raise DataError(f"{path}: negative affinity value")
    if np.any(A.diagonal() != 0):
        raise DataError(f"{path}: affinity diagonal must be zero")
    A.sum_duplicates()
    A.eliminate_zeros()
    # Both canonical, so A is symmetric exactly when the arrays are equal.
    T = A.T.tocsr()
    if not all(np.array_equal(getattr(A, name), getattr(T, name))
               for name in ("indptr", "indices", "data")):
        raise DataError(f"{path}: affinity matrix is not symmetric")
    return AffinityGraph(n=int(n), matrix=A)
