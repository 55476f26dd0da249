"""Seed-label diffusion over a normalized graph, plus a 1-NN baseline.

Diffusion solves (I - alpha*S) F = Y, Y one-hot at the seeds, with a
block conjugate gradient over the class columns (the system is symmetric
positive definite for alpha < 1) and decodes labels as the row-wise
argmax of F. Two parts share that work. The CG source, _cg_blocks, is
the one block loop: it solves _BLOCK_ROWS class columns at a time from
the right-hand sides its caller builds, records each column's iteration
count and final residual, raises SolverError and yields each block of
whole columns. The argmax decoder, _argmax_decode, folds any such blocks
into running row maxima and their classes (ties to the lowest class),
finds the rows no block reaches and forces the seed labels. Both entry
points read the same blocks: diffuse is the decoder over the source, so
neither Y nor F is ever held whole and the decoding is bitwise that of
the whole F, and diffusion_scores lays the blocks side by side and
returns F. The nearest neighbor baseline skips the graph entirely and
copies each sample's cosine-closest seed label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, FormatError, SolverError
from .features import l2_normalize
from .fileio import (
    load_json,
    load_summarized_jsonl,
    save_json,
    save_summarized_jsonl,
    typed,
    typed_columns,
)

DEFAULT_ALPHA = 0.99
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000
# Class columns that share one sparse product with S per CG iteration. The
# block's scratch is a few block x N arrays; all C=100 columns at once cost
# more memory for no further speed.
_BLOCK_ROWS = 16


@dataclass
class SeedLabels:
    """The initial supervision: int64 columns index and label, plus C.

    The constructor sorts the pairs so that index ascends strictly, and
    raises ConfigError for n_classes < 1, a negative or repeated index,
    or a label outside [0, n_classes), naming the smallest such index.
    """

    index: np.ndarray  # int64
    label: np.ndarray  # int64
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 1:
            raise ConfigError(f"n_classes must be >= 1, got {self.n_classes}")
        index = np.asarray(self.index, dtype=np.int64)
        label = np.asarray(self.label, dtype=np.int64)
        if index.ndim != 1 or index.shape != label.shape:
            raise ConfigError(f"seed index {index.shape} and label {label.shape} "
                              "are not two 1-D columns of one length")
        order = np.argsort(index, kind="stable")
        self.index, self.label = index[order], label[order]
        if self.index.size and self.index[0] < 0:
            raise ConfigError(f"seed index {self.index[0]} is negative")
        repeated = self.index[1:][np.diff(self.index) == 0]
        if repeated.size:
            raise ConfigError(f"duplicate seed index {repeated[0]}")
        stray = self.label[(self.label < 0) | (self.label >= self.n_classes)]
        if stray.size:
            raise ConfigError(
                f"seed class {stray[0]} out of range for {self.n_classes} classes"
            )

    def __len__(self):
        return self.index.size

    def check_fits(self, n):
        """Raise DataError unless every seed index is below n and C <= n."""
        if self.index.size and self.index[-1] >= n:
            raise DataError(f"seed index {self.index[-1]} out of range for {n} samples")
        if self.n_classes > n:
            raise DataError(f"{self.n_classes} classes do not fit in {n} samples")


@dataclass
class DiffusionResult:
    """The labels decoded from the diffusion scores F, without F.

    labels and retrieval_score are F's row argmax (seeds forced) and row
    maxima. residual is the largest final relative residual over the class
    columns, and iterations holds each column's CG iteration count.
    zero_rows lists samples with no diffusion mass at all (disconnected
    from every seed); they decode to class 0 by the tie rule.
    """

    labels: np.ndarray
    retrieval_score: np.ndarray
    residual: float
    iterations: np.ndarray
    zero_rows: list[int] = field(default_factory=list)


def load_seeds(path):
    """Read a seeds JSON file: {"n_classes": C, "seeds": [{"index", "class"}...]}.

    Raises DegenerateInputError when the file holds no seed.
    """
    n_classes, entries = typed(path, "seeds file (int64 n_classes, seeds list)",
                               load_json(path), {"n_classes": int, "seeds": list})
    (index, label), fault = typed_columns(path, "seed (int64 index and class)", entries,
                                          {"index": int, "class": int})
    if fault is not None:
        raise fault
    if not index.size:
        raise DegenerateInputError(f"{path}: the seeds file holds no seed")
    try:
        return SeedLabels(index=index, label=label, n_classes=n_classes)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_seeds(path, seeds):
    """Write seeds in the JSON format load_seeds reads."""
    doc = {
        "n_classes": seeds.n_classes,
        "seeds": [{"index": i, "class": c}
                  for i, c in zip(seeds.index.tolist(), seeds.label.tolist())],
    }
    save_json(path, doc, indent=2, sort_keys=False)


def _block_cg(S, alpha, B, tol, max_iter):
    """Conjugate gradient on (I - alpha*S) x = b for every row b of B at once.

    B holds one right-hand side per row (columns x N) and is only read.
    Each row runs the textbook CG recurrence on its own: its two dot products
    per iteration are row-wise einsum reductions and its updates are
    elementwise, so its iterates are bitwise those of a single-column
    solve. einsum sums in one order whatever the BLAS thread count, where a
    1-D `@` or `norm` of more than about 10,000 elements is split across
    threads and rounds differently. The rows still iterating share one
    sparse product S @ M per iteration; a row is frozen and leaves that
    product once its relative residual reaches tol.

    Returns (X, relative_residual, iterations, failed): one entry per row,
    and the rows that exhausted max_iter, ascending, with their last
    residual in relative_residual.
    """
    m = B.shape[0]
    X = np.zeros(B.shape)
    rel = np.zeros(m)
    iterations = np.zeros(m, dtype=np.int64)
    bnorm = np.sqrt(np.einsum("ij,ij->i", B, B))
    active = np.flatnonzero(bnorm > 0.0)  # a zero right-hand side is solved by x = 0
    bnorm = bnorm[active]
    R = B[active]  # a contiguous copy: CG never writes into B
    D = R.copy()
    Xa = np.zeros_like(R)
    rs = np.einsum("ij,ij->i", R, R)
    for iteration in range(1, max_iter + 1):
        if active.size == 0:
            break
        # A D = D - alpha * (S D), row-contiguous like D.
        AD = np.multiply((S @ D.T).T, alpha, order="C")
        np.subtract(D, AD, out=AD)
        step = rs / np.einsum("ij,ij->i", D, AD)
        Xa += step[:, None] * D
        R -= step[:, None] * AD
        rs_next = np.einsum("ij,ij->i", R, R)
        done = np.sqrt(rs_next) <= tol * bnorm
        if done.any():
            finished = active[done]
            X[finished] = Xa[done]
            rel[finished] = np.sqrt(rs_next[done]) / bnorm[done]
            iterations[finished] = iteration
            keep = ~done
            active, bnorm, rs, rs_next = active[keep], bnorm[keep], rs[keep], rs_next[keep]
            Xa, R, D = Xa[keep], R[keep], D[keep]
        D *= (rs_next / rs)[:, None]
        D += R
        rs = rs_next
    rel[active] = np.sqrt(rs) / bnorm
    return X, rel, iterations, active


def check_solver(alpha, tol, max_iter):
    """Raise ConfigError unless 0 <= alpha < 1, tol is finite and positive
    and max_iter >= 1."""
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"alpha must satisfy 0 <= alpha < 1, got {alpha}")
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if not max_iter >= 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")


def _cg_blocks(graph, alpha, tol, max_iter, rhs, iterations, residuals):
    """The CG source: solve (I - alpha*S) F = Y for _BLOCK_ROWS class
    columns at a time, the only block loop of both entry points.

    rhs(lo, hi) returns the right-hand sides of classes lo..hi-1 as a
    (hi - lo) x N array. Yields (lo, X) per block, X holding the block's
    whole class columns as rows, and writes each column's CG iteration
    count and final relative residual into iterations and residuals, whose
    length is the number of columns. Raises SolverError for the lowest
    class of the first block that exhausts max_iter, carrying that class's
    final residual.
    """
    for lo in range(0, iterations.size, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, iterations.size)
        X, residuals[lo:hi], iterations[lo:hi], failed = _block_cg(
            graph.s, alpha, rhs(lo, hi), tol, max_iter)
        if failed.size:
            c = lo + int(failed[0])
            raise SolverError(
                f"diffusion did not converge for class {c} after {max_iter} "
                f"iterations (relative residual {residuals[c]:.3e})",
                residual=residuals[c],
            )
        yield lo, X


def _argmax_decode(blocks, n, seeds):
    """The argmax decoder over (lo, X) class blocks of an N-row F: returns
    (labels, row maxima, zero_rows).

    Each block replaces a row's running maximum only where it is strictly
    greater, and argmax takes the first maximum within it, so ties go to
    the lowest class as a whole-row argmax does. zero_rows are the rows no
    block reaches; every seed's label is then forced to its seed class.
    """
    best = np.full(n, -np.inf)
    labels = np.zeros(n, dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    for lo, X in blocks:
        block_labels = np.argmax(X, axis=0)
        block_best = X[block_labels, np.arange(n)]
        greater = block_best > best
        best[greater] = block_best[greater]
        labels[greater] = block_labels[greater] + lo
        reached |= X.any(axis=0)
        # Dropped before the source solves the next block: held across that
        # solve, they fragment the heap and raise peak RSS by 1.5 MB at N = 10k.
        del block_labels, block_best, greater
    labels[seeds.index] = seeds.label
    return labels, best, np.flatnonzero(~reached).tolist()


def diffusion_scores(graph, Y, alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve (I - alpha*S) F = Y for an N x C matrix Y; returns (F, each
    column's CG iteration count).

    F is the CG source's blocks side by side, the blocks diffuse decodes
    for Y one-hot at the seeds. Y is not modified. Raises ConfigError for
    the settings check_solver refuses, DataError for a Y of the wrong
    shape or with a non-finite entry (naming the first), and SolverError
    as diffuse does.
    """
    check_solver(alpha, tol, max_iter)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != graph.n:
        raise DataError(f"label matrix shape {Y.shape} does not match graph n={graph.n}")
    bad = np.argwhere(~np.isfinite(Y))
    if bad.size:
        raise DataError(f"label matrix entry ({bad[0, 0]}, {bad[0, 1]}) is not finite")
    F = np.empty_like(Y)
    iterations = np.zeros(Y.shape[1], dtype=np.int64)
    for lo, X in _cg_blocks(graph, alpha, tol, max_iter, lambda lo, hi: Y[:, lo:hi].T,
                            iterations, np.zeros(Y.shape[1])):
        F[:, lo:lo + len(X)] = X.T
    return F, iterations


def _one_hot(seeds, lo, hi, n):
    """The label matrix's columns lo..hi-1 as rows: row c - lo is one at
    the samples seeded with class c and zero elsewhere."""
    B = np.zeros((hi - lo, n))
    inside = (seeds.label >= lo) & (seeds.label < hi)
    B[seeds.label[inside] - lo, seeds.index[inside]] = 1.0
    return B


def diffuse(graph, seeds, alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Diffuse the seed labels over graph and decode each sample's class.

    The argmax decoder over the CG source's blocks of F, Y one-hot at the
    seeds: neither Y nor F is held whole. Each column's relative residual
    must reach tol within max_iter iterations or SolverError is raised for
    the lowest such class, carrying its final residual. Labels are F's row
    argmax, ties to the lowest class, with every seed forced to its seed
    class; retrieval scores are F's row maxima. Raises ConfigError for the
    settings check_solver refuses and DataError unless the seeds fit the
    graph.
    """
    check_solver(alpha, tol, max_iter)
    n = graph.n
    seeds.check_fits(n)
    iterations = np.zeros(seeds.n_classes, dtype=np.int64)
    residuals = np.zeros(seeds.n_classes)
    blocks = _cg_blocks(graph, alpha, tol, max_iter, lambda lo, hi: _one_hot(seeds, lo, hi, n),
                        iterations, residuals)
    labels, best, zero_rows = _argmax_decode(blocks, n, seeds)
    return DiffusionResult(labels=labels, retrieval_score=best, residual=float(residuals.max()),
                           iterations=iterations, zero_rows=zero_rows)


def nn_propagate(X, seeds):
    """Label every sample with the class of its cosine-nearest seed.

    Ties between equally close seeds go to the lowest seed index; seed
    samples keep their own class. Returns (labels, nearest_cosine).
    """
    if len(seeds) == 0:
        raise DegenerateInputError("nearest-neighbor propagation needs at least one seed")
    V = l2_normalize(X)
    seeds.check_fits(V.shape[0])
    sims = V @ V[seeds.index].T
    nearest = np.argmax(sims, axis=1)  # first max = lowest seed index on ties
    labels = seeds.label[nearest]
    score = sims[np.arange(V.shape[0]), nearest]
    labels[seeds.index] = seeds.label
    score[seeds.index] = 1.0
    return labels, score


def save_propagated(path, labels, retrieval_score, seeds):
    """Write one propagation record per sample, in index order, then a
    trailing summary record holding the class count."""
    labels = np.asarray(labels, dtype=np.int64)
    save_summarized_jsonl(path, {
        "index": np.arange(labels.size),
        "label": labels,
        "retrieval_score": np.asarray(retrieval_score, dtype=np.float64),
    }, {"n_classes": seeds.n_classes})


def load_propagated(path):
    """Read a propagated-labels file back into (labels, retrieval, n_classes).

    Raises FormatError unless the record at position p holds sample index
    p, 1 <= n_classes <= N and every label lies in [0, n_classes).
    """
    records, summary = load_summarized_jsonl(path)
    if not records:
        raise FormatError(f"{path}: no records")
    n = len(records)
    (n_classes,) = typed(path, "summary record", summary, {"n_classes": int})
    if not 1 <= n_classes <= n:
        raise FormatError(f"{path}: n_classes={n_classes} out of range for {n} samples")
    (index, labels, retrieval), fault = typed_columns(
        path, "propagation record", records,
        {"index": int, "label": int, "retrieval_score": float})
    del records
    misplaced = np.flatnonzero(index != np.arange(index.size))
    if misplaced.size:
        p = misplaced[0]
        raise FormatError(
            f"{path}: record {p} holds sample index {index[p]}; records must be in index order"
        )
    if fault is not None:
        raise fault
    stray = labels[(labels < 0) | (labels >= n_classes)]
    if stray.size:
        raise FormatError(f"{path}: label {stray[0]} out of range for {n_classes} classes")
    return labels, retrieval, n_classes
