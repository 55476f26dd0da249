"""Seed-label diffusion over a normalized graph, plus a 1-NN baseline.

Diffusion solves (I - alpha*S) F = Y with a block conjugate gradient over
the class columns (the system is symmetric positive definite for
alpha < 1), then decodes labels as the row-wise argmax of F. The nearest
neighbor baseline skips the graph entirely and copies each sample's
cosine-closest seed label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, FormatError, SolverError
from .features import l2_normalize
from .fileio import load_json, load_summarized_jsonl, save_json, save_jsonl, typed

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
    """Diffusion scores F and their argmax decoding.

    residual is the largest final relative residual over the class
    columns, and iterations holds each column's CG iteration count.
    zero_rows lists samples with no diffusion mass at all (disconnected
    from every seed); they decode to class 0 by the tie rule.
    """

    scores: np.ndarray
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
    pairs = [typed(path, "seed (int64 index and class)", entry, {"index": int, "class": int})
             for entry in entries]
    if not pairs:
        raise DegenerateInputError(f"{path}: the seeds file holds no seed")
    index, label = np.array(pairs, dtype=np.int64).T
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


def build_label_matrix(seeds, n):
    """One-hot N x C matrix: row i is the seed class of sample i, else zeros."""
    seeds.check_fits(n)
    Y = np.zeros((n, seeds.n_classes), dtype=np.float64)
    Y[seeds.index, seeds.label] = 1.0
    return Y


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


def diffuse(graph, Y, alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
            seeds=None):
    """Solve (I - alpha*S) F = Y and decode labels from F.

    Block CG over the class columns, _BLOCK_ROWS columns per block; each
    column's relative residual must reach tol within max_iter iterations
    or SolverError is raised for the lowest such class, carrying its final
    residual. Y is not modified. When seeds are given, decoded labels are
    forced to the seed classes (retrieval scores stay the row maxima of F).
    Raises ConfigError for the settings check_solver refuses.
    """
    check_solver(alpha, tol, max_iter)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != graph.n:
        raise DataError(f"label matrix shape {Y.shape} does not match graph n={graph.n}")

    F = np.empty_like(Y)
    iterations = np.zeros(Y.shape[1], dtype=np.int64)
    residual = 0.0
    for lo in range(0, Y.shape[1], _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, Y.shape[1])
        X, rel, its, failed = _block_cg(graph.s, alpha, Y[:, lo:hi].T, tol, max_iter)
        if failed.size:
            j = int(failed[0])
            raise SolverError(
                f"diffusion did not converge for class {lo + j} after {max_iter} "
                f"iterations (relative residual {rel[j]:.3e})",
                residual=rel[j],
            )
        F[:, lo:hi] = X.T
        iterations[lo:hi] = its
        residual = max(residual, float(rel.max()))

    zero_rows = np.flatnonzero(~F.any(axis=1)).tolist()
    labels, retrieval = estimate_labels(F, seeds)
    return DiffusionResult(
        scores=F,
        labels=labels,
        retrieval_score=retrieval,
        residual=residual,
        iterations=iterations,
        zero_rows=zero_rows,
    )


def estimate_labels(F, seeds=None):
    """Decode labels from diffusion scores: row argmax, seeds forced.

    Ties go to the lowest class index; when seeds are given, every seed
    sample gets its seed class regardless of F, and DataError is raised
    unless they fit F's rows and declare its column count as C. Returns
    (labels, retrieval_score), the retrieval score being F's row maxima.
    """
    F = np.asarray(F, dtype=np.float64)
    labels = np.argmax(F, axis=1)
    retrieval = F.max(axis=1)
    if seeds is not None:
        if seeds.n_classes != F.shape[1]:
            raise DataError(f"seeds of {seeds.n_classes} classes do not match "
                            f"{F.shape[1]} score columns")
        if seeds.index.size and seeds.index[-1] >= F.shape[0]:
            raise DataError(f"seed index {seeds.index[-1]} out of range for {F.shape[0]} samples")
        labels[seeds.index] = seeds.label
    return labels, retrieval


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
    labels = np.asarray(labels, dtype=np.int64).tolist()
    scores = np.asarray(retrieval_score, dtype=np.float64).tolist()
    records = (
        {"index": i, "label": label, "retrieval_score": score}
        for i, (label, score) in enumerate(zip(labels, scores))
    )
    summary = {"summary": True, "n_classes": seeds.n_classes}
    save_jsonl(path, itertools.chain(records, [summary]))


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
    schema = {"index": int, "label": int, "retrieval_score": float}
    labels, retrieval = [], []
    for p, record in enumerate(records):
        i, label, score = typed(path, "propagation record", record, schema)
        if i != p:
            raise FormatError(
                f"{path}: record {p} holds sample index {i}; records must be in index order"
            )
        labels.append(label)
        retrieval.append(score)
    labels = np.array(labels, dtype=np.int64)
    retrieval = np.array(retrieval, dtype=np.float64)
    stray = labels[(labels < 0) | (labels >= n_classes)]
    if stray.size:
        raise FormatError(f"{path}: label {stray[0]} out of range for {n_classes} classes")
    return labels, retrieval, n_classes
