"""Seed-label diffusion over a normalized graph, plus a 1-NN baseline.

Diffusion solves (I - alpha*S) F = Y with a block conjugate gradient over
the class columns (the system is symmetric positive definite for
alpha < 1), then decodes labels as the row-wise argmax of F. The nearest
neighbor baseline skips the graph entirely and copies each sample's
cosine-closest seed label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, FormatError, SolverError
from .features import l2_normalize
from .fileio import load_json, load_jsonl, save_json, save_jsonl, typed

DEFAULT_ALPHA = 0.99
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000
# Class columns that share one sparse product with S per CG iteration. The
# block's scratch is a few block x N arrays; all C=100 columns at once cost
# more memory for no further speed.
_BLOCK_ROWS = 16


@dataclass
class SeedLabels:
    """The initial supervision: sample index -> class index, plus C."""

    assignments: dict[int, int]
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 1:
            raise ConfigError(f"n_classes must be >= 1, got {self.n_classes}")
        for idx, cls in self.assignments.items():
            if idx < 0:
                raise ConfigError(f"seed index {idx} is negative")
            if not 0 <= cls < self.n_classes:
                raise ConfigError(
                    f"seed class {cls} out of range for {self.n_classes} classes"
                )

    def __len__(self):
        return len(self.assignments)

    def sorted_items(self):
        return sorted(self.assignments.items())

    def indices(self):
        return np.array(sorted(self.assignments), dtype=np.int64)

    def check_fits(self, n):
        """Raise DataError unless every seed index is below n and C <= n."""
        top = max(self.assignments, default=-1)
        if top >= n:
            raise DataError(f"seed index {top} out of range for {n} samples")
        if self.n_classes > n:
            raise DataError(f"{self.n_classes} classes do not fit in {n} samples")

    def per_class_indices(self):
        """Seed indices grouped by class, ascending within each class."""
        groups = {c: [] for c in range(self.n_classes)}
        for idx, cls in self.sorted_items():
            groups[cls].append(idx)
        return groups


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
    """Read a seeds JSON file: {"n_classes": C, "seeds": [{"index", "class"}...]}."""
    n_classes, entries = typed(path, "seeds file (int64 n_classes, seeds list)",
                               load_json(path), {"n_classes": int, "seeds": list})
    assignments = {}
    for entry in entries:
        idx, cls = typed(path, "seed (int64 index and class)", entry,
                         {"index": int, "class": int})
        if idx in assignments:
            raise FormatError(f"{path}: duplicate seed index {idx}")
        assignments[idx] = cls
    try:
        return SeedLabels(assignments=assignments, n_classes=n_classes)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_seeds(path, seeds):
    """Write seeds in the JSON format load_seeds reads."""
    doc = {
        "n_classes": seeds.n_classes,
        "seeds": [{"index": i, "class": c} for i, c in seeds.sorted_items()],
    }
    save_json(path, doc, indent=2, sort_keys=False)


def build_label_matrix(seeds, n):
    """One-hot N x C matrix: row i is the seed class of sample i, else zeros."""
    seeds.check_fits(n)
    Y = np.zeros((n, seeds.n_classes), dtype=np.float64)
    for idx, cls in seeds.assignments.items():
        Y[idx, cls] = 1.0
    return Y


def _block_cg(S, alpha, B, tol, max_iter):
    """Conjugate gradient on (I - alpha*S) x = b for every row b of B at once.

    B holds one right-hand side per row (columns x N) and is only read.
    Each row runs the textbook CG recurrence on its own: its two dot products
    per iteration are contiguous 1-D products and its updates are
    elementwise, so its iterates are bitwise those of a single-column
    solve. The rows still iterating share one sparse product S @ M per
    iteration; a row is frozen and leaves that product once its relative
    residual reaches tol.

    Returns (X, relative_residual, iterations, failed): one entry per row,
    and the rows that exhausted max_iter, ascending, with their last
    residual in relative_residual.
    """
    m = B.shape[0]
    X = np.zeros(B.shape)
    rel = np.zeros(m)
    iterations = np.zeros(m, dtype=np.int64)
    bnorm = np.array([float(np.linalg.norm(b)) for b in B])
    active = np.flatnonzero(bnorm > 0.0)  # a zero right-hand side is solved by x = 0
    bnorm = bnorm[active]
    R = B[active]  # a contiguous copy: CG never writes into B
    D = R.copy()
    Xa = np.zeros_like(R)
    rs = np.array([float(r @ r) for r in R])
    for iteration in range(1, max_iter + 1):
        if active.size == 0:
            break
        # A D = D - alpha * (S D), row-contiguous like D.
        AD = np.multiply((S @ D.T).T, alpha, order="C")
        np.subtract(D, AD, out=AD)
        step = rs / np.array([float(d @ ad) for d, ad in zip(D, AD)])
        Xa += step[:, None] * D
        R -= step[:, None] * AD
        rs_next = np.array([float(r @ r) for r in R])
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


def diffuse(graph, Y, alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
            seeds=None):
    """Solve (I - alpha*S) F = Y and decode labels from F.

    Block CG over the class columns, _BLOCK_ROWS columns per block; each
    column's relative residual must reach tol within max_iter iterations
    or SolverError is raised for the lowest such class, carrying its final
    residual. Y is not modified. When seeds are given, decoded labels are
    forced to the seed classes (retrieval scores stay the row maxima of F).
    Raises ConfigError unless 0 <= alpha < 1, tol is finite and positive
    and max_iter >= 1.
    """
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"alpha must satisfy 0 <= alpha < 1, got {alpha}")
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if not max_iter >= 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
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
    sample gets its seed class regardless of F. Returns (labels,
    retrieval_score) where the retrieval score is the row maximum of F.
    """
    F = np.asarray(F, dtype=np.float64)
    labels = np.argmax(F, axis=1)
    retrieval = F.max(axis=1)
    if seeds is not None:
        for idx, cls in seeds.assignments.items():
            if idx >= F.shape[0]:
                raise DataError(f"seed index {idx} out of range for {F.shape[0]} samples")
            labels[idx] = cls
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
    seed_idx = seeds.indices()
    seed_cls = np.array([seeds.assignments[int(i)] for i in seed_idx], dtype=np.int64)
    sims = V @ V[seed_idx].T
    nearest = np.argmax(sims, axis=1)  # first max = lowest seed index on ties
    labels = seed_cls[nearest]
    score = sims[np.arange(V.shape[0]), nearest]
    labels[seed_idx] = seed_cls
    score[seed_idx] = 1.0
    return labels, score


def save_propagated(path, labels, retrieval_score, seeds):
    """Write per-sample propagation records as JSON lines."""
    seed_set = set(seeds.assignments)
    save_jsonl(path, (
        {
            "index": i,
            "label": int(labels[i]),
            "retrieval_score": float(retrieval_score[i]),
            "is_seed": i in seed_set,
        }
        for i in range(len(labels))
    ))


def load_propagated(path):
    """Read a propagated-labels file back into (labels, retrieval, is_seed)."""
    records = load_jsonl(path)
    if not records:
        raise FormatError(f"{path}: no records")
    n = len(records)
    seen = bytearray(n)
    schema = {"index": int, "label": int, "retrieval_score": float, "is_seed": bool}
    index, labels, retrieval, is_seed = [], [], [], []
    for record in records:
        i, label, score, seed = typed(path, "propagation record", record, schema)
        if not 0 <= i < n or seen[i]:
            raise FormatError(f"{path}: sample index {i} duplicated or out of range")
        seen[i] = 1
        index.append(i)
        labels.append(label)
        retrieval.append(score)
        is_seed.append(seed)
    # n distinct indices in range: a permutation, so every slot is filled.
    index = np.array(index, dtype=np.int64)
    columns = []
    for values, dtype in ((labels, np.int64), (retrieval, np.float64), (is_seed, bool)):
        column = np.empty(n, dtype=dtype)
        column[index] = values
        columns.append(column)
    return tuple(columns)
