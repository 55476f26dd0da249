"""Reliable-set selection from noisy propagated labels.

A linear softmax probe is trained on the propagated labels with a constant
high learning rate; easy (clean) samples fit early while a high learning
rate resists memorizing the noisy ones, so a per-sample cross-entropy loss
averaged over the final training epochs ranks label trustworthiness. The
reliable set keeps all seeds plus, per class, the lowest-loss candidates
up to an exact per-class budget. Ranking by diffusion retrieval score is
available as an alternative trust measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, FormatError, TrainingDivergedError
from .fileio import load_summarized_jsonl, save_summarized_jsonl, typed, typed_columns

ORIGIN_SEED = "seed"
ORIGIN_BOOTSTRAPPED = "bootstrapped"

# n_r values used in the experiments for the two standard class counts.
NR_DEFAULTS = {10: 500, 100: 4000}


@dataclass
class ProbeConfig:
    """Training schedule for the loss-tracing probe."""

    epochs: int = 60
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 128
    average_window: int = 30
    rng_seed: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 1 <= self.average_window <= self.epochs:
            raise ConfigError(
                f"average_window must lie in [1, epochs={self.epochs}], "
                f"got {self.average_window}"
            )
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class ReliableSet:
    """The extended labeled set: seeds plus per-class trusted candidates.

    index, label, is_seed and score are equal-length columns, one row per
    entry: each class's seeds, then its chosen candidates. score is the
    entry's avg_loss or retrieval_score, as score_kind names.
    """

    index: np.ndarray  # int64
    label: np.ndarray  # int64
    is_seed: np.ndarray  # bool
    score: np.ndarray  # float64
    per_class_count: np.ndarray
    target_per_class: int
    score_kind: str  # "avg_loss" | "retrieval_score"
    warnings: list[str] = field(default_factory=list)


def check_probe_classes(labels):
    """Raise DegenerateInputError unless labels hold 2 or more distinct classes."""
    if np.unique(labels).size < 2:
        raise DegenerateInputError("probe training needs at least 2 distinct classes")


@np.errstate(over="ignore", invalid="ignore")
def train_probe(X, labels, cfg, n_classes):
    """Train a linear softmax probe with SGD+momentum; return each sample's
    cross-entropy averaged over the final cfg.average_window epochs.

    Every label must lie in [0, n_classes). Training runs in float32: X
    is cast once, and each batch takes one exp. At the end of each of the
    final cfg.average_window epochs the float32 loss of every sample is
    evaluated over the full set (no augmentation, no batch-order noise)
    and added to a float64 running sum started at zero; the result is
    that sum divided by cfg.average_window, a float64 array of N losses.
    Earlier epochs only train.
    Every epoch checks for divergence, the weights before the window and
    the losses inside it, and raises TrainingDivergedError in place of
    numpy's overflow warnings. Deterministic given cfg.rng_seed: the rng
    drives only the batch shuffling.
    """
    X = np.asarray(X, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = X.shape
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match {n} samples")
    if not np.all(np.isfinite(X)):
        raise DataError("feature matrix contains entries that are not finite in float32")
    check_probe_classes(labels)
    c = int(n_classes)
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label out of range for {c} classes")

    rng = np.random.default_rng(cfg.rng_seed)
    lr, momentum = float(cfg.learning_rate), float(cfg.momentum)
    W = np.zeros((d, c), dtype=np.float32)
    b = np.zeros(c, dtype=np.float32)
    vW = np.zeros_like(W)
    vb = np.zeros_like(b)
    rows = np.arange(n)
    # Each position's row offset in its batch's flat logits; adding
    # labels[order] gives every one-hot entry of an epoch at once.
    slot = rows % min(cfg.batch_size, n) * c  # values below N: no int64 overflow
    # np.dot writes the logits and the weight gradient here: the GEMMs
    # of @, without allocating their results.
    logits = np.empty((min(cfg.batch_size, n), c), dtype=np.float32)
    grad = np.empty_like(W)
    first_window_epoch = cfg.epochs - cfg.average_window

    total = np.zeros(n)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        hot = slot + labels[order]
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            batch = order[start:stop]
            step = lr / batch.size
            Xb = X[batch]
            # lr times the gradient of the batch-mean cross-entropy in the
            # logits' buffer: step * (softmax - one_hot). The row maxima
            # come from a transposed copy: along each row's C = 10
            # contiguous values numpy takes about 3x as long.
            Z = np.dot(Xb, W, out=logits[:batch.size])
            Z += b
            Z -= Z.T.copy().max(axis=0)[:, None]
            P = np.exp(Z, out=Z)
            P *= step / P.sum(axis=1, keepdims=True)
            P.ravel()[hot[start:stop]] -= step  # P is contiguous: ravel is a view
            vW *= momentum
            vW -= np.dot(Xb.T, P, out=grad)
            vb *= momentum
            vb -= P.sum(axis=0)
            W += vW
            b += vb
        if epoch < first_window_epoch:
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise TrainingDivergedError(
                    f"non-finite weights at epoch {epoch} (learning rate too high?)"
                )
            continue
        # Cross-entropy -((z_label - max) - logsumexp) without an N x C
        # log-probability array; both terms are <= 0 before the negation,
        # so every loss is >= 0. The logits come as (W.T @ X.T).T because
        # X @ W left about 5 MB more of OpenBLAS's thread buffers resident
        # at N = 10k, D = 128, raising the pipeline's peak RSS by 2.5 MB.
        Z = (W.T @ X.T).T
        Z += b
        Z -= Z.max(axis=1, keepdims=True)
        losses = Z[rows, labels]
        losses -= np.log(np.exp(Z, out=Z).sum(axis=1))
        np.negative(losses, out=losses)
        if not np.all(np.isfinite(losses)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch} (learning rate too high?)"
            )
        total += losses

    return total / cfg.average_window


def check_budget(seeds, n_r):
    """The reliable-set size for seeds: n_r, or for None the size that
    NR_DEFAULTS gives the seeds' class count C. Raises ConfigError when
    NR_DEFAULTS has no size for C, and unless the size fits in int64, as
    the reliable file's summary must, C divides it and the per-class
    target n_r / C holds every class's seeds."""
    c = seeds.n_classes
    if n_r is None:
        n_r = NR_DEFAULTS.get(c)
        if n_r is None:
            raise ConfigError(f"no default n_r for {c} classes; pass --nr explicitly")
    if n_r > np.iinfo(np.int64).max:
        raise ConfigError(f"n_r={n_r} exceeds the int64 range")
    if n_r % c != 0:
        raise ConfigError(f"n_r={n_r} is not divisible by n_classes={c}")
    target = n_r // c
    largest = np.bincount(seeds.label, minlength=c).max()
    if target < largest:
        raise ConfigError(
            f"n_r/C={target} is below the largest per-class seed count {largest}"
        )
    return n_r


def _select_balanced(labels, scores, seeds, n_r, score_kind):
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n = labels.shape[0]
    seeds.check_fits(n)
    c = seeds.n_classes
    target = check_budget(seeds, n_r) // c

    is_seed = np.zeros(n, dtype=bool)
    is_seed[seeds.index] = True

    parts = []
    warnings = []
    per_class = np.zeros(c, dtype=np.int64)
    key = -scores if score_kind == "retrieval_score" else scores
    for cls in range(c):
        seed_group = seeds.index[seeds.label == cls]
        slots = target - seed_group.size
        candidates = np.flatnonzero((labels == cls) & ~is_seed)
        chosen = candidates[np.lexsort((candidates, key[candidates]))][:slots]
        if chosen.size < slots:
            warnings.append(
                f"class {cls}: only {chosen.size} candidate(s) for {slots} slot(s)"
            )
        parts += [seed_group, chosen]
        per_class[cls] = seed_group.size + chosen.size

    index = np.concatenate(parts)
    return ReliableSet(
        index=index,
        label=np.repeat(np.arange(c, dtype=np.int64), per_class),
        is_seed=is_seed[index],
        score=scores[index],
        per_class_count=per_class,
        target_per_class=target,
        score_kind=score_kind,
        warnings=warnings,
    )


def select_reliable(losses, labels, seeds, n_r):
    """Class-balanced small-loss selection.

    losses holds each sample's averaged loss, as train_probe returns it.
    Per class: all seeds, then the candidates with that propagated label in
    ascending loss order (ties to the lower sample index) until n_r/C
    entries are reached. Classes short on candidates are filled as far as
    possible and recorded in warnings.
    """
    return _select_balanced(
        labels, losses, seeds, n_r, score_kind="avg_loss"
    )


def select_by_retrieval_score(labels, retrieval_score, seeds, n_r):
    """Selection baseline ranking candidates by descending diffusion score."""
    return _select_balanced(
        labels,
        retrieval_score,
        seeds,
        n_r,
        score_kind="retrieval_score",
    )


def save_reliable(path, rset):
    """Write a reliable set as JSON lines plus a trailing summary record."""
    summary = {
        "score_kind": rset.score_kind,
        "target_per_class": rset.target_per_class,
        "per_class_count": rset.per_class_count.tolist(),
        "warnings": rset.warnings,
    }
    save_summarized_jsonl(path, {
        "index": rset.index,
        "class": rset.label,
        "origin": np.where(rset.is_seed, ORIGIN_SEED, ORIGIN_BOOTSTRAPPED),
        rset.score_kind: rset.score,
    }, summary)


def load_reliable(path):
    """Read a reliable-set file back into a ReliableSet.

    Raises FormatError for an origin other than seed or bootstrapped, for
    a sample index listed twice, for an entry class outside the summary's
    per_class_count, when per_class_count differs from the entries'
    per-class tally, and when a count is above target_per_class.
    """
    records, summary = load_summarized_jsonl(path)
    score_kind, target, counts, warnings = typed(
        path, "summary record", {"score_kind": "avg_loss", "warnings": [], **summary},
        {"score_kind": str, "target_per_class": int, "per_class_count": [int],
         "warnings": [str]})
    if score_kind not in ("avg_loss", "retrieval_score"):
        raise FormatError(f"{path}: unknown score_kind {score_kind!r}")
    (index, label, origin, score), fault = typed_columns(
        path, "entry", records, {"index": int, "class": int, "origin": str, score_kind: float})
    del records
    # Entry p is checked for its kinds, then its origin, then for an index
    # already listed: the first failure in that order names the entry.
    is_seed = list(map({ORIGIN_SEED: True, ORIGIN_BOOTSTRAPPED: False}.get, origin))
    unknown = is_seed.index(None) if None in is_seed else index.size
    order = np.argsort(index, kind="stable")
    repeats = order[1:][index[order[1:]] == index[order[:-1]]]
    repeat = repeats.min() if repeats.size else index.size
    if unknown < index.size and unknown <= repeat:
        raise FormatError(f"{path}: unknown origin {origin[unknown]!r}")
    if repeat < index.size:
        raise FormatError(f"{path}: sample index {index[repeat]} listed twice")
    if fault is not None:
        raise fault
    counts = np.array(counts, dtype=np.int64)
    stray = label[(label < 0) | (label >= counts.size)]
    if stray.size:
        raise FormatError(f"{path}: entry class {int(stray[0])} out of range for "
                          f"{counts.size} per_class_count value(s)")
    differ = np.flatnonzero(np.bincount(label, minlength=counts.size) != counts)
    if differ.size:
        c = int(differ[0])
        raise FormatError(f"{path}: per_class_count[{c}]={counts[c]}, but the entries "
                          f"hold {np.count_nonzero(label == c)} of class {c}")
    over = np.flatnonzero(counts > target)
    if over.size:
        c = int(over[0])
        raise FormatError(f"{path}: per_class_count[{c}]={counts[c]} exceeds "
                          f"target_per_class={target}")
    return ReliableSet(
        index=index,
        label=label,
        is_seed=np.array(is_seed, dtype=bool),
        score=score,
        per_class_count=counts,
        target_per_class=target,
        score_kind=score_kind,
        warnings=warnings,
    )
