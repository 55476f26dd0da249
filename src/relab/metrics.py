"""Noise and balance diagnostics for bootstrapped label sets."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError
from .selection import ORIGIN_BOOTSTRAPPED, ORIGIN_SEED


@dataclass
class NoiseReport:
    """Per-class composition of a labeled set against ground truth.

    per_class_noise_pct holds None for classes with no samples; those
    classes are excluded from the noise median/std but still counted in
    empty_classes and in the count statistics. count_std and noise_std_pct
    are population standard deviations. overall_noise_pct is the
    count-weighted mean, i.e. total wrong / total samples.
    """

    n_classes: int
    per_class_count: list
    per_class_noise_pct: list
    count_median: float
    count_std: float
    noise_median_pct: float
    noise_std_pct: float
    overall_noise_pct: float
    empty_classes: list
    origin_counts: dict | None = None
    origin_noise_pct: dict | None = None

    def to_dict(self):
        """The fields in declaration order; the origin breakdown only when set."""
        return {key: value for key, value in asdict(self).items() if value is not None}


def noise_report(predicted, truth, n_classes):
    """Compare assigned labels against ground truth, per class.

    A sample belongs to the class it was *assigned*; it is noise when the
    assignment disagrees with the truth. Empty classes get a None noise
    entry and are skipped by the noise median/std.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise DataError(
            f"predicted shape {predicted.shape} does not match truth {truth.shape}"
        )
    if n_classes < 1:
        raise ConfigError(f"n_classes must be >= 1, got {n_classes}")
    if predicted.size and (predicted.min() < 0 or predicted.max() >= n_classes):
        raise DataError(f"assigned label out of range for {n_classes} classes")

    counts = np.bincount(predicted, minlength=n_classes)
    wrong = np.bincount(predicted[predicted != truth], minlength=n_classes)

    per_class_noise = []
    noise_values = []
    empty = []
    for cls in range(n_classes):
        if counts[cls] == 0:
            per_class_noise.append(None)
            empty.append(cls)
        else:
            pct = 100.0 * wrong[cls] / counts[cls]
            per_class_noise.append(pct)
            noise_values.append(pct)

    noise_arr = np.asarray(noise_values, dtype=np.float64)
    total = int(counts.sum())
    return NoiseReport(
        n_classes=int(n_classes),
        per_class_count=[int(v) for v in counts],
        per_class_noise_pct=per_class_noise,
        count_median=float(np.median(counts)),
        count_std=float(np.std(counts)),
        noise_median_pct=float(np.median(noise_arr)) if noise_arr.size else 0.0,
        noise_std_pct=float(np.std(noise_arr)) if noise_arr.size else 0.0,
        overall_noise_pct=100.0 * int(wrong.sum()) / total if total else 0.0,
        empty_classes=empty,
    )


def compare_selection(rset, truth, n_classes):
    """Noise report for a reliable set, with a per-origin breakdown.

    Raises DataError when an entry's index falls outside the truth array.
    """
    truth = np.asarray(truth, dtype=np.int64)
    n = truth.shape[0]
    outside = (rset.index < 0) | (rset.index >= n)
    if outside.any():
        raise DataError(
            f"reliable entry index {rset.index[outside][0]} out of range for {n} truth labels"
        )
    entry_truth = truth[rset.index]
    report = noise_report(rset.label, entry_truth, n_classes)

    wrong = rset.label != entry_truth
    report.origin_counts, report.origin_noise_pct = {}, {}
    for origin, members in ((ORIGIN_SEED, rset.is_seed), (ORIGIN_BOOTSTRAPPED, ~rset.is_seed)):
        count = int(np.count_nonzero(members))
        if count:
            report.origin_counts[origin] = count
            report.origin_noise_pct[origin] = 100.0 * int(np.count_nonzero(wrong[members])) / count
    return report
