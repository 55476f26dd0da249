import numpy as np
import pytest

from relab.errors import ConfigError, DataError
from relab.metrics import compare_selection, noise_report
from relab.selection import ORIGIN_BOOTSTRAPPED, ORIGIN_SEED, ReliableSet


def rset_from(pairs, per_class_count):
    """pairs: (index, label, origin) triples; score is irrelevant here."""
    index, label, origin = zip(*pairs)
    return ReliableSet(
        index=np.array(index, dtype=np.int64),
        label=np.array(label, dtype=np.int64),
        is_seed=np.array(origin) == ORIGIN_SEED,
        score=np.zeros(len(pairs)),
        per_class_count=np.asarray(per_class_count, dtype=np.int64),
        target_per_class=max(per_class_count),
        score_kind="avg_loss",
    )


class TestNoiseReport:
    def test_hand_worked_two_class(self):
        # Class 0: 4 assigned, 1 wrong (25%). Class 1: 6 assigned, 3 wrong (50%).
        predicted = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        truth = np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0])
        report = noise_report(predicted, truth, 2)
        assert report.per_class_count == [4, 6]
        assert report.per_class_noise_pct == [25.0, 50.0]
        assert report.count_median == 5.0
        assert report.count_std == 1.0
        assert report.noise_median_pct == 37.5
        assert report.noise_std_pct == 12.5
        assert report.overall_noise_pct == 40.0
        assert report.empty_classes == []

    def test_overall_fraction(self):
        predicted = np.zeros(10, dtype=np.int64)
        truth = np.zeros(10, dtype=np.int64)
        truth[3] = truth[7] = 1
        report = noise_report(predicted, truth, 2)
        assert report.overall_noise_pct == 20.0

    def test_perfect_labels(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        report = noise_report(truth, truth, 3)
        assert report.per_class_noise_pct == [0.0, 0.0, 0.0]
        assert report.noise_median_pct == 0.0
        assert report.noise_std_pct == 0.0
        assert report.overall_noise_pct == 0.0

    def test_empty_class_excluded_from_noise_stats(self):
        predicted = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 1, 1])
        report = noise_report(predicted, truth, 3)
        assert report.per_class_count == [2, 2, 0]
        assert report.per_class_noise_pct == [50.0, 0.0, None]
        assert report.empty_classes == [2]
        assert report.noise_median_pct == 25.0
        assert report.noise_std_pct == 25.0
        # count stats still include the empty class
        assert report.count_median == 2.0

    def test_sample_order_invariant(self, rng):
        predicted = rng.integers(0, 4, size=200)
        truth = rng.integers(0, 4, size=200)
        perm = rng.permutation(200)
        a = noise_report(predicted, truth, 4).to_dict()
        b = noise_report(predicted[perm], truth[perm], 4).to_dict()
        assert a == b

    def test_overall_is_count_weighted_mean(self, rng):
        predicted = rng.integers(0, 5, size=300)
        truth = rng.integers(0, 5, size=300)
        report = noise_report(predicted, truth, 5)
        weighted = sum(
            c * p for c, p in zip(report.per_class_count, report.per_class_noise_pct)
            if p is not None
        ) / sum(report.per_class_count)
        assert abs(report.overall_noise_pct - weighted) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            noise_report(np.array([0, 1]), np.array([0]), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            noise_report(np.array([0, 2]), np.array([0, 1]), 2)

    def test_bad_n_classes_rejected(self):
        with pytest.raises(ConfigError):
            noise_report(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0)

    def test_to_dict_round_trips_fields(self):
        report = noise_report(np.array([0, 1]), np.array([0, 1]), 2)
        doc = report.to_dict()
        assert doc["per_class_count"] == [1, 1]
        assert doc["overall_noise_pct"] == 0.0
        assert "origin_counts" not in doc


class TestCompareSelection:
    def test_seeds_only_clean(self):
        truth = np.array([0, 0, 1, 1])
        rset = rset_from([(0, 0, ORIGIN_SEED), (2, 1, ORIGIN_SEED)], [1, 1])
        report = compare_selection(rset, truth, 2)
        assert report.overall_noise_pct == 0.0
        assert report.origin_counts == {ORIGIN_SEED: 2}
        assert report.origin_noise_pct == {ORIGIN_SEED: 0.0}

    def test_one_wrong_bootstrapped_among_fifty(self):
        truth = np.zeros(100, dtype=np.int64)
        truth[50:] = 1
        pairs = [(0, 0, ORIGIN_SEED), (50, 1, ORIGIN_SEED)]
        pairs += [(i, 0, ORIGIN_BOOTSTRAPPED) for i in range(1, 25)]
        pairs += [(i, 1, ORIGIN_BOOTSTRAPPED) for i in range(51, 75)]
        pairs.append((99, 0, ORIGIN_BOOTSTRAPPED))  # truth 1, labeled 0
        pairs.append((49, 1, ORIGIN_BOOTSTRAPPED))  # truth 0, labeled 1
        rset = rset_from(pairs, [26, 26])
        report = compare_selection(rset, truth, 2)
        assert report.per_class_count == [26, 26]
        assert report.overall_noise_pct == pytest.approx(100.0 * 2 / 52)
        assert report.origin_counts == {ORIGIN_SEED: 2, ORIGIN_BOOTSTRAPPED: 50}
        assert report.origin_noise_pct[ORIGIN_SEED] == 0.0
        assert report.origin_noise_pct[ORIGIN_BOOTSTRAPPED] == pytest.approx(4.0)

    def test_entry_index_out_of_range(self):
        # truth[-1] would read the last label: a negative index is refused too.
        truth = np.array([0, 1])
        for index in (7, 2, -1):
            rset = rset_from([(0, 0, ORIGIN_SEED), (index, 1, ORIGIN_BOOTSTRAPPED)], [1, 1])
            with pytest.raises(DataError, match=f"reliable entry index {index} out of range "
                                                "for 2 truth labels"):
                compare_selection(rset, truth, 2)

    def test_explicit_n_classes(self):
        truth = np.array([0, 0, 1, 1])
        rset = rset_from([(0, 0, ORIGIN_SEED), (2, 1, ORIGIN_SEED)], [1, 1])
        report = compare_selection(rset, truth, n_classes=4)
        assert report.n_classes == 4
        assert report.empty_classes == [2, 3]
