import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relab
from relab.diffusion import load_propagated, load_seeds
from relab.errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    FormatError,
    TrainingDivergedError,
)
from relab.features import l2_normalize, load_features
from relab.pipeline import PROPAGATED_NAME, WHITENED_NAME, run_pipeline, synth_step
from relab.selection import (
    ProbeConfig,
    ReliableSet,
    load_reliable,
    save_reliable,
    select_by_retrieval_score,
    select_reliable,
    train_probe,
)
from relab.synth import SynthConfig

from conftest import seeds_of, two_cluster_features


def float64_probe(X, labels, cfg, n_classes):
    """The probe's float64 training loop, kept as the oracle for the
    float32 one: two exps and a log per batch, and the full-set loss
    through a float64 log-sum-exp in the window epochs."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = X.shape
    rng = np.random.default_rng(cfg.rng_seed)
    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    vW = np.zeros_like(W)
    vb = np.zeros_like(b)
    rows = np.arange(n)
    first_window_epoch = cfg.epochs - cfg.average_window
    total = np.zeros(n)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            Xb = X[batch]
            Z = Xb @ W
            Z += b
            Z -= Z.max(axis=1, keepdims=True)
            Z -= np.log(np.exp(Z).sum(axis=1, keepdims=True))
            P = np.exp(Z, out=Z)
            P[np.arange(batch.size), labels[batch]] -= 1.0
            P /= batch.size
            vW *= cfg.momentum
            vW -= cfg.learning_rate * (Xb.T @ P)
            vb *= cfg.momentum
            vb -= cfg.learning_rate * P.sum(axis=0)
            W += vW
            b += vb
        if epoch < first_window_epoch:
            continue
        Z = X @ W
        Z += b
        Z -= Z.max(axis=1, keepdims=True)
        losses = Z[rows, labels]
        losses -= np.log(np.exp(Z).sum(axis=1))
        np.negative(losses, out=losses)
        total += losses
    return total / cfg.average_window


def plain_float32_probe(X, labels, cfg, n_classes):
    """train_probe's float32 arithmetic in its plainest numpy: a fresh @
    per product, the row maxima along each row and the one-hot entries
    by (row, label) pairs."""
    X = np.asarray(X, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = X.shape
    rng = np.random.default_rng(cfg.rng_seed)
    W = np.zeros((d, n_classes), dtype=np.float32)
    b = np.zeros(n_classes, dtype=np.float32)
    vW = np.zeros_like(W)
    vb = np.zeros_like(b)
    rows = np.arange(n)
    total = np.zeros(n)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            step = cfg.learning_rate / batch.size
            Xb = X[batch]
            Z = Xb @ W
            Z += b
            Z -= Z.max(axis=1, keepdims=True)
            P = np.exp(Z, out=Z)
            P *= step / P.sum(axis=1, keepdims=True)
            P[np.arange(batch.size), labels[batch]] -= step
            vW *= cfg.momentum
            vW -= Xb.T @ P
            vb *= cfg.momentum
            vb -= P.sum(axis=0)
            W += vW
            b += vb
        if epoch < cfg.epochs - cfg.average_window:
            continue
        Z = (W.T @ X.T).T
        Z += b
        Z -= Z.max(axis=1, keepdims=True)
        losses = Z[rows, labels]
        losses -= np.log(np.exp(Z, out=Z).sum(axis=1))
        total += -losses
    return total / cfg.average_window


def rset_of(index, label, is_seed, score, per_class_count, target_per_class, score_kind,
            warnings=()):
    """A ReliableSet whose columns hold the given values at their dtypes."""
    return ReliableSet(
        index=np.array(index, dtype=np.int64),
        label=np.array(label, dtype=np.int64),
        is_seed=np.array(is_seed, dtype=bool),
        score=np.array(score, dtype=np.float64),
        per_class_count=np.array(per_class_count),
        target_per_class=target_per_class,
        score_kind=score_kind,
        warnings=list(warnings),
    )


def assert_same_columns(a, b):
    """The four columns of two reliable sets hold the same dtypes and bytes."""
    for column in ("index", "label", "is_seed", "score"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), column


class TestProbeConfig:
    def test_defaults(self):
        cfg = ProbeConfig()
        assert cfg.epochs == 60
        assert cfg.average_window == 30
        assert cfg.learning_rate == 0.1
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 128

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"average_window": 0},
        {"epochs": 10, "average_window": 11},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"batch_size": 0},
        {"rng_seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ProbeConfig(**kwargs)


class TestTrainProbe:
    def test_separable_clusters_reach_low_loss(self):
        X, y = two_cluster_features(40, 5, gap=8.0)
        losses = train_probe(X, y, ProbeConfig(epochs=30, average_window=5), 2)
        assert losses.shape == (80,) and losses.dtype == np.float64
        assert np.all(losses >= 0.0)
        assert np.all(np.isfinite(losses))
        last = train_probe(X, y, ProbeConfig(epochs=30, average_window=1), 2)
        assert np.all(last >= 0.0) and last.mean() < 0.1

    def test_flipped_label_has_high_loss(self):
        X, y = two_cluster_features(40, 5, gap=8.0)
        noisy = y.copy()
        noisy[0] = 1  # cluster-0 sample mislabeled as class 1
        losses = train_probe(X, noisy, ProbeConfig(epochs=30, average_window=10), 2)
        clean_class1 = losses[40:]
        assert losses[0] > np.median(clean_class1)

    @pytest.mark.parametrize("epochs, window", [(8, 8), (30, 5), (12, 1)])
    def test_average_is_zero_started_sum_of_window_epochs(self, epochs, window):
        # Epochs before the window are trained but not evaluated, so the run
        # that ends at epoch e with a window of 1 holds epoch e's losses.
        X, y = two_cluster_features(30, 6, gap=2.0)
        averaged = train_probe(X, y, ProbeConfig(epochs=epochs, average_window=window,
                                                 rng_seed=3), 2)
        total = np.zeros(60)
        for e in range(epochs - window + 1, epochs + 1):
            total += train_probe(X, y, ProbeConfig(epochs=e, average_window=1, rng_seed=3), 2)
        assert averaged.dtype == np.float64
        assert averaged.tobytes() == (total / window).tobytes()

    def test_batch_size_beyond_int64_is_one_batch(self):
        # Any batch size of at least N trains on the whole set at once.
        X, y = two_cluster_features(30, 6, gap=2.0)
        runs = [train_probe(X, y, ProbeConfig(epochs=6, average_window=3, batch_size=size), 2)
                for size in (60, 2**64)]
        assert runs[1].tobytes() == runs[0].tobytes()

    def test_deterministic(self):
        X, y = two_cluster_features(20, 4, gap=3.0)
        cfg = ProbeConfig(epochs=12, average_window=6, rng_seed=5)
        assert train_probe(X, y, cfg, 2).tobytes() == train_probe(X, y, cfg, 2).tobytes()

    @pytest.mark.parametrize("window, check", [(1, "weights"), (5, "loss")])
    def test_divergence_raises(self, window, check):
        # window=1 diverges before the window (weights check), window=5
        # inside it (loss check).
        X, y = two_cluster_features(40, 5, gap=8.0)
        cfg = ProbeConfig(epochs=5, average_window=window, learning_rate=1e308)
        with pytest.raises(TrainingDivergedError, match=f"non-finite {check}"):
            train_probe(X, y, cfg, 2)

    def test_single_class_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(DegenerateInputError):
            train_probe(X, np.zeros(10, dtype=np.int64),
                        ProbeConfig(epochs=1, average_window=1), 2)

    def test_shape_mismatch_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        labels = np.array([0, 1])
        with pytest.raises(DataError):
            train_probe(X, labels, ProbeConfig(), 2)

    def test_non_finite_features_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(DataError):
            train_probe(X, np.array([0, 1]), ProbeConfig(), 2)

    def test_label_out_of_declared_range_rejected(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(DataError):
            train_probe(X, np.array([0, 1, 2, 3]), ProbeConfig(), n_classes=3)


# (classes, per class, dims, n_r) of pipeline runs whose whitened features
# and propagated labels feed the probe: the README run and a small C = 100 run.
ORACLE_FIXTURES = {"readme": (10, 100, 32, 500), "c100": (100, 12, 128, 800)}


@pytest.fixture(scope="module", params=ORACLE_FIXTURES.values(), ids=ORACLE_FIXTURES)
def probe_inputs(request, tmp_path_factory):
    """(L2-normalized whitened features, propagated labels, seeds) of a
    `relab synth` + `relab pipeline` run with separation 6 and 4 seeds per
    class."""
    classes, per_class, dims, n_r = request.param
    root = tmp_path_factory.mktemp("probe-inputs")
    synth_step(root / "features.relf", root / "truth.json",
               SynthConfig(n_classes=classes, per_class=per_class, dims=dims,
                           separation=6.0),
               out_seeds=root / "seeds.json", seeds_per_class=4)
    run_pipeline(root / "features.relf", root / "seeds.json", root / "run", n_r=n_r,
                 strategy="retrieval-score")
    labels, _, _ = load_propagated(root / "run" / PROPAGATED_NAME)
    unit = l2_normalize(load_features(root / "run" / WHITENED_NAME))
    return unit, labels, load_seeds(root / "seeds.json"), n_r


class TestFloat32ProbeMatchesOracle:
    def test_averaged_loss_and_selection(self, probe_inputs):
        unit, labels, seeds, n_r = probe_inputs
        cfg = ProbeConfig()
        losses = train_probe(unit, labels, cfg, n_classes=seeds.n_classes)
        oracle = float64_probe(unit, labels, cfg, seeds.n_classes)
        assert np.max(np.abs(losses - oracle)) <= 1e-4
        picked = select_reliable(losses, labels, seeds, n_r)
        expected = select_reliable(oracle, labels, seeds, n_r)
        for column in ("index", "label", "is_seed"):
            assert getattr(picked, column).tolist() == getattr(expected, column).tolist()
        assert picked.per_class_count.tolist() == expected.per_class_count.tolist()


class TestProbeMatchesPlainFloat32:
    @pytest.mark.parametrize("batch_size", [128, 5000])
    def test_losses_bitwise_equal(self, probe_inputs, batch_size):
        # Neither fixture's N is a multiple of 128, so the last batch is
        # short; 5000 puts every sample in one batch.
        unit, labels, seeds, _ = probe_inputs
        cfg = ProbeConfig(epochs=20, average_window=5, batch_size=batch_size)
        losses = train_probe(unit, labels, cfg, n_classes=seeds.n_classes)
        plain = plain_float32_probe(unit, labels, cfg, seeds.n_classes)
        assert losses.tobytes() == plain.tobytes()


# Trains the probe on N = 12k, C = 100, D = 128 synth features with 30% of
# the labels redrawn at random and writes the averaged losses' bytes to argv[1].
THREADED_PROBE = """
import sys
import numpy as np
from relab.features import l2_normalize
from relab.selection import ProbeConfig, train_probe
from relab.synth import SynthConfig, generate
X, truth = generate(SynthConfig(n_classes=100, per_class=120, dims=128, separation=6.0))
rng = np.random.default_rng(0)
noisy = np.where(rng.random(truth.size) < 0.3, rng.integers(0, 100, truth.size), truth)
losses = train_probe(l2_normalize(X), noisy, ProbeConfig(), n_classes=100)
with open(sys.argv[1], "wb") as handle:
    handle.write(losses.tobytes())
"""


class TestProbeBitsIgnoreThreads:
    def test_one_and_two_blas_threads_agree(self, tmp_path):
        package_parent = str(Path(relab.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in [package_parent, os.environ.get("PYTHONPATH", "")] if p)
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.bin"
            env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", THREADED_PROBE, str(out)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert len(blobs[0]) == 12000 * 8
        assert blobs[0] == blobs[1]


class TestSelectReliable:
    def test_hand_worked_selection(self):
        # C=2, n_r=4: seeds {0, 5} plus the lowest-loss candidate per class.
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        losses = [9.0, 0.5, 0.4, 0.1, 0.6, 9.0, 0.5, 0.05, 0.3, 0.6]
        seeds = seeds_of({0: 0, 5: 1}, 2)
        rset = select_reliable(losses, labels, seeds, n_r=4)
        assert rset.target_per_class == 2
        assert rset.per_class_count.tolist() == [2, 2]
        assert rset.score_kind == "avg_loss"
        assert rset.warnings == []
        # Each class's seeds, then its chosen candidates.
        assert rset.index.tolist() == [0, 3, 5, 7]
        assert rset.label.tolist() == [0, 0, 1, 1]
        assert rset.is_seed.tolist() == [True, False, True, False]
        assert rset.score.tolist() == [9.0, 0.1, 9.0, 0.05]
        for column, dtype in (("index", np.int64), ("label", np.int64), ("is_seed", bool),
                              ("score", np.float64)):
            assert getattr(rset, column).dtype == dtype

    def test_seed_only_when_target_equals_seed_count(self):
        labels = np.array([0, 0, 1, 1])
        rset = select_reliable([0.1] * 4, labels,
                               seeds_of({0: 0, 2: 1}, 2), n_r=2)
        assert sorted(rset.index.tolist()) == [0, 2]
        assert rset.is_seed.all()

    def test_loss_tie_prefers_lower_index(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        losses = [9.0, 0.2, 0.2, 9.0, 0.7, 0.7]
        rset = select_reliable(losses, labels,
                               seeds_of({0: 0, 3: 1}, 2), n_r=4)
        assert sorted(rset.index.tolist()) == [0, 1, 3, 4]

    def test_shortfall_fills_what_exists_and_warns(self):
        labels = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
        losses = np.linspace(0.1, 1.0, 10)
        rset = select_reliable(losses, labels,
                               seeds_of({0: 0, 2: 1}, 2), n_r=8)
        assert rset.per_class_count.tolist() == [2, 4]
        assert len(rset.warnings) == 1
        assert "class 0" in rset.warnings[0]

    def test_nr_not_divisible_rejected(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ConfigError):
            select_reliable([0.1] * 4, labels, seeds_of({0: 0, 1: 1}, 2), n_r=5)

    def test_target_below_seed_count_rejected(self):
        labels = np.array([0, 0, 0, 1])
        seeds = seeds_of({0: 0, 1: 0, 2: 0, 3: 1}, 2)
        with pytest.raises(ConfigError):
            select_reliable([0.1] * 4, labels, seeds, n_r=4)

    def test_seed_index_out_of_range_rejected(self):
        labels = np.array([0, 1])
        with pytest.raises(DataError):
            select_reliable([0.1, 0.1], labels, seeds_of({5: 0, 1: 1}, 2), n_r=2)

    def test_growing_budget_keeps_earlier_picks(self, rng):
        n = 60
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        losses = rng.uniform(0.0, 1.0, size=n)
        seeds = seeds_of({0: 0, 1: 1}, 2)
        previous = set()
        for n_r in (4, 8, 12, 16):
            chosen = set(select_reliable(losses, labels, seeds, n_r).index.tolist())
            assert previous <= chosen
            previous = chosen

    def test_deterministic(self, rng):
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        losses = rng.uniform(size=30)
        seeds = seeds_of({0: 0, 1: 1, 2: 2}, 3)
        r1 = select_reliable(losses, labels, seeds, n_r=15)
        r2 = select_reliable(losses, labels, seeds, n_r=15)
        assert_same_columns(r1, r2)


class TestSelectByRetrievalScore:
    def test_highest_score_wins(self):
        rset = select_by_retrieval_score([0, 0, 0, 1, 1, 1],
                                         [0.9, 0.8, 0.95, 0.1, 0.7, 0.3],
                                         seeds_of({0: 0, 3: 1}, 2), n_r=4)
        assert sorted(rset.index.tolist()) == [0, 2, 3, 4]
        assert rset.score_kind == "retrieval_score"

    def test_score_tie_prefers_lower_index(self):
        rset = select_by_retrieval_score([0, 0, 0, 1, 1, 1],
                                         [1.0, 0.5, 0.5, 1.0, 0.2, 0.2],
                                         seeds_of({0: 0, 3: 1}, 2), n_r=4)
        assert sorted(rset.index.tolist()) == [0, 1, 3, 4]


class TestReliableIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "reliable.jsonl"
        rset = rset_of([0, 3, 5], [0, 0, 1], [True, False, True], [0.5, 0.25, 0.75],
                       [2, 1], 2, "avg_loss",
                       ["class 1: only 0 candidate(s) for 1 slot(s)"])
        save_reliable(path, rset)
        loaded = load_reliable(path)
        assert_same_columns(loaded, rset)
        assert loaded.per_class_count.tolist() == [2, 1]
        assert loaded.target_per_class == 2
        assert loaded.score_kind == "avg_loss"
        assert loaded.warnings == rset.warnings

    def test_round_trip_retrieval_kind(self, tmp_path):
        path = tmp_path / "reliable.jsonl"
        rset = rset_of([1], [0], [True], [0.9], [1], 1, "retrieval_score")
        save_reliable(path, rset)
        loaded = load_reliable(path)
        assert loaded.score_kind == "retrieval_score"
        assert_same_columns(loaded, rset)

    def test_missing_summary_rejected(self, tmp_path):
        path = tmp_path / "reliable.jsonl"
        path.write_text(json.dumps(
            {"index": 0, "class": 0, "origin": "seed", "avg_loss": 0.1}) + "\n")
        with pytest.raises(FormatError):
            load_reliable(path)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "reliable.jsonl"
        lines = [
            json.dumps({"index": 0, "class": 0}),
            json.dumps({"summary": True, "score_kind": "avg_loss",
                        "target_per_class": 1, "per_class_count": [1],
                        "warnings": []}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_reliable(path)
