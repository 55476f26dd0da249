import numpy as np
import pytest

from relab.diffusion import diffuse
from relab.errors import ConfigError, GenerationError
from relab.features import pca_whiten
from relab.graph import build_affinity, normalize
from relab.metrics import noise_report
from relab.synth import SynthConfig, generate, pick_seeds


class TestSynthConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_classes": 1},
        {"per_class": 0},
        {"dims": 1},
        {"separation": 0.0},
        {"separation": -2.0},
        {"n_classes": 3, "imbalance": (5, 5)},
        {"n_classes": 2, "imbalance": (5, 0)},
        {"separation": float("inf")},
        {"rng_seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)

    def test_class_counts(self):
        assert SynthConfig(n_classes=3, per_class=7).class_counts() == [7, 7, 7]
        assert SynthConfig(n_classes=2, imbalance=(10, 90)).class_counts() == [10, 90]


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n_classes=4, per_class=20, dims=8, separation=5.0, rng_seed=9)
        X1, y1 = generate(cfg)
        X2, y2 = generate(cfg)
        assert X1.tobytes() == X2.tobytes()
        assert np.array_equal(y1, y2)

    def test_different_seed_different_data(self):
        X1, _ = generate(SynthConfig(n_classes=3, per_class=5, dims=4, rng_seed=0))
        X2, _ = generate(SynthConfig(n_classes=3, per_class=5, dims=4, rng_seed=1))
        assert X1.tobytes() != X2.tobytes()

    def test_balanced_counts(self):
        _, truth = generate(SynthConfig(n_classes=5, per_class=12, dims=6))
        assert np.bincount(truth, minlength=5).tolist() == [12] * 5

    def test_imbalance_counts(self):
        _, truth = generate(SynthConfig(n_classes=2, imbalance=(10, 90), dims=4))
        assert np.bincount(truth, minlength=2).tolist() == [10, 90]

    def test_shapes(self):
        X, truth = generate(SynthConfig(n_classes=3, per_class=4, dims=7))
        assert X.shape == (12, 7)
        assert truth.shape == (12,)
        assert X.dtype == np.float64

    def test_min_center_distance_matches_separation(self):
        # With many samples per class the empirical class means recover the
        # centers to ~0.1, so the minimum pairwise distance lands near the
        # configured separation.
        cfg = SynthConfig(n_classes=4, per_class=1500, dims=16, separation=5.0,
                          rng_seed=3)
        X, truth = generate(cfg)
        means = np.stack([X[truth == cls].mean(axis=0) for cls in range(4)])
        dists = [
            np.linalg.norm(means[i] - means[j])
            for i in range(4) for j in range(i + 1, 4)
        ]
        assert abs(min(dists) - 5.0) < 0.5

    def test_unit_noise_scale(self):
        cfg = SynthConfig(n_classes=2, per_class=4000, dims=8, separation=5.0)
        X, truth = generate(cfg)
        for cls in (0, 1):
            block = X[truth == cls]
            centered = block - block.mean(axis=0)
            assert abs(centered.std() - 1.0) < 0.05

    def test_indistinct_directions_raise(self):
        # 400 unit directions in the plane collide at the 1e-3 spacing
        # threshold on every draw, so generation gives up.
        cfg = SynthConfig(n_classes=400, per_class=1, dims=2)
        with pytest.raises(GenerationError):
            generate(cfg)


class TestPickSeeds:
    def test_one_per_class(self):
        truth = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        seeds = pick_seeds(truth, per_class=1, rng_seed=4)
        assert seeds.n_classes == 3
        for cls in range(3):
            group = seeds.index[seeds.label == cls]
            assert len(group) == 1
            assert truth[group[0]] == cls

    def test_interleaved_truth_gives_ascending_aligned_columns(self):
        truth = np.tile([1, 0], 10)
        seeds = pick_seeds(truth, per_class=3, rng_seed=2)
        assert np.all(np.diff(seeds.index) > 0)
        assert np.array_equal(truth[seeds.index], seeds.label)

    def test_deterministic(self):
        truth = np.repeat(np.arange(4), 10)
        a = pick_seeds(truth, per_class=3, rng_seed=11)
        b = pick_seeds(truth, per_class=3, rng_seed=11)
        assert np.array_equal(a.index, b.index)
        assert np.array_equal(a.label, b.label)

    def test_distinct_indices(self):
        truth = np.repeat(np.arange(2), 5)
        seeds = pick_seeds(truth, per_class=4, rng_seed=0)
        assert len(seeds) == 8  # SeedLabels refuses a repeated index

    def test_class_too_small(self):
        truth = np.array([0, 0, 1])
        with pytest.raises(ConfigError):
            pick_seeds(truth, per_class=2)

    def test_empty_truth(self):
        with pytest.raises(ConfigError):
            pick_seeds(np.array([], dtype=np.int64), per_class=1)

    def test_bad_per_class(self):
        with pytest.raises(ConfigError):
            pick_seeds(np.array([0, 1]), per_class=0)

    def test_negative_rng_seed(self):
        with pytest.raises(ConfigError, match="rng_seed must be >= 0, got -1"):
            pick_seeds(np.array([0, 1]), per_class=1, rng_seed=-1)


def diffusion_noise_pct(separation, rng_seed):
    """Propagated-label noise of the full chain on one synthetic draw."""
    cfg = SynthConfig(n_classes=10, per_class=100, dims=32, separation=separation,
                      rng_seed=rng_seed)
    X, truth = generate(cfg)
    W, _ = pca_whiten(X)
    seeds = pick_seeds(truth, per_class=4, rng_seed=rng_seed)
    graph = normalize(build_affinity(W))
    result = diffuse(graph, seeds)
    return noise_report(result.labels, truth, 10).overall_noise_pct


class TestDifficultyMonotonicity:
    def test_noise_never_increases_with_separation(self):
        # Wider class separation can only make propagation easier.
        seeds = range(10)
        means = []
        for sep in (2.0, 4.0, 8.0):
            means.append(np.mean([diffusion_noise_pct(sep, s) for s in seeds]))
        assert means[0] >= means[1] >= means[2]
