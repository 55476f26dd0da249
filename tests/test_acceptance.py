"""End-to-end acceptance checks, one test per shipped guarantee.

Run `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion; each line carries the measured numbers behind the verdict.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from relab.diffusion import diffuse, diffusion_scores, nn_propagate
from relab.features import l2_normalize, pca_whiten
from relab.graph import AffinityGraph, build_affinity, normalize
from relab.metrics import compare_selection, noise_report
from relab.pipeline import (
    GRAPH_NAME,
    PROPAGATED_NAME,
    RELIABLE_NAME,
    REPORT_NAME,
    WHITENED_NAME,
    run_pipeline,
    synth_step,
)
from relab.selection import ORIGIN_BOOTSTRAPPED, ProbeConfig, select_reliable, train_probe
from relab.synth import SynthConfig, generate, pick_seeds

from conftest import seeds_of


def _report(num, ok, detail):
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance criterion {num}: {detail}"


def random_graph(rng, n):
    upper = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), k=1)
    A = upper + upper.T
    return normalize(AffinityGraph(n=n, matrix=sp.csr_matrix(A)))


def random_label_matrix(rng, n):
    c = int(rng.integers(1, 4))
    Y = np.zeros((n, c))
    for i in range(n):
        if i == 0 or rng.uniform() < 0.15:
            Y[i, rng.integers(0, c)] = 1.0
    return Y


def propagate_chain(X, seeds, alpha=0.99):
    """whiten -> cosine graph -> diffusion, the standard label chain."""
    W, _ = pca_whiten(X)
    graph = normalize(build_affinity(W))
    return diffuse(graph, seeds, alpha=alpha), W


@pytest.fixture(scope="module")
def nn_comparison_runs():
    """Criterion 3 fixture: diffusion vs nearest-seed noise on 10 draws."""
    start = time.monotonic()
    pairs = []
    for seed in range(10):
        cfg = SynthConfig(n_classes=10, per_class=100, dims=32, separation=3.0,
                          rng_seed=seed)
        X, truth = generate(cfg)
        seeds = pick_seeds(truth, 4, rng_seed=seed)
        result, W = propagate_chain(X, seeds)
        diff_noise = noise_report(result.labels, truth, 10).overall_noise_pct
        nn_labels, _ = nn_propagate(W, seeds)
        nn_noise = noise_report(nn_labels, truth, 10).overall_noise_pct
        pairs.append((diff_noise, nn_noise))
    return {"pairs": pairs, "elapsed": time.monotonic() - start}


# Separation tuned so the chain lands in the 15-35% propagated-noise band
# these criteria require; see tests below, which assert the precondition.
BOOT_SEPARATION = 6.0
BOOT_SIZES = (25, 50, 75, 100)


@pytest.fixture(scope="module")
def bootstrap_runs():
    """Criteria 4/5/6 fixture: 10 draws, probe training, 4 budget sizes."""
    start = time.monotonic()
    runs = []
    for seed in range(10):
        cfg = SynthConfig(n_classes=10, per_class=100, dims=32,
                          separation=BOOT_SEPARATION, rng_seed=seed)
        X, truth = generate(cfg)
        seeds = pick_seeds(truth, 4, rng_seed=seed)
        result, W = propagate_chain(X, seeds)
        labels = result.labels
        prop_noise = noise_report(labels, truth, 10).overall_noise_pct
        losses = train_probe(l2_normalize(W), labels, ProbeConfig(), n_classes=10)
        selections = {}
        for per_class in BOOT_SIZES:
            rset = select_reliable(losses, labels, seeds, n_r=per_class * 10)
            report = compare_selection(rset, truth, 10)
            selections[per_class] = {"rset": rset, "report": report}
        runs.append({
            "labels": labels,
            "truth": truth,
            "seeds": seeds,
            "prop_noise": prop_noise,
            "selections": selections,
        })
    return {"runs": runs, "elapsed": time.monotonic() - start}


class TestCriterion1SolverOracle:
    def test_cg_matches_dense_solve(self):
        rng = np.random.default_rng(2024)
        alphas = (0.5, 0.9, 0.99)
        start = time.monotonic()
        worst = 0.0
        for i in range(100):
            n = int(rng.integers(5, 51))
            graph = random_graph(rng, n)
            Y = random_label_matrix(rng, n)
            alpha = alphas[i % 3]
            F, _ = diffusion_scores(graph, Y, alpha=alpha, tol=1e-12, max_iter=20000)
            expected = np.linalg.solve(np.eye(n) - alpha * graph.s.toarray(), Y)
            worst = max(worst, float(np.max(np.abs(F - expected))))
        elapsed = time.monotonic() - start
        _report(1, worst <= 1e-8 and elapsed < 10.0,
                f"max |CG - dense| = {worst:.3e} over 100 graphs "
                f"(limit 1e-8), {elapsed:.2f}s (limit 10s)")


class TestCriterion2TrivialLimit:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(7)
        ok = True
        for _ in range(10):
            n = int(rng.integers(5, 40))
            graph = random_graph(rng, n)
            Y = random_label_matrix(rng, n)
            F, _ = diffusion_scores(graph, Y, alpha=0.0)
            ok = ok and F.tobytes() == Y.tobytes()
        _report(2, ok, "alpha=0 returned F=Y bitwise on 10 random instances")


class TestCriterion3DiffusionBeatsNN:
    def test_lower_mean_noise_than_nearest_seed(self, nn_comparison_runs):
        pairs = nn_comparison_runs["pairs"]
        elapsed = nn_comparison_runs["elapsed"]
        diff_mean = float(np.mean([p[0] for p in pairs]))
        nn_mean = float(np.mean([p[1] for p in pairs]))
        strict_wins = sum(1 for d, n in pairs if d < n)
        ok = diff_mean <= nn_mean and strict_wins >= 7 and elapsed < 60.0
        _report(3, ok,
                f"diffusion {diff_mean:.2f}% vs nn {nn_mean:.2f}% mean noise, "
                f"{strict_wins}/10 strict wins (need >=7), {elapsed:.1f}s (limit 60s)")


class TestCriterion4SelectionReducesNoise:
    def test_bootstrapped_noise_below_propagated(self, bootstrap_runs):
        runs = bootstrap_runs["runs"]
        elapsed = bootstrap_runs["elapsed"]
        prop = np.array([r["prop_noise"] for r in runs])
        band_ok = 15.0 <= prop.mean() <= 35.0
        boot = np.array([
            r["selections"][25]["report"].origin_noise_pct[ORIGIN_BOOTSTRAPPED]
            for r in runs
        ])
        strict_wins = int(np.sum(boot < prop))
        reduction = float(np.mean((prop - boot) / prop))
        ok = band_ok and strict_wins >= 9 and reduction >= 0.30 and elapsed < 120.0
        _report(4, ok,
                f"propagated {prop.mean():.1f}% mean noise (band 15-35%), "
                f"bootstrapped-entry {boot.mean():.2f}%, {strict_wins}/10 strict "
                f"wins (need >=9), {100 * reduction:.1f}% mean relative reduction "
                f"(need >=30%), {elapsed:.1f}s (limit 120s)")


class TestCriterion5BudgetTrend:
    def test_reliable_noise_non_decreasing_in_budget(self, bootstrap_runs):
        runs = bootstrap_runs["runs"]
        means = [
            float(np.mean([
                r["selections"][pc]["report"].overall_noise_pct for r in runs
            ]))
            for pc in BOOT_SIZES
        ]
        diffs = np.diff(means)
        ok = bool(np.all(diffs >= -1e-12))
        curve = ", ".join(f"{pc}:{m:.2f}%" for pc, m in zip(BOOT_SIZES, means))
        _report(5, ok, f"mean reliable-set noise by per-class budget {{{curve}}} "
                       "is non-decreasing")


class TestCriterion6BalanceAndSeeds:
    def test_exact_balance_and_seed_preservation(self, bootstrap_runs):
        failures = []
        checked = 0
        for run_idx, run in enumerate(bootstrap_runs["runs"]):
            labels, seeds = run["labels"], run["seeds"]
            is_seed = np.zeros(labels.shape[0], dtype=bool)
            is_seed[seeds.index] = True
            for per_class, sel in run["selections"].items():
                rset = sel["rset"]
                checked += 1
                entry_classes = dict(zip(rset.index.tolist(), rset.label.tolist()))
                for idx, cls in zip(seeds.index.tolist(), seeds.label.tolist()):
                    if entry_classes.get(idx) != cls:
                        failures.append(f"run {run_idx} n_r/C={per_class}: "
                                        f"seed {idx} missing or relabeled")
                for cls in range(10):
                    available = int(np.sum(seeds.label == cls)) + int(
                        np.sum((labels == cls) & ~is_seed))
                    expected = min(per_class, available)
                    got = int(rset.per_class_count[cls])
                    if got != expected:
                        failures.append(
                            f"run {run_idx} n_r/C={per_class} class {cls}: "
                            f"{got} entries, expected {expected}")
        ok = not failures
        _report(6, ok,
                f"exact per-class counts and seed preservation on {checked} "
                f"selections" + ("" if ok else f"; first issue: {failures[0]}"))


class TestCriterion7Whitening:
    def test_identity_covariance(self):
        rng = np.random.default_rng(42)
        worst_cov = 0.0
        worst_mean = 0.0
        for _ in range(50):
            n = int(rng.integers(10, 81))
            d = int(rng.integers(2, min(41, n)))
            X = rng.standard_normal((n, d)) @ rng.uniform(-2, 2, size=(d, d))
            X += rng.uniform(-5, 5, size=d)
            W, _ = pca_whiten(X)
            cov = np.cov(W, rowvar=False, ddof=1)
            cov = np.atleast_2d(cov)
            worst_cov = max(worst_cov, float(np.max(np.abs(cov - np.eye(W.shape[1])))))
            worst_mean = max(worst_mean, float(np.max(np.abs(W.mean(axis=0)))))
        ok = worst_cov <= 1e-6 and worst_mean <= 1e-9
        _report(7, ok,
                f"max |cov - I| = {worst_cov:.3e} (limit 1e-6), "
                f"max |mean| = {worst_mean:.3e} (limit 1e-9) over 50 instances")


class TestCriterion8Invariances:
    @staticmethod
    def chain_labels(X, seeds):
        return propagate_chain(X, seeds)[0].labels

    def test_scale_and_permutation_invariance(self):
        scales = (0.25, 0.5, 2.0, 4.0, 8.0)
        scale_ok = 0
        perm_ok = 0
        for i in range(20):
            cfg = SynthConfig(n_classes=3, per_class=20, dims=8, separation=5.0,
                              rng_seed=100 + i)
            X, truth = generate(cfg)
            seeds = pick_seeds(truth, 2, rng_seed=i)
            base = self.chain_labels(X, seeds)

            scaled = self.chain_labels(scales[i % len(scales)] * X, seeds)
            scale_ok += int(np.array_equal(scaled, base))

            perm = np.random.default_rng(i).permutation(X.shape[0])
            inv = np.argsort(perm)
            permuted_seeds = seeds_of(
                zip(inv[seeds.index].tolist(), seeds.label.tolist()), 3)
            permuted = self.chain_labels(X[perm], permuted_seeds)
            perm_ok += int(np.array_equal(permuted, base[perm]))
        ok = scale_ok == 20 and perm_ok == 20
        _report(8, ok,
                f"labels identical on {scale_ok}/20 scaled and {perm_ok}/20 "
                f"permuted instances")


class TestCriterion9Determinism:
    def test_pipeline_twice_is_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        synth_step(str(data / "features.relf"), str(data / "truth.json"),
                   SynthConfig(n_classes=4, per_class=30, dims=8, separation=8.0,
                               rng_seed=0),
                   out_seeds=str(data / "seeds.json"), seeds_per_class=3)
        artifacts = [WHITENED_NAME, GRAPH_NAME, PROPAGATED_NAME, RELIABLE_NAME,
                     REPORT_NAME]
        blobs = []
        for run_dir in ("run1", "run2"):
            run_pipeline(str(data / "features.relf"), str(data / "seeds.json"),
                         str(tmp_path / run_dir), truth_path=str(data / "truth.json"),
                         n_r=40)
            blobs.append({a: (tmp_path / run_dir / a).read_bytes() for a in artifacts})
        identical = [a for a in artifacts if blobs[0][a] == blobs[1][a]]
        ok = len(identical) == len(artifacts)
        _report(9, ok, f"{len(identical)}/{len(artifacts)} pipeline artifacts "
                       f"byte-identical across two runs")


class TestCriterion10ImbalanceReporting:
    # (predicted, truth, expected-report) triples with rational-valued stats.
    FIXTURES = [
        (
            [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
            [0, 0, 0, 1, 1, 1, 1, 0, 0, 0],
            2,
            {"count_median": 5.0, "count_std": 1.0,
             "noise_median_pct": 37.5, "noise_std_pct": 12.5,
             "overall_noise_pct": 40.0},
        ),
        (
            [0, 0, 1, 1, 2],
            [0, 0, 1, 1, 2],
            3,
            {"count_median": 2.0, "count_std": math.sqrt(2.0) / 3.0,
             "noise_median_pct": 0.0, "noise_std_pct": 0.0,
             "overall_noise_pct": 0.0},
        ),
        (
            [0, 0, 0, 1, 1, 1],
            [0, 0, 1, 1, 0, 0],
            3,
            {"count_median": 3.0, "count_std": math.sqrt(2.0),
             "noise_median_pct": 50.0, "noise_std_pct": 50.0 / 3.0,
             "overall_noise_pct": 50.0},
        ),
        (
            [0] + [1] * 2 + [2] * 3 + [3] * 4 + [4] * 5,
            [0, 1, 0, 2, 2, 0, 3, 3, 0, 0, 4, 4, 4, 4, 4],
            5,
            {"count_median": 3.0, "count_std": math.sqrt(2.0),
             "noise_median_pct": 100.0 / 3.0,
             "noise_std_pct": 10.0 * math.sqrt(46.0) / 3.0,
             "overall_noise_pct": 80.0 / 3.0},
        ),
        (
            [1, 1, 1, 1],
            [0, 0, 0, 0],
            2,
            {"count_median": 2.0, "count_std": 2.0,
             "noise_median_pct": 100.0, "noise_std_pct": 0.0,
             "overall_noise_pct": 100.0},
        ),
    ]

    def test_hand_computed_stats(self):
        worst = 0.0
        for predicted, truth, n_classes, expected in self.FIXTURES:
            report = noise_report(np.array(predicted), np.array(truth), n_classes)
            for key, value in expected.items():
                worst = max(worst, abs(getattr(report, key) - value))
        ok = worst <= 1e-9
        _report(10, ok, f"max |reported - hand-computed| = {worst:.3e} over "
                        f"{len(self.FIXTURES)} fixtures (limit 1e-9)")
