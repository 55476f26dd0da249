import json

import numpy as np
import pytest
import scipy.sparse as sp

import relab.diffusion as diffusion_module
from relab.diffusion import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SeedLabels,
    diffuse,
    diffusion_scores,
    load_propagated,
    load_seeds,
    nn_propagate,
    save_propagated,
    save_seeds,
)
from relab.errors import ConfigError, DataError, DegenerateInputError, FormatError, SolverError
from relab.graph import AffinityGraph, build_affinity, normalize

from conftest import seeds_of, traced_peak


def random_normalized_graph(rng, n):
    """Random symmetric nonnegative affinity with zero diagonal."""
    upper = np.triu(rng.uniform(0.1, 1.0, size=(n, n)), k=1)
    A = upper + upper.T
    return normalize(AffinityGraph(n=n, matrix=sp.csr_matrix(A)))


def label_matrix(seeds, n):
    """The one-hot N x C matrix diffuse solves for: row i is one at the
    seed class of sample i, else zero."""
    Y = np.zeros((n, seeds.n_classes))
    Y[seeds.index, seeds.label] = 1.0
    return Y


def dense_solve(graph, Y, alpha):
    """Direct LU oracle for (I - alpha*S) F = Y."""
    S = graph.s.toarray()
    return np.linalg.solve(np.eye(graph.n) - alpha * S, Y)


def oracle_cg(matvec, b, tol, max_iter):
    """The per-column conjugate gradient the block solver replaced.

    Returns (x, relative_residual, iterations); x is None when max_iter was
    exhausted before reaching tol.
    """
    bnorm = float(np.sqrt(np.einsum("i,i->", b, b)))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0.0, 0
    r = b.copy()
    d = r.copy()
    rs = float(np.einsum("i,i->", r, r))
    for iteration in range(1, max_iter + 1):
        Ad = matvec(d)
        step = rs / float(np.einsum("i,i->", d, Ad))
        x = x + step * d
        r = r - step * Ad
        rs_next = float(np.einsum("i,i->", r, r))
        if np.sqrt(rs_next) <= tol * bnorm:
            return x, np.sqrt(rs_next) / bnorm, iteration
        d = r + (rs_next / rs) * d
        rs = rs_next
    return None, np.sqrt(rs) / bnorm, max_iter


def oracle_diffuse(graph, Y, alpha, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """One oracle_cg solve per class column, in class order.

    Returns (F, iterations), or (None, (class, residual)) for the first
    class that did not converge.
    """
    S = graph.s

    def matvec(x):
        return x - alpha * (S @ x)

    F = np.empty_like(Y)
    iterations = []
    for c in range(Y.shape[1]):
        x, rel, its = oracle_cg(matvec, Y[:, c], tol, max_iter)
        if x is None:
            return None, (c, rel)
        F[:, c] = x
        iterations.append(its)
    return F, iterations


def class_problem(n_classes, zero_columns=(), n=400, seed=0):
    """A k=10 graph over random points, 1 to 4 seeds per class on distinct
    samples, and their label matrix: (graph, seeds, Y).

    The seed counts and positions vary by class, so the columns converge
    at different iterations; zero_columns have no seed at all.
    """
    rng = np.random.default_rng(seed)
    graph = normalize(build_affinity(rng.standard_normal((n, 8)), k=10))
    counts = [0 if c in zero_columns else 1 + c % 4 for c in range(n_classes)]
    seeds = SeedLabels(index=rng.choice(n, size=sum(counts), replace=False),
                       label=np.repeat(np.arange(n_classes), counts), n_classes=n_classes)
    return graph, seeds, label_matrix(seeds, n)


def decode(blocks):
    """Labels and row maxima of F given as its class blocks (rows are
    classes), folded as diffuse folds them."""
    blocks = [np.asarray(X, dtype=np.float64) for X in blocks]
    n = blocks[0].shape[1]
    best, labels = np.full(n, -np.inf), np.zeros(n, dtype=np.int64)
    lo = 0
    for X in blocks:
        diffusion_module._fold_block(best, labels, X, lo)
        lo += len(X)
    return labels, best


class TestSeedLabels:
    def test_validation(self):
        seeds = SeedLabels(index=[7, 0, 3], label=[2, 0, 1], n_classes=3)
        assert seeds.index.dtype == seeds.label.dtype == np.int64
        assert seeds.index.tolist() == [0, 3, 7]
        assert seeds.label.tolist() == [0, 1, 2]
        with pytest.raises(ConfigError, match="seed class 2 out of range for 2 classes"):
            SeedLabels(index=[0], label=[2], n_classes=2)
        with pytest.raises(ConfigError, match="seed index -1 is negative"):
            SeedLabels(index=[-1], label=[0], n_classes=2)
        with pytest.raises(ConfigError, match="n_classes must be >= 1, got 0"):
            SeedLabels(index=[0], label=[0], n_classes=0)
        with pytest.raises(ConfigError, match="duplicate seed index 4"):
            SeedLabels(index=[4, 1, 4], label=[0, 1, 1], n_classes=2)
        with pytest.raises(ConfigError, match="duplicate seed index 3"):
            SeedLabels(index=[7, 3, 7, 3], label=[0, 1, 1, 0], n_classes=2)
        with pytest.raises(ConfigError, match="seed index -3 is negative"):
            SeedLabels(index=[5, -3, 2], label=[0, 1, 1], n_classes=2)
        with pytest.raises(ConfigError, match="seed class -1 out of range for 3 classes"):
            SeedLabels(index=[9, 2], label=[0, -1], n_classes=3)
        with pytest.raises(ConfigError, match="one length"):
            SeedLabels(index=[0, 1], label=[0], n_classes=2)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "seeds.json"
        seeds = seeds_of({3: 1, 0: 0, 7: 2}, 3)
        save_seeds(path, seeds)
        loaded = load_seeds(path)
        assert np.array_equal(loaded.index, seeds.index)
        assert np.array_equal(loaded.label, seeds.label)
        assert loaded.n_classes == 3

    def test_sorted_file_round_trips_byte_for_byte(self, tmp_path):
        path, again = tmp_path / "seeds.json", tmp_path / "again.json"
        save_seeds(path, seeds_of({0: 1, 5: 0, 6: 2, 40: 1}, 3))
        save_seeds(again, load_seeds(path))
        assert again.read_bytes() == path.read_bytes()

    def test_entry_order_does_not_change_saved_bytes(self, tmp_path):
        doc = {"n_classes": 3, "seeds": [{"index": i, "class": c}
                                         for i, c in [(0, 1), (5, 0), (6, 2), (40, 1)]]}
        sorted_path, shuffled_path = tmp_path / "sorted.json", tmp_path / "shuffled.json"
        sorted_path.write_text(json.dumps(doc))
        doc["seeds"] = [doc["seeds"][i] for i in (2, 0, 3, 1)]
        shuffled_path.write_text(json.dumps(doc))
        save_seeds(sorted_path, load_seeds(sorted_path))
        save_seeds(shuffled_path, load_seeds(shuffled_path))
        assert shuffled_path.read_bytes() == sorted_path.read_bytes()

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({
            "n_classes": 2,
            "seeds": [{"index": 1, "class": 0}, {"index": 1, "class": 1}],
        }))
        with pytest.raises(FormatError):
            load_seeds(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"seeds": []}))
        with pytest.raises(FormatError):
            load_seeds(path)

    def test_load_rejects_class_out_of_range(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({
            "n_classes": 2,
            "seeds": [{"index": 0, "class": 5}],
        }))
        with pytest.raises(FormatError):
            load_seeds(path)

    def test_load_rejects_non_integer_index(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({
            "n_classes": 2,
            "seeds": [{"index": "0", "class": 1}],
        }))
        with pytest.raises(FormatError):
            load_seeds(path)

    @pytest.mark.parametrize("doc", [
        {"n_classes": 2**63, "seeds": []},
        {"n_classes": 2, "seeds": [{"index": 2**63, "class": 1}]},
        {"n_classes": 2, "seeds": [{"index": 0, "class": -2**63 - 1}]},
    ])
    def test_load_rejects_values_outside_int64(self, tmp_path, doc):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="int64"):
            load_seeds(path)

    def test_check_fits(self):
        seeds = seeds_of({0: 0, 2: 2}, 3)
        seeds.check_fits(3)
        with pytest.raises(DataError, match="seed index 2 "):
            seeds.check_fits(2)
        with pytest.raises(DataError, match="3 classes"):
            seeds_of({0: 0}, 3).check_fits(2)


class TestLabelMatrix:
    """diffuse's one-hot right-hand sides: at alpha = 0, F = Y."""

    def test_single_seed(self, rng):
        result = diffuse(random_normalized_graph(rng, 3), seeds_of({0: 1}, 2), alpha=0.0)
        assert result.labels.tolist() == [1, 0, 0]
        assert result.retrieval_score.tolist() == [1.0, 0.0, 0.0]
        assert result.zero_rows == [1, 2]

    def test_empty_seeds(self, rng):
        result = diffuse(random_normalized_graph(rng, 3), seeds_of({}, 2), alpha=0.0)
        assert result.labels.tolist() == [0, 0, 0]
        assert result.retrieval_score.tolist() == [0.0, 0.0, 0.0]
        assert result.zero_rows == [0, 1, 2]
        assert result.iterations.tolist() == [0, 0]

    def test_two_seeds(self, rng):
        result = diffuse(random_normalized_graph(rng, 3), seeds_of({0: 0, 2: 1}, 2), alpha=0.0)
        assert result.labels.tolist() == [0, 0, 1]
        assert result.retrieval_score.tolist() == [1.0, 0.0, 1.0]
        assert result.zero_rows == [1]

    def test_index_out_of_range(self, rng):
        with pytest.raises(DataError, match="seed index 5 out of range for 3 samples"):
            diffuse(random_normalized_graph(rng, 3), seeds_of({5: 0}, 2))


class TestDiffuse:
    def test_matches_dense_solve(self, rng):
        for n in (5, 17, 50):
            graph = random_normalized_graph(rng, n)
            Y = label_matrix(seeds_of({0: 0, n - 1: 1}, 2), n)
            for alpha in (0.5, 0.9, 0.99):
                F, _ = diffusion_scores(graph, Y, alpha=alpha, tol=1e-12, max_iter=10000)
                expected = dense_solve(graph, Y, alpha)
                assert np.max(np.abs(F - expected)) < 1e-8

    def test_alpha_zero_returns_label_matrix_bitwise(self, rng):
        graph = random_normalized_graph(rng, 12)
        seeds = seeds_of({1: 0, 4: 1, 9: 2}, 3)
        Y = label_matrix(seeds, 12)
        F, _ = diffusion_scores(graph, Y, alpha=0.0)
        assert F.tobytes() == Y.tobytes()
        result = diffuse(graph, seeds, alpha=0.0)
        assert result.retrieval_score.tobytes() == Y.max(axis=1).tobytes()

    def test_two_node_hand_solution(self):
        # (I - 0.5*S) f = (1, 0) with S = [[0,1],[1,0]] has f = (4/3, 2/3).
        graph = normalize(AffinityGraph(n=2, matrix=sp.csr_matrix(
            np.array([[0.0, 1.0], [1.0, 0.0]]))))
        Y = np.array([[1.0, 0.0], [0.0, 0.0]])
        F, _ = diffusion_scores(graph, Y, alpha=0.5, tol=1e-12)
        np.testing.assert_allclose(F[:, 0], [4.0 / 3.0, 2.0 / 3.0], atol=1e-10)
        np.testing.assert_allclose(F[:, 1], [0.0, 0.0], atol=1e-15)
        result = diffuse(graph, seeds_of({0: 0}, 2), alpha=0.5, tol=1e-12)
        assert list(result.labels) == [0, 0]
        assert result.retrieval_score.tobytes() == F[:, 0].tobytes()

    def test_small_alpha_expansion(self, rng):
        # F = Y + aSY + a^2 S^2 F'', so || F - Y - aSY || <= a^2 ||S^2 Y|| / (1-a).
        graph = random_normalized_graph(rng, 20)
        Y = label_matrix(seeds_of({0: 0, 7: 1, 13: 1}, 2), 20)
        S = graph.s
        bound_base = np.linalg.norm(S @ (S @ Y))
        for alpha in (1e-3, 1e-4):
            F, _ = diffusion_scores(graph, Y, alpha=alpha, tol=1e-14)
            err = np.linalg.norm(F - Y - alpha * (S @ Y))
            assert err <= alpha**2 * bound_base / (1 - alpha) + 1e-12

    def test_seed_forcing_and_retrieval_scores(self, rng):
        graph = random_normalized_graph(rng, 10)
        seeds = seeds_of({0: 0, 5: 1}, 2)
        result = diffuse(graph, seeds, alpha=0.9)
        assert result.labels[0] == 0
        assert result.labels[5] == 1
        F, _ = diffusion_scores(graph, label_matrix(seeds, 10), alpha=0.9)
        assert result.retrieval_score.tobytes() == F.max(axis=1).tobytes()

    def test_disconnected_nodes_flagged_and_default_to_class_zero(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1.0
        graph = normalize(AffinityGraph(n=4, matrix=sp.csr_matrix(A)))
        result = diffuse(graph, seeds_of({0: 1}, 2), alpha=0.5)
        assert result.zero_rows == [2, 3]
        assert list(result.labels) == [1, 1, 0, 0]

    def test_alpha_validation(self, rng):
        graph = random_normalized_graph(rng, 5)
        for alpha in (1.0, -0.1):
            with pytest.raises(ConfigError):
                diffuse(graph, seeds_of({0: 0}, 2), alpha=alpha)
            with pytest.raises(ConfigError):
                diffusion_scores(graph, np.zeros((5, 2)), alpha=alpha)

    def test_shape_mismatch(self, rng):
        graph = random_normalized_graph(rng, 5)
        with pytest.raises(DataError):
            diffusion_scores(graph, np.zeros((4, 2)))
        with pytest.raises(DataError, match="6 classes do not fit in 5 samples"):
            diffuse(graph, seeds_of({0: 0}, 6))

    def test_non_convergence_raises_with_residual(self, rng):
        graph = random_normalized_graph(rng, 30)
        with pytest.raises(SolverError) as excinfo:
            diffuse(graph, seeds_of({0: 0}, 1), alpha=0.99, tol=1e-12, max_iter=1)
        assert excinfo.value.residual > 0

    def test_scale_invariant_labels(self, rng):
        X = rng.standard_normal((40, 6)) + 2.0
        seeds = seeds_of({0: 0, 20: 1}, 2)
        labels = []
        for scale in (1.0, 4.0):
            graph = normalize(build_affinity(scale * X))
            labels.append(diffuse(graph, seeds, alpha=0.9).labels)
        assert np.array_equal(labels[0], labels[1])

    def test_permutation_equivariant_labels(self, rng):
        X = rng.standard_normal((30, 5))
        X[:15] += 3.0
        seeds = seeds_of({0: 0, 20: 1}, 2)
        graph = normalize(build_affinity(X))
        base = diffuse(graph, seeds, alpha=0.9).labels

        perm = rng.permutation(30)
        inv = np.argsort(perm)
        permuted_seeds = seeds_of(zip(inv[seeds.index].tolist(), seeds.label.tolist()), 2)
        graph_p = normalize(build_affinity(X[perm]))
        permuted = diffuse(graph_p, permuted_seeds, alpha=0.9).labels
        assert np.array_equal(permuted, base[perm])


class TestBlockCGMatchesOracle:
    """The block solver reproduces the per-column CG bitwise."""

    @pytest.mark.parametrize("n_classes", [1, 16, 17, 100])
    def test_scores_and_iterations_bitwise(self, n_classes):
        graph, _, Y = class_problem(n_classes)
        F, iterations = diffusion_scores(graph, Y, alpha=0.99)
        expected, oracle_iterations = oracle_diffuse(graph, Y, 0.99)
        assert F.tobytes() == expected.tobytes()
        assert iterations.tolist() == oracle_iterations

    def test_zero_columns(self):
        # One all-zero column in each of the first two blocks.
        graph, _, Y = class_problem(20, zero_columns=(3, 17))
        F, iterations = diffusion_scores(graph, Y, alpha=0.9)
        expected, oracle_iterations = oracle_diffuse(graph, Y, 0.9)
        assert F.tobytes() == expected.tobytes()
        assert not F[:, [3, 17]].any()
        assert iterations[[3, 17]].tolist() == [0, 0]
        assert iterations.tolist() == oracle_iterations

    def test_columns_converge_at_different_iterations(self):
        graph, _, Y = class_problem(16)
        # sqrt(degree) is S's eigenvector for eigenvalue 1, so CG solves
        # that column in about one step while the seed columns go on.
        Y[:, 5] = np.sqrt(graph.degrees)
        F, iterations = diffusion_scores(graph, Y, alpha=0.99)
        expected, oracle_iterations = oracle_diffuse(graph, Y, 0.99)
        assert F.tobytes() == expected.tobytes()
        assert iterations.tolist() == oracle_iterations
        assert oracle_iterations[5] <= 2 < 10 < min(oracle_iterations[:5] + oracle_iterations[6:])

    @pytest.mark.parametrize("zero_columns", [(), tuple(range(17))])
    def test_solver_error_names_oracle_class_and_residual(self, zero_columns):
        # With the first 17 columns empty, the failing class is 17, in the
        # second block; diffuse and diffusion_scores both name it.
        graph, seeds, Y = class_problem(20, zero_columns=zero_columns)
        _, (cls, rel) = oracle_diffuse(graph, Y, 0.99, tol=1e-12, max_iter=5)
        assert cls == (zero_columns[-1] + 1 if zero_columns else 0)
        for solve in (lambda: diffusion_scores(graph, Y, alpha=0.99, tol=1e-12, max_iter=5),
                      lambda: diffuse(graph, seeds, alpha=0.99, tol=1e-12, max_iter=5)):
            with pytest.raises(SolverError) as excinfo:
                solve()
            assert excinfo.value.residual == rel
            assert str(excinfo.value) == (
                f"diffusion did not converge for class {cls} after 5 iterations "
                f"(relative residual {rel:.3e})")

    @pytest.mark.parametrize("n_classes", [1, 17])
    def test_label_matrix_unchanged(self, n_classes):
        graph, _, Y = class_problem(n_classes)
        before = Y.copy()
        diffusion_scores(graph, Y, alpha=0.99)
        assert Y.tobytes() == before.tobytes()


class TestBlockDecode:
    """diffuse decodes block by block exactly as a whole-F argmax would."""

    @pytest.mark.parametrize("n_classes", [1, 16, 17, 100])
    def test_labels_and_scores_bitwise_oracle(self, n_classes):
        graph, seeds, Y = class_problem(n_classes)
        result = diffuse(graph, seeds, alpha=0.99)
        F, iterations = oracle_diffuse(graph, Y, 0.99)
        expected = np.argmax(F, axis=1)
        expected[seeds.index] = seeds.label
        assert result.labels.tobytes() == expected.tobytes()
        assert result.retrieval_score.tobytes() == F.max(axis=1).tobytes()
        assert result.iterations.tolist() == iterations
        assert result.zero_rows == np.flatnonzero(~F.any(axis=1)).tolist()
        if n_classes > 16:
            assert (result.labels >= 16).any()  # some maxima lie in a later block

    def test_zero_rows_across_blocks(self, rng):
        # Two components; the second holds no seed, so its rows have no
        # mass in any of the 17 columns and decode to class 0.
        upper = np.triu(rng.uniform(0.1, 1.0, size=(10, 10)), k=1)
        A = upper + upper.T
        graph = normalize(AffinityGraph(n=20, matrix=sp.csr_matrix(sp.block_diag([A, A]))))
        result = diffuse(graph, seeds_of({2: 3, 7: 16}, 17), alpha=0.9)
        assert result.zero_rows == list(range(10, 20))
        assert set(result.labels[:10].tolist()) <= {3, 16}
        assert result.labels[10:].tolist() == [0] * 10
        assert result.retrieval_score[10:].tolist() == [0.0] * 10


class TestDiffuseMemory:
    def test_no_class_matrix_alive(self):
        # Holding Y and F whole (N x C float64 each, 7.6 MiB at N = 10k,
        # C = 100) traced a 26 MiB peak here; one block of _BLOCK_ROWS
        # classes at a time traces about 12 MiB, the block CG's scratch.
        n, c = 10_000, 100
        A = sp.random(n, n, density=8 / n, random_state=1, format="csr")
        A = A.maximum(A.T) + sp.diags(np.ones(n - 1), 1) + sp.diags(np.ones(n - 1), -1)
        A.setdiag(0.0)
        graph = normalize(AffinityGraph(n=n, matrix=sp.csr_matrix(A)))
        index = np.random.default_rng(0).choice(n, 4 * c, replace=False)
        seeds = SeedLabels(index=index, label=np.repeat(np.arange(c), 4), n_classes=c)
        result, peak = traced_peak(lambda: diffuse(graph, seeds))
        assert result.zero_rows == []
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestEstimateLabels:
    """Decoding F into labels and retrieval scores, one class block at a time."""

    def test_argmax_and_score(self):
        labels, scores = decode([[[0.2], [0.7]]])
        assert list(labels) == [1]
        assert scores.tolist() == [0.7]
        # The maximum of a later block wins, with that block's class.
        labels, scores = decode([np.eye(16)[:, :2] * 0.3, np.eye(16)[:, :2][::-1] * 0.4])
        assert list(labels) == [31, 30]
        assert scores.tolist() == [0.4, 0.4]

    def test_tie_goes_to_lower_class(self):
        labels, _ = decode([[[0.5], [0.5]]])
        assert list(labels) == [0]
        # Classes 15 and 16 tie across the block boundary: 15 keeps the row.
        first, second = np.zeros((16, 2)), np.zeros((1, 2))
        first[15], second[0] = 0.5, 0.5
        first[3, 1] = 0.6
        labels, scores = decode([first, second])
        assert list(labels) == [15, 3]
        assert scores.tolist() == [0.5, 0.6]

    def test_seed_overrides_argmax(self):
        # A star whose centre is the only class-1 seed and whose 16 leaves
        # are class-0 seeds: the centre's row maximum is class 0's.
        A = np.zeros((17, 17))
        A[0, 1:] = A[1:, 0] = 1.0
        graph = normalize(AffinityGraph(n=17, matrix=sp.csr_matrix(A)))
        seeds = seeds_of({0: 1, **{i: 0 for i in range(1, 17)}}, 2)
        F, _ = diffusion_scores(graph, label_matrix(seeds, 17), alpha=0.9)
        assert np.argmax(F[0]) == 0
        result = diffuse(graph, seeds, alpha=0.9)
        assert result.labels.tolist() == [1] + [0] * 16
        assert result.retrieval_score.tobytes() == F.max(axis=1).tobytes()

    def test_seeds_of_another_class_count(self, rng):
        with pytest.raises(DataError, match="5 classes do not fit in 2 samples"):
            diffuse(random_normalized_graph(rng, 2), seeds_of({0: 4}, 5))


class TestNNPropagate:
    def test_single_seed_labels_everything(self, rng):
        X = rng.standard_normal((8, 3))
        labels, _ = nn_propagate(X, seeds_of({0: 0}, 1))
        assert np.array_equal(labels, np.zeros(8, dtype=np.int64))

    def test_nearest_seed_wins(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
        labels, scores = nn_propagate(X, seeds_of({0: 0, 1: 1}, 2))
        assert list(labels) == [0, 1, 0]
        np.testing.assert_allclose(scores[:2], [1.0, 1.0])

    def test_seeds_keep_their_class(self):
        # Seed 1 sits exactly on seed 0's direction but keeps its own class.
        X = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        labels, _ = nn_propagate(X, seeds_of({0: 0, 1: 1, 2: 1}, 2))
        assert labels[1] == 1

    def test_tie_goes_to_lower_seed_index(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        labels, _ = nn_propagate(X, seeds_of({0: 1, 1: 0}, 2))
        assert labels[2] == 1

    def test_needs_a_seed(self, rng):
        with pytest.raises(DegenerateInputError):
            nn_propagate(rng.standard_normal((4, 2)), seeds_of({}, 2))


def write_records(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


class TestPropagatedIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        labels = np.array([1, 0, 2, 1], dtype=np.int64)
        scores = np.array([0.9, 0.5, 0.75, 0.25])
        seeds = seeds_of({0: 1}, 3)
        save_propagated(path, labels, scores, seeds)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [
            {"index": i, "label": int(labels[i]), "retrieval_score": scores[i]} for i in range(4)
        ] + [{"summary": True, "n_classes": 3}]
        loaded_labels, loaded_scores, n_classes = load_propagated(path)
        assert np.array_equal(loaded_labels, labels)
        np.testing.assert_array_equal(loaded_scores, scores)
        assert n_classes == 3

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        record = {"index": 0, "label": 1, "retrieval_score": 0.5}
        write_records(path, [record, record, {"summary": True, "n_classes": 2}])
        with pytest.raises(FormatError, match="record 1 holds sample index 0; records must "
                                              "be in index order"):
            load_propagated(path)

    def test_swapped_records_rejected(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        save_propagated(path, np.array([0, 1, 2]), np.array([0.5, 0.25, 0.75]),
                        seeds_of({0: 0}, 3))
        lines = path.read_text().splitlines(True)
        lines[0], lines[1] = lines[1], lines[0]
        path.write_text("".join(lines))
        with pytest.raises(FormatError, match="record 0 holds sample index 1"):
            load_propagated(path)

    def test_older_file_with_is_seed_loads(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        records = [{"index": i, "label": i, "retrieval_score": 0.5, "is_seed": i == 0}
                   for i in range(2)]
        write_records(path, records + [{"summary": True, "n_classes": 2}])
        labels, retrieval, n_classes = load_propagated(path)
        assert labels.tolist() == [0, 1] and retrieval.tolist() == [0.5, 0.5]
        assert n_classes == 2

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        write_records(path, [{"index": 0, "label": 1}, {"summary": True, "n_classes": 1}])
        with pytest.raises(FormatError, match="malformed propagation record"):
            load_propagated(path)

    @pytest.mark.parametrize("summary, message", [
        (None, "missing trailing summary record"),
        ({"summary": True}, "malformed summary record"),
        ({"summary": True, "n_classes": 0}, "n_classes=0 out of range for 2 samples"),
        ({"summary": True, "n_classes": 3}, "n_classes=3 out of range for 2 samples"),
        ({"summary": True, "n_classes": 1}, "label 1 out of range for 1 classes"),
    ])
    def test_summary_record_checked(self, tmp_path, summary, message):
        path = tmp_path / "prop.jsonl"
        records = [{"index": i, "label": i, "retrieval_score": 0.5} for i in range(2)]
        write_records(path, records + ([] if summary is None else [summary]))
        with pytest.raises(FormatError, match=message):
            load_propagated(path)

    def test_summary_only_file_rejected(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        write_records(path, [{"summary": True, "n_classes": 1}])
        with pytest.raises(FormatError, match=r"prop\.jsonl: no records$"):
            load_propagated(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        path.write_text("")
        with pytest.raises(FormatError):
            load_propagated(path)


class TestWholeChain:
    def test_easy_mixture_recovers_truth(self, rng):
        # Two tight clusters on orthogonal directions: cosine affinity is
        # near 1 within a cluster and near 0 across, so diffusion from one
        # seed per class recovers every label.
        n_per = 25
        X = np.concatenate([
            rng.standard_normal((n_per, 6)) * 0.5 + np.array([10, 0, 0, 0, 0, 0]),
            rng.standard_normal((n_per, 6)) * 0.5 + np.array([0, 10, 0, 0, 0, 0]),
        ])
        truth = np.concatenate([np.zeros(n_per, dtype=int), np.ones(n_per, dtype=int)])
        seeds = seeds_of({0: 0, n_per: 1}, 2)
        graph = normalize(build_affinity(X))
        result = diffuse(graph, seeds, alpha=0.9)
        assert np.array_equal(result.labels, truth)
