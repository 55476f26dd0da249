import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import relab.graph as graph_module
from relab.errors import ConfigError, DataError, DegenerateInputError, FormatError, IsolatedNodeError
from relab.features import l2_normalize, pca_whiten
from relab.graph import (
    _BLOCK_ROWS,
    _GROUP_COLS,
    _MIN_POSITIVE,
    AffinityGraph,
    auto_k,
    build_affinity,
    load_graph,
    normalize,
    save_graph,
)
from relab.synth import SynthConfig, generate

from conftest import traced_peak

HEADER = struct.Struct("<4sIQQ")


def dense(graph):
    return graph.matrix.toarray()


def csr_graph(matrix):
    matrix = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
    return AffinityGraph(n=matrix.shape[0], matrix=matrix)


def relg_bytes(n, indptr, indices, values, magic=b"RELG", version=1):
    nnz = len(values)
    body = (
        np.asarray(indptr, dtype="<u8").tobytes()
        + np.asarray(indices, dtype="<u8").tobytes()
        + np.asarray(values, dtype="<f8").tobytes()
    )
    return HEADER.pack(magic, version, n, nnz) + body


class TestBuildAffinity:
    def test_identical_directions(self):
        A = dense(build_affinity(np.array([[1.0, 0.0], [2.0, 0.0]]), gamma=3.0))
        np.testing.assert_array_equal(A, [[0.0, 1.0], [1.0, 0.0]])

    def test_orthogonal_directions(self):
        A = dense(build_affinity(np.array([[1.0, 0.0], [0.0, 1.0]]), gamma=3.0))
        np.testing.assert_array_equal(A, np.zeros((2, 2)))

    def test_cosine_cubed_at_45_degrees(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        A = dense(build_affinity(X, gamma=3.0))
        # cos(45 deg) = sqrt(2)/2 as the float32 similarity, cubed in float64
        expected = float(np.float32(np.sqrt(0.5))) ** 3
        np.testing.assert_allclose(A[0, 1], expected, rtol=1e-12)
        np.testing.assert_allclose(A[1, 0], expected, rtol=1e-12)

    def test_negative_cosine_clamped_to_zero(self):
        A = dense(build_affinity(np.array([[1.0, 0.0], [-1.0, 0.0]]), gamma=3.0))
        np.testing.assert_array_equal(A, np.zeros((2, 2)))

    def test_invariants_on_random_input(self, rng):
        X = rng.standard_normal((30, 5))
        A = dense(build_affinity(X))
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0)
        assert np.all(A >= 0)

    def test_scale_invariance_exact(self, rng):
        X = rng.standard_normal((15, 4))
        A1 = dense(build_affinity(X))
        A2 = dense(build_affinity(4.0 * X))
        assert np.array_equal(A1, A2)

    def test_permutation_equivariance(self, rng):
        X = rng.standard_normal((12, 3))
        perm = rng.permutation(12)
        A = dense(build_affinity(X))
        A_perm = dense(build_affinity(X[perm]))
        np.testing.assert_allclose(A_perm, A[np.ix_(perm, perm)], atol=1e-12)

    def test_topk_with_full_k_matches_dense(self, rng):
        # The larger shapes span several 256-row GEMM blocks.
        for shape in ((20, 4), (257, 512), (999, 33)):
            X = rng.standard_normal(shape)
            want = dense_reference(X, 3.0)
            for k in (None, shape[0] - 1):
                np.testing.assert_allclose(dense(build_affinity(X, k=k)), want,
                                           rtol=0, atol=1e-12)

    def test_topk_keeps_at_most_k_per_row_before_symmetrization(self, rng):
        X = rng.standard_normal((25, 3))
        graph = build_affinity(X, k=4)
        A = dense(graph)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0)
        # max-symmetrization can raise a row's count above k, never double it
        assert (A > 0).sum(axis=1).max() <= 2 * 4 + 1

    def test_k_out_of_range(self, rng):
        X = rng.standard_normal((5, 3))
        with pytest.raises(ConfigError):
            build_affinity(X, k=5)
        with pytest.raises(ConfigError):
            build_affinity(X, k=0)

    def test_gamma_must_be_positive(self, rng):
        with pytest.raises(ConfigError):
            build_affinity(rng.standard_normal((4, 2)), gamma=0.0)

    def test_zero_norm_row_rejected(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            build_affinity(X)

    @pytest.mark.parametrize("k", [None, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, rng, k, bad):
        X = rng.standard_normal((5, 3))
        X[3, 1] = bad
        with pytest.raises(DataError, match="row 3 "):
            build_affinity(X, k=k)

    def test_auto_k_thresholds(self):
        assert auto_k(2000) is None
        assert auto_k(2001) == 50

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           scale=st.sampled_from([0.25, 0.5, 2.0, 8.0]))
    def test_scale_invariance_property(self, seed, scale):
        X = np.random.default_rng(seed).standard_normal((10, 3))
        assert np.array_equal(dense(build_affinity(X)),
                              dense(build_affinity(scale * X)))


def similarity_blocks(X):
    """The similarities the builder selects from, as (rows, sims) per block:
    the float32 L2-normalized rows of X, one GEMM per _BLOCK_ROWS rows (the
    last bits depend on the block shape), with a zero diagonal."""
    V = l2_normalize(X).astype(np.float32)
    for start in range(0, len(V), _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, len(V)))
        sims = V[start:start + _BLOCK_ROWS] @ V.T
        sims[rows - start, rows] = 0.0
        yield rows, sims


def dense_reference(X, gamma):
    """The dense formula build_affinity(X) implements: clip(V V^T, 0)^gamma
    with a zero diagonal, V the L2-normalized rows of X, max-symmetrized.
    The similarities are float32, so (i, j) and (j, i) may differ in the
    last bit; the power is taken in float64."""
    sims = np.vstack([sims for _, sims in similarity_blocks(X)]).astype(np.float64)
    np.clip(sims, 0.0, None, out=sims)
    return np.power(np.maximum(sims, sims.T), gamma)


def oracle_topk(X, gamma, k):
    """The per-row top-k builder the blocked one replaced: a stable argsort of
    every negated row, so ties at the k-th value keep the lowest columns."""
    n = len(X)
    rows, cols, vals = [], [], []
    for block_rows, sims in similarity_blocks(X):
        np.clip(sims, 0.0, None, out=sims)
        for i, row in zip(block_rows, sims):
            top = np.argsort(-row, kind="stable")[:k]
            keep = top[row[top] > 0.0]
            rows.append(np.full(keep.size, i, dtype=np.int64))
            cols.append(keep.astype(np.int64))
            vals.append(np.power(row[keep].astype(np.float64), gamma))
    directed = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    matrix = directed.maximum(directed.T).tocsr()
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return matrix


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def tied_rows(X, k):
    """Rows whose k-th and (k+1)-th strongest affinities are equal and positive."""
    tied = 0
    for _, sims in similarity_blocks(X):
        ranked = -np.sort(-np.clip(sims, 0.0, None), axis=1)
        tied += int(np.sum((ranked[:, k - 1] == ranked[:, k]) & (ranked[:, k - 1] > 0.0)))
    return tied


def integer_directions(n, seed):
    """3-D integer points: many rows share a direction exactly, so ties abound."""
    X = np.round(2.0 * np.random.default_rng(seed).standard_normal((n, 3)))
    X[~X.any(axis=1)] = 1.0
    return X


TOPK_INPUTS = {
    "duplicated_rows": lambda: np.repeat(
        np.random.default_rng(1).standard_normal((200, 8)), 3, axis=0),
    "integer_3d": lambda: integer_directions(2000, seed=2),
    # Ten orthogonal directions: each row has about 30 positive neighbours,
    # fewer than k=50, and zero affinity to every other row.
    "one_hot": lambda: np.eye(10)[np.random.default_rng(3).integers(0, 10, 300)],
    "one_block": lambda: np.random.default_rng(4).standard_normal((37, 5)),
    "blocks_and_remainder": lambda: np.random.default_rng(5).standard_normal((3001, 16)),
}


def copies_within_groups():
    """_GROUP_COLS copies of each of g rows, g apart: all the copies of a row
    share one group, then three other rows past the last group."""
    rng = np.random.default_rng(9)
    return np.vstack([np.tile(rng.standard_normal((563, 8)), (_GROUP_COLS, 1)),
                      rng.standard_normal((3, 8))])


# Inputs with more than k = 50 groups per row, so every k in (1, 5, 50)
# takes the group bound, and with columns past the last group.
GROUP_INPUTS = {
    "gaussian": lambda: np.random.default_rng(6).standard_normal((4500, 16)),
    # Four copies of each row, 1125 rows apart: the copies of a row lie in
    # four groups, the last four columns are copies, and every row ties at
    # k = 1, 5 and 50.
    "copies_across_groups": lambda: np.tile(np.random.default_rng(7).standard_normal((1125, 8)),
                                            (4, 1)),
    "copies_within_groups": copies_within_groups,
    # 100 orthogonal directions: about 44 positive affinities per row, so at
    # k = 50 most rows have no positive group bound.
    "one_hot_100": lambda: np.eye(100)[np.random.default_rng(8).integers(0, 100, 4500)],
}


def group_maxima(X):
    """Each row's group maxima: column j + i * g, i < _GROUP_COLS, is in
    group j of g = n // _GROUP_COLS."""
    groups = len(X) // _GROUP_COLS
    maxima = []
    for rows, sims in similarity_blocks(X):
        maxima.append(sims[:, :groups * _GROUP_COLS]
                      .reshape(len(rows), _GROUP_COLS, groups).max(axis=1))
    return np.concatenate(maxima)


def top_groups(X):
    """How many groups of each row reach its largest affinity."""
    maxima = group_maxima(X)
    return (maxima == maxima.max(axis=1, keepdims=True)).sum(axis=1)


def kth_largest(values, k):
    return -np.partition(-values, k - 1, axis=1)[:, k - 1]


def survivor_counts(X, bounds):
    """How many affinities of each row are at or above its bound."""
    counts = []
    for rows, sims in similarity_blocks(X):
        counts.append((sims >= bounds[rows, None]).sum(axis=1))
    return np.concatenate(counts)


def tail_columns(X, k):
    """How many rows keep a column past the last group, and how many cut one
    that ties at their k-th value."""
    n = len(X)
    tail = np.arange(n // _GROUP_COLS * _GROUP_COLS, n)
    kept = cut = 0
    for _, sims in similarity_blocks(X):
        np.clip(sims, 0.0, None, out=sims)
        order = np.argsort(-sims, axis=1, kind="stable")
        ranked = np.take_along_axis(sims, order, axis=1)
        in_tail = np.isin(order, tail)
        kept += int(in_tail[:, :k].any(axis=1).sum())
        cut += int((in_tail[:, k:] & (ranked[:, k:] == ranked[:, k - 1:k])).any(axis=1).sum())
    return kept, cut


class TestTopkMatchesOracle:
    @pytest.mark.parametrize("name", sorted(TOPK_INPUTS))
    def test_bitwise_equal_to_per_row_argsort(self, name):
        X = TOPK_INPUTS[name]()
        n = X.shape[0]
        for k in sorted({1, 5, 50, n - 1} & set(range(1, n))):
            got = build_affinity(X, gamma=3.0, k=k).matrix
            assert_same_csr(got, oracle_topk(X, 3.0, k))

    @pytest.mark.parametrize("name", ["one_hot", "blocks_and_remainder"])
    def test_dense_equals_full_k(self, name):
        X = TOPK_INPUTS[name]()
        assert_same_csr(build_affinity(X, gamma=3.0).matrix,
                        oracle_topk(X, 3.0, X.shape[0] - 1))

    def test_inputs_reach_the_tie_and_zero_paths(self):
        assert tied_rows(TOPK_INPUTS["integer_3d"](), 50) > 1000
        assert tied_rows(TOPK_INPUTS["duplicated_rows"](), 1) == 600
        X = TOPK_INPUTS["one_hot"]()
        assert (X @ X.T - np.eye(len(X))).sum(axis=1).max() < 50

    @pytest.mark.parametrize("name", sorted(GROUP_INPUTS))
    def test_bitwise_equal_under_the_group_bound(self, name):
        X = GROUP_INPUTS[name]()
        for k in (1, 5, 50):
            assert_same_csr(build_affinity(X, gamma=3.0, k=k).matrix, oracle_topk(X, 3.0, k))

    def test_group_inputs_reach_tails_ties_and_floored_bounds(self):
        for name in sorted(GROUP_INPUTS):
            assert 50 < len(GROUP_INPUTS[name]()) // _GROUP_COLS, name
        for name in ("gaussian", "copies_across_groups", "copies_within_groups"):
            X = GROUP_INPUTS[name]()
            assert len(X) % _GROUP_COLS, name
            assert kth_largest(group_maxima(X), 50).min() > 0.0, name
        # Copies of a row in four groups: at k = 1 the bound is the row's
        # largest affinity, and the groups of its other three copies reach
        # it (two, where the third copy is in the tail).
        X = GROUP_INPUTS["copies_across_groups"]()
        for k in (1, 5, 50):
            assert tied_rows(X, k) == len(X), k
        assert set(top_groups(X)) == {2, 3}
        # Rows keep a tail column at k = 5 and cut a tied one at k = 1.
        kept, _ = tail_columns(X, 5)
        _, cut = tail_columns(X, 1)
        assert kept > 0 and cut > 0
        assert tail_columns(GROUP_INPUTS["gaussian"](), 50)[0] > 0
        # Copies of a row in one group: one group maximum stands for all its
        # tied copies, which the bound reads together.
        X = GROUP_INPUTS["copies_within_groups"]()
        assert tied_rows(X, 1) == len(X)
        assert (top_groups(X) == 1).all()
        X = GROUP_INPUTS["one_hot_100"]()
        assert kth_largest(group_maxima(X), 5).min() > 0.0
        # At k = 50 most blocks mix rows with a positive bound and rows
        # whose zero bound is floored to the least positive float32, and
        # some mix rows with fewer than k survivors and rows with more, so
        # the stable sort sees padding it must drop.
        bounds = kth_largest(group_maxima(X), 50)
        survivors = survivor_counts(X, np.maximum(bounds, _MIN_POSITIVE))
        starts = range(0, len(X), _BLOCK_ROWS)
        positive = [bounds[lo:lo + _BLOCK_ROWS] > 0.0 for lo in starts]
        assert sum(p.any() and not p.all() for p in positive) > len(positive) // 2
        assert any((s < 50).any() and (s > 50).any()
                   for s in (survivors[lo:lo + _BLOCK_ROWS] for lo in starts))

    def test_floored_bounds_keep_no_zero(self):
        # The bounds are float32, where a float64 least positive value
        # rounds to 0 and would let one_hot_100's zero affinities survive.
        assert _MIN_POSITIVE.dtype == np.float32 and _MIN_POSITIVE > 0
        _, _, vals = graph_module._directed_rows(GROUP_INPUTS["one_hot_100"](), 50)
        assert np.concatenate(vals).min() > 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=300),
           k_fraction=st.floats(min_value=0.0, max_value=1.0),
           gamma=st.sampled_from([1.0, 3.0]),
           tied=st.booleans())
    def test_bitwise_property(self, seed, n, k_fraction, gamma, tied):
        rng = np.random.default_rng(seed)
        X = integer_directions(n, seed) if tied else rng.standard_normal((n, 4))
        k = 1 + int(k_fraction * (n - 2))
        assert_same_csr(build_affinity(X, gamma=gamma, k=k).matrix,
                        oracle_topk(X, gamma, k))


@st.composite
def canonical_csr(draw):
    """A canonical CSR with positive values: a symmetric pattern (values
    unequal across the diagonal) or an asymmetric one, with empty rows and
    nnz = 0 among the draws, and tied values."""
    n = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pattern = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    if draw(st.booleans()):
        pattern |= pattern.T
    values = rng.integers(1, 5, (n, n)) / 4.0 if draw(st.booleans()) else rng.random((n, n)) + 0.5
    return sp.csr_matrix(np.where(pattern, values, 0.0))


class TestSymmetrize:
    def test_symmetric_pattern_takes_the_max_in_place(self):
        A = sp.csr_matrix(np.array([[0.0, 0.5, 0.25], [0.75, 0.0, 0.0], [0.125, 0.0, 0.0]]))
        want = A.maximum(A.T)
        data = A.data
        got = graph_module._symmetrize(A)
        assert got is A and got.data is data
        assert_same_csr(got, want)

    def test_asymmetric_pattern_takes_the_union(self):
        A = sp.csr_matrix(np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.25, 0.75, 0.0]]))
        data = A.data.copy()
        got = graph_module._symmetrize(A)
        assert got is not A and np.array_equal(A.data, data)
        assert_same_csr(got, A.maximum(A.T))
        # scipy allocates nnz(A) + nnz(A^T) entries; no larger buffer is kept.
        assert got.data.base is None and got.indices.base is None

    @settings(max_examples=200, deadline=None)
    @given(A=canonical_csr())
    def test_matches_scipy_maximum(self, A):
        want = A.maximum(A.T)
        assert_same_csr(graph_module._symmetrize(A.copy()), want)


class TestNormalize:
    @pytest.mark.parametrize("name", sorted(TOPK_INPUTS))
    def test_equals_two_diagonal_products(self, name):
        for k in (5, None):
            graph = build_affinity(TOPK_INPUTS[name](), k=k)
            A = graph.matrix
            scaler = sp.diags(1.0 / np.sqrt(np.asarray(A.sum(axis=1)).ravel()))
            assert_same_csr(normalize(graph).s, (scaler @ A @ scaler).tocsr())

    @pytest.mark.parametrize("k", [5, None])
    def test_shares_the_index_arrays_and_leaves_a(self, rng, k):
        A = build_affinity(rng.standard_normal((60, 4)), k=k).matrix
        before = [a.copy() for a in (A.indptr, A.indices, A.data)]
        S = normalize(AffinityGraph(n=60, matrix=A)).s
        assert np.shares_memory(S.indices, A.indices)
        assert np.shares_memory(S.indptr, A.indptr)
        assert not np.shares_memory(S.data, A.data)
        for got, want in zip((A.indptr, A.indices, A.data), before):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_chunked_gather_matches_one_gather(self, monkeypatch, rng):
        graph = build_affinity(rng.standard_normal((40, 3)))
        whole = normalize(graph).s
        monkeypatch.setattr(graph_module, "_GATHER_CHUNK", 7)
        chunked = normalize(graph).s
        assert graph.matrix.nnz % 7
        assert_same_csr(chunked, whole)

    def test_unit_degrees(self):
        g = normalize(csr_graph([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(g.degrees, [1.0, 1.0])
        np.testing.assert_array_equal(g.s.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_degree_two_rescales_to_one(self):
        g = normalize(csr_graph([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(g.degrees, [2.0, 2.0])
        np.testing.assert_allclose(g.s.toarray(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_three_node_path(self):
        A = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        g = normalize(csr_graph(A))
        np.testing.assert_array_equal(g.degrees, [1.0, 2.0, 1.0])
        S = g.s.toarray()
        # S_01 = 1/sqrt(1*2)
        np.testing.assert_allclose(S[0, 1], 2.0 ** -0.5, rtol=1e-12)
        np.testing.assert_allclose(S[1, 2], 2.0 ** -0.5, rtol=1e-12)
        assert S[0, 2] == 0.0

    def test_symmetry(self, rng):
        X = rng.standard_normal((20, 4))
        g = normalize(build_affinity(X))
        diff = np.abs(g.s.toarray() - g.s.toarray().T).max()
        assert diff < 1e-12

    def test_isolated_node_reported(self):
        A = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(IsolatedNodeError) as excinfo:
            normalize(csr_graph(A))
        assert excinfo.value.node_indices == [2]

    def test_spectral_radius_at_most_one(self, rng):
        for n in (10, 60, 200):
            X = rng.standard_normal((n, 6))
            g = normalize(build_affinity(X))
            eigvals = np.linalg.eigvalsh(g.s.toarray())
            assert eigvals.max() <= 1.0 + 1e-6
            assert eigvals.min() >= -1.0 - 1e-6


class TestGraphIO:
    def test_round_trip(self, tmp_path, rng):
        X = rng.standard_normal((15, 4))
        graph = build_affinity(X)
        path = tmp_path / "g.relg"
        save_graph(path, graph)
        loaded = load_graph(path)
        assert loaded.n == graph.n
        np.testing.assert_array_equal(loaded.matrix.toarray(), graph.matrix.toarray())

    def test_save_then_save_is_stable(self, tmp_path, rng):
        X = rng.standard_normal((10, 3))
        graph = build_affinity(X)
        first = tmp_path / "a.relg"
        second = tmp_path / "b.relg"
        save_graph(first, graph)
        save_graph(second, load_graph(first))
        assert first.read_bytes() == second.read_bytes()

    def test_save_leaves_the_matrix_as_it_is(self, tmp_path):
        # A 3-node graph with two explicit zeros, row 1's columns unsorted.
        matrix = sp.csr_matrix((np.array([0.5, 0.0, 0.5, 0.0]), np.array([1, 2, 0, 1]),
                                np.array([0, 1, 3, 4])), shape=(3, 3))
        before = [a.copy() for a in (matrix.indptr, matrix.indices, matrix.data)]
        path = tmp_path / "g.relg"
        save_graph(path, AffinityGraph(n=3, matrix=matrix))
        assert matrix.nnz == 4
        for got, want in zip((matrix.indptr, matrix.indices, matrix.data), before):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        loaded = load_graph(path).matrix
        assert loaded.nnz == 2 and loaded.has_sorted_indices
        np.testing.assert_array_equal(loaded.toarray(), matrix.toarray())

    def test_chunked_index_writes_match_one_write(self, tmp_path, monkeypatch, rng):
        graph = build_affinity(rng.standard_normal((40, 3)))
        whole = tmp_path / "whole.relg"
        save_graph(whole, graph)
        monkeypatch.setattr(graph_module, "_WRITE_CHUNK", 7)
        chunked = tmp_path / "chunked.relg"
        save_graph(chunked, graph)
        assert graph.matrix.nnz % 7 and chunked.read_bytes() == whole.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.relg"
        path.write_bytes(relg_bytes(2, [0, 1, 2], [1, 0], [1.0, 1.0], magic=b"XXXX"))
        with pytest.raises(FormatError):
            load_graph(path)

    def test_body_length_mismatch(self, tmp_path):
        path = tmp_path / "g.relg"
        raw = relg_bytes(2, [0, 1, 2], [1, 0], [1.0, 1.0])
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            load_graph(path)

    def test_column_index_out_of_range(self, tmp_path):
        path = tmp_path / "g.relg"
        path.write_bytes(relg_bytes(2, [0, 1, 2], [5, 0], [1.0, 1.0]))
        with pytest.raises(FormatError):
            load_graph(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "g.relg"
        path.write_bytes(relg_bytes(2, [0, 1, 2], [1, 0], [-1.0, -1.0]))
        with pytest.raises(DataError):
            load_graph(path)

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "g.relg"
        path.write_bytes(relg_bytes(2, [0, 1, 1], [1], [1.0]))
        with pytest.raises(DataError):
            load_graph(path)

    def test_empty_graph_header(self, tmp_path):
        path = tmp_path / "g.relg"
        path.write_bytes(relg_bytes(0, [0], [], []))
        with pytest.raises(FormatError, match=r"g\.relg: header declares empty graph$") as info:
            load_graph(path)
        assert info.value.exit_code == 3

    def test_nan_value_rejected(self, tmp_path, rng):
        path = tmp_path / "g.relg"
        save_graph(path, build_affinity(rng.standard_normal((6, 3))))
        raw = bytearray(path.read_bytes())
        nnz = HEADER.unpack_from(raw)[3]
        assert nnz > 0
        struct.pack_into("<d", raw, len(raw) - 8 * nnz, float("nan"))  # the first value
        path.write_bytes(raw)
        with pytest.raises(DataError, match=r"g\.relg: non-finite affinity value$") as info:
            load_graph(path)
        assert info.value.exit_code == 3

    def test_nonzero_diagonal_rejected(self, tmp_path):
        path = tmp_path / "g.relg"
        path.write_bytes(relg_bytes(2, [0, 1, 2], [0, 1], [1.0, 1.0]))
        with pytest.raises(DataError):
            load_graph(path)


def dense_2k_features():
    """The dense-2k workload's shape, whitened: N = 2000, D = 128; its dense
    graph has about 2.0M nnz and a 31.8 MB RELG file."""
    X, _ = generate(SynthConfig(n_classes=10, per_class=200, dims=128,
                                separation=6.0, rng_seed=0))
    return pca_whiten(X)[0]


class TestBuildMemory:
    def test_dense_build_traced_peak(self):
        # With the GEMM buffer and int64 block lists alive during
        # symmetrization the traced peak is 127 MiB; with nothing N-wide
        # alive there it is about 91 MiB, with the float32 GEMM buffer as
        # with the float64 one, since the peak falls in symmetrization.
        W = dense_2k_features()
        graph, peak = traced_peak(lambda: build_affinity(W, k=None))
        assert graph.matrix.nnz > 1_900_000
        assert peak < 110 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_dense_build_symmetrizes_in_place(self):
        # scipy's A.maximum(A.T) holds A, its transpose and a result sized
        # nnz(A) + nnz(A^T): 91 MiB. Taking the max in place into A's values
        # holds A and its transpose: about 47 MiB.
        W = dense_2k_features()
        graph, peak = traced_peak(lambda: build_affinity(W, k=None))
        assert graph.matrix.nnz > 1_900_000
        assert peak < 60 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestNormalizeMemory:
    def test_dense_normalize_traced_peak(self):
        # Copying A's index arrays and gathering dinv over all of A's
        # columns at once traces 30.4 MiB beyond A's 22.7; sharing the index
        # arrays and gathering in _GATHER_CHUNK pieces traces about 16 MiB,
        # one float64 array of values.
        graph = build_affinity(dense_2k_features(), k=None)
        normalized, peak = traced_peak(lambda: normalize(graph))
        assert normalized.s.nnz == graph.matrix.nnz > 1_900_000
        assert peak < 20 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestLoadMemory:
    def test_dense_load_traced_peak(self, tmp_path):
        # Holding the file's bytes, an astype copy of each array and the
        # boolean A != A.T traces 140 MiB for a 22.7 MiB CSR; reading each
        # array into its own buffer and comparing with the canonical
        # transpose's arrays traces about 47 MiB.
        path = tmp_path / "g.relg"
        save_graph(path, build_affinity(dense_2k_features(), k=None))
        graph, peak = traced_peak(lambda: load_graph(path))
        assert graph.matrix.nnz > 1_900_000
        assert peak < 60 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
