import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from relab.errors import ConfigError, DataError, DegenerateInputError, FormatError, IsolatedNodeError
from relab.features import l2_normalize
from relab.graph import (
    _GROUP_COLS,
    _SELECT_ROWS,
    AffinityGraph,
    auto_k,
    build_affinity,
    load_graph,
    normalize,
    save_graph,
)

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
        # cos(45 deg)^3 = (sqrt(2)/2)^3 = 2^(-3/2)
        expected = 2.0 ** -1.5
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
        # The larger shapes span several 256-row GEMM blocks, whose last
        # bits differ from those of the full-matrix product.
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


def dense_reference(X, gamma):
    """The dense formula build_affinity(X) implements: clip(V V^T, 0)^gamma
    with a zero diagonal, V the L2-normalized rows of X."""
    V = l2_normalize(X)
    sims = np.clip(V @ V.T, 0.0, None)
    np.fill_diagonal(sims, 0.0)
    return np.power(sims, gamma)


def oracle_topk(X, gamma, k, block_rows=256):
    """The per-row top-k builder the blocked one replaced: a stable argsort of
    every negated row, so ties at the k-th value keep the lowest columns."""
    V = l2_normalize(X)
    n = V.shape[0]
    rows, cols, vals = [], [], []
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        sims = V[start:stop] @ V.T
        np.clip(sims, 0.0, None, out=sims)
        sims[np.arange(start, stop) - start, np.arange(start, stop)] = 0.0
        for i in range(stop - start):
            row = sims[i]
            top = np.argsort(-row, kind="stable")[:k]
            keep = top[row[top] > 0.0]
            rows.append(np.full(keep.size, start + i, dtype=np.int64))
            cols.append(keep.astype(np.int64))
            vals.append(np.power(row[keep], gamma))
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


def tied_rows(X, k, chunk=500):
    """Rows whose k-th and (k+1)-th strongest affinities are equal and positive."""
    V = l2_normalize(X)
    tied = 0
    for start in range(0, len(V), chunk):
        sims = np.clip(V[start:start + chunk] @ V.T, 0.0, None)
        rows = np.arange(start, min(start + chunk, len(V)))
        sims[rows - start, rows] = 0.0
        ranked = -np.sort(-sims, axis=1)
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


def group_maxima(X, chunk=500):
    """Each row's group maxima: column j + i * g, i < _GROUP_COLS, is in
    group j of g = n // _GROUP_COLS."""
    V = l2_normalize(X)
    n = len(V)
    groups = n // _GROUP_COLS
    maxima = []
    for start in range(0, n, chunk):
        sims = V[start:start + chunk] @ V.T
        rows = np.arange(start, min(start + chunk, n))
        sims[rows - start, rows] = 0.0
        maxima.append(sims[:, :groups * _GROUP_COLS]
                      .reshape(len(rows), _GROUP_COLS, groups).max(axis=1))
    return np.concatenate(maxima)


def top_groups(X):
    """How many groups of each row reach its largest affinity."""
    maxima = group_maxima(X)
    return (maxima == maxima.max(axis=1, keepdims=True)).sum(axis=1)


def kth_largest(values, k):
    return -np.partition(-values, k - 1, axis=1)[:, k - 1]


def tail_columns(X, k, chunk=500):
    """How many rows keep a column past the last group, and how many cut one
    that ties at their k-th value."""
    V = l2_normalize(X)
    n = len(V)
    tail = np.arange(n // _GROUP_COLS * _GROUP_COLS, n)
    kept = cut = 0
    for start in range(0, n, chunk):
        sims = np.clip(V[start:start + chunk] @ V.T, 0.0, None)
        rows = np.arange(start, min(start + chunk, n))
        sims[rows - start, rows] = 0.0
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
        # At k = 50 most selection slices mix rows with a positive bound and
        # rows whose zero bound is floored to the least positive float.
        # _BLOCK_ROWS is a multiple of _SELECT_ROWS, so slices start at
        # multiples of _SELECT_ROWS.
        positive = kth_largest(group_maxima(X), 50) > 0.0
        slices = [positive[lo:lo + _SELECT_ROWS] for lo in range(0, len(X), _SELECT_ROWS)]
        assert sum(s.any() and not s.all() for s in slices) > len(slices) // 2

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


class TestNormalize:
    @pytest.mark.parametrize("name", sorted(TOPK_INPUTS))
    def test_equals_two_diagonal_products(self, name):
        for k in (5, None):
            graph = build_affinity(TOPK_INPUTS[name](), k=k)
            A = graph.matrix
            scaler = sp.diags(1.0 / np.sqrt(np.asarray(A.sum(axis=1)).ravel()))
            assert_same_csr(normalize(graph).s, (scaler @ A @ scaler).tocsr())

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

    def test_nonzero_diagonal_rejected(self, tmp_path):
        path = tmp_path / "g.relg"
        path.write_bytes(relg_bytes(2, [0, 1, 2], [0, 1], [1.0, 1.0]))
        with pytest.raises(DataError):
            load_graph(path)
