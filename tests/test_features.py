import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relab.features as features_module
from relab.errors import DataError, DegenerateInputError, FormatError
from relab.features import (
    RELF_MAGIC,
    l2_normalize,
    load_features,
    pca_whiten,
    save_features,
    unit_rows,
)
from relab.synth import SynthConfig, generate

from conftest import same_bits, traced_peak

HEADER = struct.Struct("<4sIQQ")


def relf_bytes(n, d, values, magic=RELF_MAGIC, version=1):
    payload = np.asarray(values, dtype="<f4").tobytes()
    return HEADER.pack(magic, version, n, d) + payload


class TestFeatureIO:
    def test_load_identity_rows(self, tmp_path):
        path = tmp_path / "f.relf"
        path.write_bytes(relf_bytes(2, 3, [1, 0, 0, 0, 1, 0]))
        X = load_features(path)
        assert X.shape == (2, 3)
        assert np.array_equal(X, [[1, 0, 0], [0, 1, 0]])
        assert X.dtype == np.float32

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "f.relf"
        path.write_bytes(relf_bytes(2, 3, [1, 0, 0, 0, 1]))
        with pytest.raises(FormatError):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.relf"
        path.write_bytes(relf_bytes(1, 1, [1.0], magic=b"NOPE"))
        with pytest.raises(FormatError):
            load_features(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "f.relf"
        path.write_bytes(relf_bytes(1, 1, [1.0], version=2))
        with pytest.raises(FormatError):
            load_features(path)

    def test_empty_matrix_header(self, tmp_path):
        path = tmp_path / "f.relf"
        path.write_bytes(relf_bytes(0, 3, []))
        with pytest.raises(FormatError):
            load_features(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.relf"
        path.write_bytes(b"RELF\x01")
        with pytest.raises(FormatError):
            load_features(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_features(tmp_path / "absent.relf")

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "f.relf"
        path.write_bytes(relf_bytes(1, 2, [1.0, np.nan]))
        with pytest.raises(DataError):
            load_features(path)

    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        first = tmp_path / "a.relf"
        second = tmp_path / "b.relf"
        X = rng.standard_normal((7, 4))
        save_features(first, X)
        save_features(second, load_features(first))
        assert first.read_bytes() == second.read_bytes()

    def test_save_rejects_non_finite(self, tmp_path):
        with pytest.raises(DataError):
            save_features(tmp_path / "f.relf", np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,)], ids=["no-rows", "no-columns", "1-D"])
    def test_save_rejects_empty_or_1d(self, tmp_path, shape):
        path = tmp_path / "f.relf"
        with pytest.raises(DataError) as info:
            save_features(path, np.ones(shape))
        assert str(info.value) == f"feature matrix must be 2-D and non-empty, got shape {shape}"
        assert not path.exists()

    def test_save_rejects_float32_overflow(self, tmp_path):
        path = tmp_path / "f.relf"
        with pytest.raises(DataError):
            save_features(path, [[1e39, 0.0], [1.0, 2.0]])
        assert not path.exists()


class TestWhitening:
    def test_collinear_three_points(self):
        # Covariance diag(1, 0): one component kept, unit variance output.
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        W, stats = pca_whiten(X)
        assert stats.kept == 1
        assert W.shape == (3, 1)
        np.testing.assert_allclose(W[:, 0], [1.0, -1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(W.var(ddof=1), 1.0, atol=1e-12)

    def test_output_is_zero_mean_identity_covariance(self, rng):
        X = rng.standard_normal((40, 6)) * rng.uniform(0.5, 5.0, size=6)
        W, _ = pca_whiten(X)
        np.testing.assert_allclose(W.mean(axis=0), 0.0, atol=1e-8)
        cov = (W.T @ W) / (W.shape[0] - 1)
        np.testing.assert_allclose(cov, np.eye(W.shape[1]), atol=1e-6)

    def test_basis_columns_orthonormal(self, rng):
        X = rng.standard_normal((30, 5))
        _, stats = pca_whiten(X)
        gram = stats.basis.T @ stats.basis
        np.testing.assert_allclose(gram, np.eye(stats.kept), atol=1e-8)
        assert np.all(stats.scale > 0)

    def test_rank_bound_three_samples(self, rng):
        X = rng.standard_normal((3, 10))
        W, stats = pca_whiten(X)
        assert stats.kept <= 2
        assert W.shape == (3, stats.kept)

    def test_dual_path_matches_covariance_eigenvalues(self, rng):
        # D > N: the kept eigenvalues must agree with numpy's own
        # eigendecomposition of the full D x D covariance.
        X = rng.standard_normal((5, 20))
        W, stats = pca_whiten(X)
        cov = np.cov(X, rowvar=False)
        direct = np.sort(np.linalg.eigvalsh(cov))[::-1][: stats.kept]
        np.testing.assert_allclose(1.0 / stats.scale**2, direct, rtol=1e-9)
        out_cov = (W.T @ W) / (W.shape[0] - 1)
        np.testing.assert_allclose(out_cov, np.eye(stats.kept), atol=1e-6)
        np.testing.assert_allclose(W.mean(axis=0), 0.0, atol=1e-8)

    def test_translation_invariance(self, rng):
        X = rng.standard_normal((60, 8))
        shift = rng.uniform(-100.0, 100.0, size=8)
        W1, _ = pca_whiten(X)
        W2, _ = pca_whiten(X + shift)
        sign = np.sign(np.sum(W1 * W2, axis=0))
        np.testing.assert_allclose(W1, W2 * sign, atol=1e-6)

    def test_identical_rows_rejected(self):
        with pytest.raises(DegenerateInputError):
            pca_whiten(np.ones((4, 3)))

    @pytest.mark.parametrize("values", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)],
                             ids=["nan", "inf", "-inf", "inf-and-minus-inf"])
    def test_non_finite_entry_names_first_row(self, rng, monkeypatch, values):
        # Three-row chunks put the first bad row, 7, in the third chunk.
        monkeypatch.setattr(features_module, "_CHUNK_ROWS", 3)
        X = rng.standard_normal((12, 4))
        for row, value in zip((7, 10), values):
            X[row, 2] = value
        with pytest.raises(DataError, match=r"^row 7 has a non-finite entry; cannot whiten$"):
            pca_whiten(X)

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateInputError):
            pca_whiten(np.array([[1.0, 2.0]]))

    def test_tiny_eps_keeps_no_null_direction(self):
        # 30 samples in 40 dims centre to rank 29. As a RELF file stores them,
        # the null direction's eigenvalue is 4.7e-19 of the largest: above
        # eps=1e-300, below the float64 floor max(N, D) * 2.2e-16.
        X, _ = generate(SynthConfig(n_classes=3, per_class=10, dims=40))
        X = X.astype(np.float32).astype(np.float64)
        W, stats = pca_whiten(X, eps=1e-300)
        assert stats.kept == pca_whiten(X)[1].kept == 29
        assert np.abs(W).max() < 3.0

    @pytest.mark.parametrize("d", [11, 12, 30], ids=["D=N-1", "D=N", "D>N"])
    def test_few_samples_whiten_to_a_regular_simplex(self, rng, d):
        # N <= D + 1 centred rows span N - 1 directions; whitened, every
        # pair of rows has cosine -1/(N - 1), so no graph edge survives.
        n = 12
        W, stats = pca_whiten(rng.standard_normal((n, d)))
        assert stats.kept == W.shape[1] == n - 1
        assert stats.basis.flags.f_contiguous or stats.basis.flags.c_contiguous
        U = W / np.linalg.norm(W, axis=1, keepdims=True)
        cos = (U @ U.T)[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(cos, -1.0 / (n - 1), rtol=0, atol=1e-12)

    def test_apply_reproduces_training_output(self, rng):
        X = rng.standard_normal((25, 4))
        W, stats = pca_whiten(X)
        np.testing.assert_allclose(stats.apply(X), W, atol=1e-10)

    # D < N, D > N (the id "gram" names the dual path that shape once took),
    # and float32 input as load paths give.
    @pytest.mark.parametrize("shape, dtype", [((25, 4), np.float64), ((6, 10), np.float64),
                                              ((300, 16), np.float32)],
                             ids=["covariance", "gram", "float32"])
    def test_output_is_apply_bit_for_bit(self, rng, shape, dtype):
        X = rng.standard_normal(shape).astype(dtype)
        W, stats = pca_whiten(X)
        assert W.dtype == np.float64
        assert W.tobytes() == stats.apply(X).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=60),
        d=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_whitening_covariance_property(self, n, d, seed):
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((max(n, d + 1), d))
        W, _ = pca_whiten(X)
        cov = (W.T @ W) / (W.shape[0] - 1)
        assert np.max(np.abs(cov - np.eye(W.shape[1]))) < 1e-6


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            l2_normalize(np.array([[3.0, 4.0]])), [[0.6, 0.8]], atol=1e-12
        )

    def test_axis_vector(self):
        np.testing.assert_allclose(
            l2_normalize(np.array([[0.0, 0.0, 5.0]])), [[0.0, 0.0, 1.0]], atol=1e-12
        )

    def test_idempotent(self, rng):
        X = rng.standard_normal((10, 4))
        once = l2_normalize(X)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-9)

    def test_scale_invariant(self, rng):
        X = rng.standard_normal((10, 4))
        np.testing.assert_allclose(l2_normalize(3.7 * X), l2_normalize(X), atol=1e-9)

    def test_norms_are_one(self, rng):
        X = rng.standard_normal((20, 6))
        norms = np.linalg.norm(l2_normalize(X), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_zero_row_named_in_error(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateInputError, match="row 1"):
            l2_normalize(X)


class TestUnitRows:
    def test_bitwise_l2_normalize_in_float32(self, rng):
        # N is not a multiple of the chunk size, so the last chunk is short.
        n = 2 * features_module._CHUNK_ROWS + 5
        X = rng.standard_normal((n, 6)) * rng.uniform(0.01, 100.0, size=(n, 1))
        unit = unit_rows(X)
        expected = l2_normalize(X).astype(np.float32)
        assert unit.dtype == expected.dtype and unit.shape == expected.shape
        assert unit.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value, error, text", [
        (np.nan, DataError, "has a non-finite norm"),
        (0.0, DegenerateInputError, "has near-zero norm"),
    ])
    def test_bad_row_in_a_later_chunk_named_globally(self, rng, value, error, text):
        row = features_module._CHUNK_ROWS + 3
        X = rng.standard_normal((row + 7, 3))
        X[row] = value
        for normalize_rows in (unit_rows, l2_normalize):
            with pytest.raises(error, match=f"^row {row} {text}"):
                normalize_rows(X)

    def test_traced_peak_beyond_x(self, rng):
        # l2_normalize(X).astype(np.float32) traces 14.6 MiB beyond X at
        # N = 10k, D = 128: the norms' N x D float64 scratch, the float64
        # quotient and the float32 copy. unit_rows traces about 5 MiB: the
        # float32 result (4.9 MiB), after one chunk's scratch for the norms.
        X = rng.standard_normal((10_000, 128))
        unit, peak = traced_peak(lambda: unit_rows(X))
        assert unit.dtype == np.float32
        assert peak < 7 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestFloat32Input:
    """Features stay float32, as load_features returns them; each
    computation widens what it reads, so float32 input gives the bits of
    its float64 widening."""

    # The knn-c10 benchmark shape (more than two _CHUNK_ROWS chunks) and the README's.
    @pytest.mark.parametrize("per_class, dims", [(1000, 128), (100, 32)],
                             ids=["knn-c10", "readme"])
    def test_bits_of_the_float64_widening(self, per_class, dims):
        X, _ = generate(SynthConfig(per_class=per_class, dims=dims, separation=6.0))
        X32 = X.astype(np.float32)
        X64 = X32.astype(np.float64)
        # The float64 mean of a float32 array equals the mean of its widened
        # copy only while numpy sums axis 0 in the same order for both.
        (W32, stats32), (W64, stats64) = pca_whiten(X32), pca_whiten(X64)
        assert same_bits(W32, W64)
        for field in ("mean", "basis", "scale", "kept"):
            assert same_bits(getattr(stats32, field), getattr(stats64, field)), field
        assert same_bits(stats32.apply(X32), stats64.apply(X64))
        # float32 sums this row's squares to inf; float64 does not.
        X32[7] = 1e20
        X64 = X32.astype(np.float64)
        assert same_bits(unit_rows(X32), unit_rows(X64))
        unit = l2_normalize(X32)
        assert same_bits(unit, l2_normalize(X64))
        assert unit.dtype == np.float64 and np.all(np.isfinite(unit))

    # Any other dtype is computed in float64 too: eigh cannot take a
    # longdouble matrix, and l2_normalize returns float64.
    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.longdouble])
    def test_other_dtypes_give_the_bits_of_the_float64_widening(self, rng, dtype):
        X = (10 * rng.standard_normal((40, 5))).astype(dtype)
        X64 = X.astype(np.float64)
        (W, stats), (W64, stats64) = pca_whiten(X), pca_whiten(X64)
        assert same_bits(W, W64) and same_bits(stats.apply(X), stats64.apply(X64))
        assert same_bits(l2_normalize(X), l2_normalize(X64))
        assert same_bits(unit_rows(X), unit_rows(X64))

    # Traced peaks in units of the N x D float64 matrix: unit_rows' float32
    # result (0.5), l2_normalize's float64 result (1), pca_whiten's centred
    # and whitened matrices (2), and load_features' array and finiteness
    # mask (0.625), each beside one chunk's scratch. A float64 copy of the
    # input would add 1 to each.
    @pytest.mark.parametrize("name, bound", [("unit_rows", 0.56), ("l2_normalize", 1.05),
                                             ("pca_whiten", 2.05), ("load_features", 0.65)])
    def test_traced_peak_without_a_float64_copy(self, tmp_path, rng, name, bound):
        X = rng.standard_normal((20_000, 64)).astype(np.float32)
        path = tmp_path / "f.relf"
        save_features(path, X)
        function = getattr(features_module, name)
        _, peak = traced_peak(lambda: function(path if name == "load_features" else X))
        assert peak < bound * X.size * 8, f"traced peak {peak / (X.size * 8):.2f} x N x D x 8 B"
