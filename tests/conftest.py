import tracemalloc

import numpy as np
import pytest

from relab.diffusion import SeedLabels


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def two_cluster_features(n_per, dims, gap, rng_seed=7):
    """Two Gaussian blobs along the first axis, labels grouped."""
    rng = np.random.default_rng(rng_seed)
    a = rng.standard_normal((n_per, dims))
    b = rng.standard_normal((n_per, dims))
    a[:, 0] += gap / 2.0
    b[:, 0] -= gap / 2.0
    X = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n_per, dtype=np.int64), np.ones(n_per, dtype=np.int64)])
    return X, y


def seeds_of(assignments, n_classes):
    """SeedLabels from a {sample index: class} mapping or pairs."""
    pairs = dict(assignments)
    return SeedLabels(index=list(pairs), label=list(pairs.values()), n_classes=n_classes)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def traced_peak(function):
    """(function(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = function()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
