"""Synthetic Gaussian-mixture fixtures with controllable class separation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import SeedLabels
from .errors import ConfigError, GenerationError

_MIN_DIRECTION_DIST = 1e-3
_MAX_ATTEMPTS = 1000


@dataclass
class SynthConfig:
    n_classes: int = 10
    per_class: int = 100
    dims: int = 32
    separation: float = 3.0
    rng_seed: int = 0
    imbalance: tuple | None = None  # per-class sample counts, overrides per_class

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")
        if self.dims < 2:
            raise ConfigError(f"dims must be >= 2, got {self.dims}")
        if not 0 < self.separation < np.inf:
            raise ConfigError(f"separation must be finite and positive, got {self.separation}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.imbalance is not None:
            if len(self.imbalance) != self.n_classes:
                raise ConfigError(
                    f"imbalance needs {self.n_classes} counts, got {len(self.imbalance)}"
                )
            if any(int(v) < 1 for v in self.imbalance):
                raise ConfigError("imbalance counts must all be >= 1")

    def class_counts(self):
        if self.imbalance is not None:
            return [int(v) for v in self.imbalance]
        return [self.per_class] * self.n_classes


def generate(cfg):
    """Draw a labeled isotropic Gaussian mixture.

    Class centers are random unit directions rescaled so the minimum
    pairwise center distance equals cfg.separation; samples add unit
    standard-normal noise. Labels come out grouped by class. Deterministic
    for a given cfg.rng_seed (PCG64 stream).
    """
    rng = np.random.default_rng(cfg.rng_seed)
    c, d = cfg.n_classes, cfg.dims

    for _ in range(_MAX_ATTEMPTS):
        directions = rng.standard_normal((c, d))
        norms = np.linalg.norm(directions, axis=1)
        if np.any(norms < 1e-12):
            continue
        directions /= norms[:, None]
        diffs = directions[:, None, :] - directions[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        min_dist = dist[~np.eye(c, dtype=bool)].min()
        if min_dist > _MIN_DIRECTION_DIST:
            break
    else:
        raise GenerationError(
            f"could not draw {c} distinct center directions in {_MAX_ATTEMPTS} attempts"
        )

    centers = directions * (cfg.separation / min_dist)
    counts = cfg.class_counts()
    features = np.concatenate(
        [centers[cls] + rng.standard_normal((counts[cls], d)) for cls in range(c)]
    )
    truth = np.concatenate(
        [np.full(counts[cls], cls, dtype=np.int64) for cls in range(c)]
    )
    return features, truth


def check_seeds_per_class(per_class):
    """Raise ConfigError unless per_class >= 1."""
    if per_class < 1:
        raise ConfigError(f"seeds per class must be >= 1, got {per_class}")


def pick_seeds(truth, per_class, rng_seed=0):
    """Sample per_class seed indices uniformly within each class."""
    truth = np.asarray(truth, dtype=np.int64)
    check_seeds_per_class(per_class)
    if rng_seed < 0:
        raise ConfigError(f"rng_seed must be >= 0, got {rng_seed}")
    n_classes = int(truth.max()) + 1 if truth.size else 0
    if n_classes < 1:
        raise ConfigError("truth labels are empty")
    rng = np.random.default_rng(rng_seed)
    chosen = []
    for cls in range(n_classes):
        members = np.flatnonzero(truth == cls)
        if members.size < per_class:
            raise ConfigError(
                f"class {cls} has {members.size} samples, cannot pick {per_class} seeds"
            )
        chosen.append(rng.choice(members, size=per_class, replace=False))
    label = np.repeat(np.arange(n_classes), per_class)
    return SeedLabels(index=np.concatenate(chosen), label=label, n_classes=n_classes)
