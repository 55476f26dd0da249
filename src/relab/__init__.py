"""Label bootstrapping from a handful of seeds.

Diffuse seed labels over a cosine-affinity graph built on whitened
feature embeddings, then select a class-balanced low-noise subset of the
propagated labels by the small-loss criterion of a linear probe.
"""

from .diffusion import (
    DiffusionResult,
    SeedLabels,
    diffuse,
    diffusion_scores,
    load_propagated,
    load_seeds,
    nn_propagate,
    save_propagated,
    save_seeds,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    FormatError,
    GenerationError,
    IsolatedNodeError,
    RelabError,
    SolverError,
    TrainingDivergedError,
)
from .features import (
    WhitenStats,
    l2_normalize,
    load_features,
    pca_whiten,
    save_features,
    unit_rows,
)
from .fileio import load_truth, save_truth
from .graph import (
    AffinityGraph,
    NormalizedGraph,
    build_affinity,
    load_graph,
    normalize,
    save_graph,
)
from .metrics import NoiseReport, compare_selection, noise_report
from .pipeline import load_config_file, run_pipeline
from .selection import (
    ProbeConfig,
    ReliableSet,
    load_reliable,
    save_reliable,
    select_by_retrieval_score,
    select_reliable,
    train_probe,
)
from .synth import SynthConfig, generate, pick_seeds

__version__ = "0.1.0"

__all__ = [
    "AffinityGraph",
    "ConfigError",
    "DataError",
    "DegenerateInputError",
    "DiffusionResult",
    "FormatError",
    "GenerationError",
    "IsolatedNodeError",
    "NoiseReport",
    "NormalizedGraph",
    "ProbeConfig",
    "RelabError",
    "ReliableSet",
    "SeedLabels",
    "SolverError",
    "SynthConfig",
    "TrainingDivergedError",
    "WhitenStats",
    "build_affinity",
    "compare_selection",
    "diffuse",
    "diffusion_scores",
    "generate",
    "l2_normalize",
    "load_config_file",
    "load_features",
    "load_graph",
    "load_propagated",
    "load_reliable",
    "load_seeds",
    "load_truth",
    "nn_propagate",
    "noise_report",
    "normalize",
    "pca_whiten",
    "pick_seeds",
    "run_pipeline",
    "save_features",
    "save_graph",
    "save_propagated",
    "save_reliable",
    "save_seeds",
    "save_truth",
    "select_by_retrieval_score",
    "select_reliable",
    "train_probe",
    "unit_rows",
]
