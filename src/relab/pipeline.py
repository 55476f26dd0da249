"""End-to-end orchestration: whiten, graph, propagate, select, evaluate.

Each step function reads its inputs from files and writes its outputs to
files, and the one-shot pipeline is the steps chained through artifacts in
an output directory. That makes the pipeline byte-identical to running the
subcommands by hand with the same parameters, which the test suite checks.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .diffusion import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    build_label_matrix,
    diffuse,
    load_propagated,
    load_seeds,
    nn_propagate,
    save_propagated,
    save_seeds,
)
from .errors import ConfigError, DataError, DegenerateInputError
from .features import l2_normalize, load_features, pca_whiten, save_features
from .fileio import load_truth, save_json, save_truth
from .graph import DEFAULT_GAMMA, auto_k, build_affinity, load_graph, normalize, save_graph
from .metrics import compare_selection, noise_report
from .selection import (
    ProbeConfig,
    load_reliable,
    save_reliable,
    select_by_retrieval_score,
    select_reliable,
    train_probe,
)
from .synth import SynthConfig, generate, pick_seeds

METHODS = ("diffusion", "nn")
STRATEGIES = ("small-loss", "retrieval-score")

# n_r values used in the experiments for the two standard class counts.
_NR_DEFAULTS = {10: 500, 100: 4000}

WHITENED_NAME = "features_whitened.relf"
GRAPH_NAME = "graph.relg"
PROPAGATED_NAME = "propagated.jsonl"
RELIABLE_NAME = "reliable.jsonl"
REPORT_NAME = "report.json"


def default_nr(n_classes):
    """The standard reliable-set size for a class count, if one exists."""
    try:
        return _NR_DEFAULTS[n_classes]
    except KeyError:
        raise ConfigError(
            f"no default n_r for {n_classes} classes; pass --nr explicitly"
        ) from None


def load_config_file(path):
    """Parse a minimal key = value config file into a dict.

    One assignment per line; '#' starts a comment; values are parsed as
    JSON when possible (numbers, booleans, quoted strings) and kept as raw
    strings otherwise. Keys have '-' normalized to '_' so they line up
    with CLI flag names.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        try:
            values[key] = json.loads(value)
        except json.JSONDecodeError:
            values[key] = value
    return values


def whiten_step(in_path, out_path, eps=1e-10):
    X = load_features(in_path)
    whitened, stats = pca_whiten(X, eps=eps)
    save_features(out_path, whitened)
    return {
        "step": "whiten",
        "n": int(X.shape[0]),
        "dims_in": int(X.shape[1]),
        "dims_kept": stats.kept,
        "out": str(out_path),
    }


def graph_step(features_path, out_path, gamma=DEFAULT_GAMMA, k=None):
    """Build and write the affinity graph; k=None applies auto_k to the sample count."""
    X = load_features(features_path)
    if k is None:
        k = auto_k(X.shape[0])
    graph = build_affinity(X, gamma=gamma, k=k)
    if graph.n > 1 and graph.matrix.nnz == 0:
        # Whitened data with N <= D + 1 is a regular simplex: every cosine is negative.
        raise DegenerateInputError(
            f"{features_path}: no pair of the {graph.n} samples has a positive cosine, "
            "so the graph has no edges")
    save_graph(out_path, graph)
    neighbors = np.diff(graph.matrix.indptr)
    return {
        "step": "graph",
        "n": graph.n,
        "nnz": int(graph.matrix.nnz),
        "nnz_per_row": graph.matrix.nnz / graph.n,
        "neighbors": {"min": int(neighbors.min()), "median": float(np.median(neighbors)),
                      "max": int(neighbors.max())},
        "gamma": gamma,
        "k": k,
        "out": str(out_path),
    }


def propagate_step(seeds_path, out_path, graph_path=None, features_path=None,
                   alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                   method="diffusion"):
    """Propagate seed labels to every sample and write the label file.

    method "diffusion" needs graph_path; method "nn" needs features_path
    (cosine nearest seed, no graph involved).
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if method == "diffusion" and graph_path is None:
        raise ConfigError("diffusion propagation needs a graph file (--graph)")
    if method == "nn" and features_path is None:
        raise ConfigError("nearest-neighbor propagation needs a features file (--features)")
    seeds = load_seeds(seeds_path)
    if method == "diffusion":
        graph = normalize(load_graph(graph_path))
        Y = build_label_matrix(seeds, graph.n)
        result = diffuse(graph, Y, alpha=alpha, tol=tol, max_iter=max_iter, seeds=seeds)
        labels, retrieval = result.labels, result.retrieval_score
        its = result.iterations
        extra = {"alpha": alpha, "residual": result.residual,
                 "cg_iterations": {"min": int(its.min()), "median": float(np.median(its)),
                                   "max": int(its.max())},
                 "zero_rows": len(result.zero_rows)}
    else:
        X = load_features(features_path)
        labels, retrieval = nn_propagate(X, seeds)
        extra = {}
    save_propagated(out_path, labels, retrieval, seeds)
    return {
        "step": "propagate",
        "method": method,
        "n": int(labels.shape[0]),
        "n_classes": seeds.n_classes,
        "n_seeds": len(seeds),
        "out": str(out_path),
        **extra,
    }


def select_step(features_path, propagated_path, seeds_path, out_path, n_r=None,
                strategy="small-loss", probe=None):
    """Build the reliable set from propagated labels and write it.

    Features are L2-normalized before probe training (the probe sees the
    same geometry the affinity graph used). n_r=None picks the standard
    size for the class count when one exists.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    seeds = load_seeds(seeds_path)
    labels, retrieval, _ = load_propagated(propagated_path)
    seeds.check_fits(labels.shape[0])
    if n_r is None:
        n_r = default_nr(seeds.n_classes)
    if strategy == "small-loss":
        X = l2_normalize(load_features(features_path))
        cfg = probe if probe is not None else ProbeConfig()
        trace = train_probe(X, labels, cfg, n_classes=seeds.n_classes)
        rset = select_reliable(trace, labels, seeds, n_r)
    else:
        rset = select_by_retrieval_score(labels, retrieval, seeds, n_r)
    save_reliable(out_path, rset)
    return {
        "step": "select",
        "strategy": strategy,
        "n_r": int(n_r),
        "selected": int(rset.per_class_count.sum()),
        "target_per_class": rset.target_per_class,
        "warnings": list(rset.warnings),
        "out": str(out_path),
    }


def evaluate_step(predicted_path, truth_path, out_path, reliable_path=None):
    """Score propagated labels (and optionally a reliable set) against truth.

    The report JSON is the propagated-label noise report; when a reliable
    set is given, its own report (with origin breakdown) is nested under
    the "reliable" key.
    """
    labels, _, _ = load_propagated(predicted_path)
    truth = load_truth(truth_path)
    if truth.shape != labels.shape:
        raise DataError(f"{truth_path}: {truth.size} truth labels for {labels.size} samples")
    n_classes = max(int(labels.max()), int(truth.max())) + 1
    if n_classes > labels.size:  # propagate refuses more classes than samples
        raise DataError(f"class index {n_classes - 1} out of range for {labels.size} samples")
    report = noise_report(labels, truth, n_classes)
    doc = report.to_dict()
    if reliable_path is not None:
        rset = load_reliable(reliable_path)
        doc["reliable"] = compare_selection(rset, truth, n_classes).to_dict()
    save_json(out_path, doc)
    return {"step": "evaluate", "out": str(out_path), **doc}


def synth_step(out_features, out_truth, n_classes=10, per_class=100, dims=32,
               separation=3.0, rng_seed=0, imbalance=None, out_seeds=None,
               seeds_per_class=None):
    """Generate a synthetic fixture; optionally also a seed file."""
    cfg = SynthConfig(
        n_classes=n_classes,
        per_class=per_class,
        dims=dims,
        separation=separation,
        rng_seed=rng_seed,
        imbalance=tuple(imbalance) if imbalance else None,
    )
    X, truth = generate(cfg)
    save_features(out_features, X)
    save_truth(out_truth, truth)
    summary = {
        "step": "synth",
        "n": int(truth.shape[0]),
        "n_classes": n_classes,
        "dims": dims,
        "separation": separation,
        "out_features": str(out_features),
        "out_truth": str(out_truth),
    }
    if out_seeds is not None:
        if seeds_per_class is None:
            raise ConfigError("writing a seeds file needs seeds-per-class")
        seeds = pick_seeds(truth, seeds_per_class, rng_seed=rng_seed)
        save_seeds(out_seeds, seeds)
        summary["out_seeds"] = str(out_seeds)
        summary["n_seeds"] = len(seeds)
    return summary


def run_pipeline(features_path, seeds_path, out_dir, truth_path=None, eps=1e-10,
                 gamma=DEFAULT_GAMMA, k=None, alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL,
                 max_iter=DEFAULT_MAX_ITER, method="diffusion", n_r=None,
                 strategy="small-loss", probe=None):
    """Run whiten -> graph -> propagate -> select (-> evaluate) into out_dir.

    Every intermediate is written to, then read back from, out_dir, so the
    artifacts match a manual chain of the subcommands exactly. Returns the
    list of per-step summaries.
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if n_r is None:
        n_r = default_nr(load_seeds(seeds_path).n_classes)
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    steps = [whiten_step(features_path, path(WHITENED_NAME), eps=eps)]
    if method == "diffusion":
        steps.append(graph_step(path(WHITENED_NAME), path(GRAPH_NAME), gamma=gamma, k=k))
    steps.append(propagate_step(
        seeds_path, path(PROPAGATED_NAME), graph_path=path(GRAPH_NAME),
        features_path=path(WHITENED_NAME), alpha=alpha, tol=tol, max_iter=max_iter,
        method=method,
    ))
    steps.append(select_step(
        path(WHITENED_NAME), path(PROPAGATED_NAME), seeds_path, path(RELIABLE_NAME),
        n_r=n_r, strategy=strategy, probe=probe,
    ))
    if truth_path is not None:
        steps.append(evaluate_step(
            path(PROPAGATED_NAME), truth_path, path(REPORT_NAME),
            reliable_path=path(RELIABLE_NAME),
        ))
    return steps
