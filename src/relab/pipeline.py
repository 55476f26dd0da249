"""End-to-end orchestration: whiten, graph, propagate, select, evaluate.

Each step's public ``*_step`` function reads the step's inputs from files
and hands them to a shared compute part, which works on the values,
writes the step's artifact and returns the step's summary with the value
the next step needs. The one-shot pipeline reads its inputs once and hands
those values along the chain in memory, writing every artifact once and
reading none back. Each value handed on is what the loader would return
from the file just written, so the pipeline is byte-identical to running
the subcommands by hand with the same parameters, which the test suite
checks.
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
    check_solver,
    diffuse,
    load_propagated,
    load_seeds,
    nn_propagate,
    save_propagated,
    save_seeds,
)
from .errors import ConfigError, DataError, DegenerateInputError
from .features import check_eps, l2_normalize, load_features, pca_whiten, save_features
from .fileio import load_truth, save_json, save_truth
from .graph import (DEFAULT_GAMMA, auto_k, build_affinity, check_affinity, load_graph,
                    normalize, save_graph)
from .metrics import compare_selection, noise_report
from .selection import (
    ProbeConfig,
    check_budget,
    check_probe_classes,
    load_reliable,
    save_reliable,
    select_by_retrieval_score,
    select_reliable,
    train_probe,
)
from .synth import SynthConfig, check_seeds_per_class, generate, pick_seeds

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
    return _whiten(load_features(in_path), out_path, eps)[0]


def _whiten(X, out_path, eps):
    """Whiten X and write it; returns (summary, the written matrix as
    load_features reads it back: float32-rounded, widened to float64)."""
    whitened, stats = pca_whiten(X, eps=eps)
    whitened = save_features(out_path, whitened)
    return {
        "step": "whiten",
        "n": X.shape[0],
        "dims_in": X.shape[1],
        "dims_kept": stats.kept,
        "out": str(out_path),
    }, whitened.astype(np.float64)


def graph_step(features_path, out_path, gamma=DEFAULT_GAMMA, k=None):
    """Build and write the affinity graph; k=None applies auto_k to the sample count."""
    return _graph(load_features(features_path), features_path, out_path, gamma, k)[0]


def _graph(X, features_path, out_path, gamma, k):
    """Build the graph over X (read from features_path) and write it;
    returns (summary, graph)."""
    if k is None:
        k = auto_k(X.shape[0])
    graph = build_affinity(X, gamma=gamma, k=k)
    if graph.n > 1 and graph.matrix.nnz == 0:
        # Whitened data with N <= D + 1 is a regular simplex: every cosine is negative.
        raise DegenerateInputError(
            f"{features_path}: no pair of the {graph.n} samples has a positive cosine, "
            "so the graph has no edges")
    # Sorts the CSR and drops duplicates and zeros in place, as load_graph returns it.
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
    }, graph


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
        source = normalize(load_graph(graph_path))
    else:
        source = load_features(features_path)
    return _propagate(seeds, source, out_path, method, alpha, tol, max_iter)[0]


def _propagate(seeds, source, out_path, method, alpha, tol, max_iter):
    """Propagate over source, the normalized graph for "diffusion" and the
    features for "nn", and write the labels; returns (summary, labels,
    retrieval scores)."""
    if method == "diffusion":
        Y = build_label_matrix(seeds, source.n)
        result = diffuse(source, Y, alpha=alpha, tol=tol, max_iter=max_iter, seeds=seeds)
        labels, retrieval = result.labels, result.retrieval_score
        its = result.iterations
        extra = {"alpha": alpha, "residual": result.residual,
                 "cg_iterations": {"min": int(its.min()), "median": float(np.median(its)),
                                   "max": int(its.max())},
                 "zero_rows": len(result.zero_rows)}
    else:
        labels, retrieval = nn_propagate(source, seeds)
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
    }, labels, retrieval


def select_step(features_path, propagated_path, seeds_path, out_path, n_r=None,
                strategy="small-loss", probe=None):
    """Build the reliable set from propagated labels and write it.

    Features are L2-normalized before probe training (the probe sees the
    same geometry the affinity graph used); strategy "small-loss" needs
    features_path and "retrieval-score" never reads it. n_r=None picks
    the standard size for the class count when one exists. The seeds
    file must declare the propagated file's class count.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if strategy == "small-loss" and features_path is None:
        raise ConfigError("small-loss selection needs a features file (--features)")
    seeds = load_seeds(seeds_path)
    labels, retrieval, n_classes = load_propagated(propagated_path)
    if seeds.n_classes != n_classes:
        raise DataError(f"{seeds_path}: n_classes={seeds.n_classes} differs from the "
                        f"{n_classes} of {propagated_path}")
    seeds.check_fits(labels.shape[0])
    if n_r is None:
        n_r = default_nr(seeds.n_classes)
    unit = (l2_normalize(load_features(features_path)).astype(np.float32)
            if strategy == "small-loss" else None)
    return _select(unit, labels, retrieval, seeds, out_path, n_r, strategy, probe)[0]


def _select(unit, labels, retrieval, seeds, out_path, n_r, strategy, probe):
    """Select by strategy and write the reliable set; returns (summary,
    ReliableSet). unit holds the L2-normalized features the small-loss
    probe trains on, already cast to the probe's float32 so that no
    float64 copy stays alive while it trains; retrieval-score does not
    read it."""
    if strategy == "small-loss":
        cfg = probe if probe is not None else ProbeConfig()
        trace = train_probe(unit, labels, cfg, seeds.n_classes)
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
    }, rset


def evaluate_step(predicted_path, truth_path, out_path, reliable_path=None):
    """Score propagated labels (and optionally a reliable set) against truth.

    The report JSON is the propagated-label noise report; when a reliable
    set is given, its own report (with origin breakdown) is nested under
    the "reliable" key.
    """
    labels, _, n_classes = load_propagated(predicted_path)
    truth = load_truth(truth_path)
    _check_truth(truth, labels.size, n_classes, truth_path)
    return _evaluate(labels, truth, n_classes, out_path,
                     lambda: None if reliable_path is None else load_reliable(reliable_path))


def _check_truth(truth, n, n_classes, truth_path):
    """Raise DataError unless truth holds one class below n_classes per sample."""
    if truth.shape != (n,):
        raise DataError(f"{truth_path}: {truth.size} truth labels for {n} samples")
    if np.any(truth >= n_classes):
        raise DataError(f"{truth_path}: truth class {truth.max()} out of range for "
                        f"{n_classes} classes")


def _evaluate(labels, truth, n_classes, out_path, reliable):
    """Write the report of labels against truth, both of which hold one
    class below n_classes per sample, and nest the report of the set
    reliable() returns unless that is None; returns the summary.

    reliable() runs once the labels are scored: reading the reliable file
    before that raised the peak RSS of repeated propagate -> select ->
    evaluate rounds (N = 10k, C = 100) by about 1 MB.
    """
    report = noise_report(labels, truth, n_classes)
    doc = report.to_dict()
    rset = reliable()
    if rset is not None:
        doc["reliable"] = compare_selection(rset, truth, n_classes).to_dict()
    save_json(out_path, doc)
    return {"step": "evaluate", "out": str(out_path), **doc}


def synth_step(out_features, out_truth, n_classes=10, per_class=100, dims=32,
               separation=3.0, rng_seed=0, imbalance=None, out_seeds=None,
               seeds_per_class=None):
    """Generate a synthetic fixture; optionally also a seed file.

    seeds_per_class is checked whenever it is given, and the seeds are
    picked before any file is written, so a seeds request that cannot be
    met leaves no file behind.
    """
    cfg = SynthConfig(
        n_classes=n_classes,
        per_class=per_class,
        dims=dims,
        separation=separation,
        rng_seed=rng_seed,
        imbalance=tuple(imbalance) if imbalance else None,
    )
    if out_seeds is not None and seeds_per_class is None:
        raise ConfigError("writing a seeds file needs seeds-per-class")
    if seeds_per_class is not None:
        check_seeds_per_class(seeds_per_class)
    X, truth = generate(cfg)
    seeds = None if out_seeds is None else pick_seeds(truth, seeds_per_class, rng_seed=rng_seed)
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
    if seeds is not None:
        save_seeds(out_seeds, seeds)
        summary["out_seeds"] = str(out_seeds)
        summary["n_seeds"] = len(seeds)
    return summary


def run_pipeline(features_path, seeds_path, out_dir, truth_path=None, eps=1e-10,
                 gamma=DEFAULT_GAMMA, k=None, alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL,
                 max_iter=DEFAULT_MAX_ITER, method="diffusion", n_r=None,
                 strategy="small-loss", probe=None):
    """Run whiten -> graph -> propagate -> select (-> evaluate) into out_dir.

    The raw features, the seeds and the truth are read once, and every
    option the run uses is checked against them before out_dir is created. Each step
    then hands its result to the next in memory, through the same compute
    part its subcommand runs: every artifact is written once and none is
    read back. The values handed on are what the loaders would return
    from the files just written, so the artifacts and step summaries match
    a manual chain of the subcommands exactly. Returns the list of
    per-step summaries.
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    X = load_features(features_path)
    seeds = load_seeds(seeds_path)
    truth = None if truth_path is None else load_truth(truth_path)
    n = X.shape[0]
    check_eps(eps)
    seeds.check_fits(n)
    if strategy == "small-loss":
        check_probe_classes(list(seeds.assignments.values()))
    if method == "diffusion":
        check_affinity(n, gamma, auto_k(n) if k is None else k)
        check_solver(alpha, tol, max_iter)
    if n_r is None:
        n_r = default_nr(seeds.n_classes)
    check_budget(seeds, n_r)
    if truth is not None:
        _check_truth(truth, n, seeds.n_classes, truth_path)
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    # Between steps at most one feature matrix and one graph are alive: each
    # rebinding or del below drops a value no later step reads.
    summary, X = _whiten(X, path(WHITENED_NAME), eps)
    steps = [summary]
    source = X
    if method == "diffusion":
        summary, graph = _graph(X, path(WHITENED_NAME), path(GRAPH_NAME), gamma, k)
        steps.append(summary)
        source = normalize(graph)
        del graph
    summary, labels, retrieval = _propagate(seeds, source, path(PROPAGATED_NAME), method,
                                            alpha, tol, max_iter)
    steps.append(summary)
    del source
    if strategy == "small-loss":
        # Two statements, so the whitened and normalized float64 matrices
        # are never alive beside the float32 copy the probe trains on.
        X = l2_normalize(X)
        X = X.astype(np.float32)
    else:
        X = None
    summary, rset = _select(X, labels, retrieval, seeds, path(RELIABLE_NAME), n_r,
                            strategy, probe)
    steps.append(summary)
    if truth is not None:
        steps.append(_evaluate(labels, truth, seeds.n_classes, path(REPORT_NAME),
                               lambda: rset))
    return steps
