"""End-to-end orchestration: whiten, graph, propagate, select, evaluate.

Each step's public ``*_step`` function reads the step's inputs from files
and hands them to a shared compute part, which works on the values,
writes the step's artifact and returns the step's summary with the value
the next step needs. The whiten and graph parts leave the writing to their
caller, so that the one-shot pipeline can build and check the graph before
it creates its output directory. The pipeline reads its inputs once and
hands those values along the chain in memory, writing every artifact once
and reading none back. Each value handed on is what the loader would
return from the file written, so the pipeline is byte-identical to running
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
    check_solver,
    diffuse,
    load_propagated,
    load_seeds,
    nn_propagate,
    save_propagated,
    save_seeds,
)
from .errors import ConfigError, DataError, DegenerateInputError
from .features import (
    DEFAULT_EPS,
    load_features,
    pca_whiten,
    save_features,
    stored_features,
    unit_rows,
)
from .fileio import load_truth, save_json, save_truth
from .graph import DEFAULT_GAMMA, auto_k, build_affinity, load_graph, normalize, save_graph
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

WHITENED_NAME = "features_whitened.relf"
GRAPH_NAME = "graph.relg"
PROPAGATED_NAME = "propagated.jsonl"
RELIABLE_NAME = "reliable.jsonl"
REPORT_NAME = "report.json"


def load_config_file(path):
    """Parse a minimal key = value config file into a dict.

    One assignment per line; '#' starts a comment. A value that is one
    JSON value (a number, boolean, quoted string or list) followed only by
    whitespace or a comment is that JSON value, '#' inside it included;
    any other value is cut at its first '#' and kept as a raw string. Keys
    have '-' normalized to '_' so they line up with CLI flag names.
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
        # The line's first '=' comes before its first '#', so the value with
        # any '#' it holds is the raw line after that '='. When value parses
        # as JSON, so does full, with nothing but a comment after it.
        full = raw.partition("=")[2].strip()
        try:
            parsed, end = json.JSONDecoder().raw_decode(full)
            values[key] = parsed if full[end:].lstrip()[:1] in ("", "#") else value
        except json.JSONDecodeError:
            values[key] = value
    return values


def whiten_step(in_path, out_path, eps=DEFAULT_EPS):
    summary, stored = _whiten(load_features(in_path), out_path, eps)
    save_features(out_path, stored)
    return summary


def _whiten(X, out_path, eps):
    """Whiten X; returns (summary of writing it to out_path, the float32
    array save_features writes there, which is what load_features reads
    back)."""
    whitened, stats = pca_whiten(X, eps=eps)
    return {
        "step": "whiten",
        "n": X.shape[0],
        "dims_in": X.shape[1],
        "dims_kept": stats.kept,
        "out": str(out_path),
    }, stored_features(whitened)


def graph_step(features_path, out_path, gamma=DEFAULT_GAMMA, k=None):
    """Build and write the affinity graph; k=None applies auto_k to the sample count."""
    summary, graph = _graph(load_features(features_path), features_path, out_path, gamma, k)
    save_graph(out_path, graph)
    return summary


def _spread(values):
    """The min, median and max of a step's integer counts, for its summary."""
    return {"min": int(values.min()), "median": float(np.median(values)),
            "max": int(values.max())}


def _graph(X, features_path, out_path, gamma, k):
    """Build the graph over X, the features of features_path; returns
    (summary of writing it to out_path, graph). The graph is a canonical
    CSR, as save_graph writes it and load_graph returns it."""
    if k is None:
        k = auto_k(X.shape[0])
    graph = build_affinity(X, gamma=gamma, k=k)
    if graph.n > 1 and graph.matrix.nnz == 0:
        # Whitened data with N <= D + 1 is a regular simplex: every cosine is negative.
        raise DegenerateInputError(
            f"{features_path}: no pair of the {graph.n} samples has a positive cosine, "
            "so the graph has no edges")
    return {
        "step": "graph",
        "n": graph.n,
        "nnz": int(graph.matrix.nnz),
        "nnz_per_row": graph.matrix.nnz / graph.n,
        "neighbors": _spread(np.diff(graph.matrix.indptr)),
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
    _check_method(method, graph_path is not None, features_path is not None)
    seeds = load_seeds(seeds_path)
    if method == "diffusion":
        source = normalize(load_graph(graph_path))
    else:
        source = load_features(features_path)
    return _propagate(seeds, source, out_path, method, alpha, tol, max_iter)[0]


def _check_method(method, has_graph, has_features):
    """Raise ConfigError unless method is one of METHODS and its input is
    given: the graph for "diffusion", the features for "nn"."""
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if method == "diffusion" and not has_graph:
        raise ConfigError("diffusion propagation needs a graph file (--graph)")
    if method == "nn" and not has_features:
        raise ConfigError("nearest-neighbor propagation needs a features file (--features)")


def _propagate(seeds, source, out_path, method, alpha, tol, max_iter):
    """Propagate over source, the normalized graph for "diffusion" and the
    features for "nn", and write the labels; returns (summary, labels,
    retrieval scores)."""
    if method == "diffusion":
        result = diffuse(source, seeds, alpha=alpha, tol=tol, max_iter=max_iter)
        labels, retrieval = result.labels, result.retrieval_score
        extra = {"alpha": alpha, "residual": result.residual,
                 "cg_iterations": _spread(result.iterations),
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
    features_path and "retrieval-score" never reads it. check_budget
    resolves n_r=None to the default size for the seeds' class count and
    checks the size before the features are read. The seeds file must
    declare the propagated file's class count.
    """
    _check_strategy(strategy, features_path is not None)
    seeds = load_seeds(seeds_path)
    labels, retrieval, n_classes = load_propagated(propagated_path)
    if seeds.n_classes != n_classes:
        raise DataError(f"{seeds_path}: n_classes={seeds.n_classes} differs from the "
                        f"{n_classes} of {propagated_path}")
    seeds.check_fits(labels.shape[0])
    n_r = check_budget(seeds, n_r)
    unit = unit_rows(load_features(features_path)) if strategy == "small-loss" else None
    return _select(unit, labels, retrieval, seeds, out_path, n_r, strategy, probe)[0]


def _check_strategy(strategy, has_features):
    """Raise ConfigError unless strategy is one of STRATEGIES and, for
    "small-loss", the features are given."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if strategy == "small-loss" and not has_features:
        raise ConfigError("small-loss selection needs a features file (--features)")


def _select(unit, labels, retrieval, seeds, out_path, n_r, strategy, probe):
    """Select by strategy and write the reliable set; returns (summary,
    ReliableSet). unit holds the features' float32 unit rows, as
    unit_rows returns them, that the small-loss probe trains on, so that
    no float64 copy stays alive while it trains; retrieval-score does not
    read it."""
    if strategy == "small-loss":
        cfg = probe if probe is not None else ProbeConfig()
        losses = train_probe(unit, labels, cfg, seeds.n_classes)
        rset = select_reliable(losses, labels, seeds, n_r)
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
    rset = None if reliable_path is None else load_reliable(reliable_path)
    return _evaluate(labels, truth, n_classes, out_path, rset)


def _check_truth(truth, n, n_classes, truth_path):
    """Raise DataError unless truth holds one class below n_classes per sample."""
    if truth.shape != (n,):
        raise DataError(f"{truth_path}: {truth.size} truth labels for {n} samples")
    if np.any(truth >= n_classes):
        raise DataError(f"{truth_path}: truth class {truth.max()} out of range for "
                        f"{n_classes} classes")


def _evaluate(labels, truth, n_classes, out_path, rset):
    """Write the report of labels against truth, both of which hold one
    class below n_classes per sample, and nest the report of the reliable
    set rset unless it is None; returns the summary."""
    doc = noise_report(labels, truth, n_classes).to_dict()
    if rset is not None:
        doc["reliable"] = compare_selection(rset, truth, n_classes).to_dict()
    save_json(out_path, doc)
    return {"step": "evaluate", "out": str(out_path), **doc}


def synth_step(out_features, out_truth, synth=None, out_seeds=None, seeds_per_class=None):
    """Generate the synthetic fixture of synth, a SynthConfig (its defaults
    when None); optionally also a seed file.

    seeds_per_class is checked whenever it is given, and the seeds are
    picked before any file is written, so a seeds request that cannot be
    met leaves no file behind.
    """
    cfg = synth if synth is not None else SynthConfig()
    if out_seeds is not None and seeds_per_class is None:
        raise ConfigError("writing a seeds file needs seeds-per-class")
    if seeds_per_class is not None:
        check_seeds_per_class(seeds_per_class)
    X, truth = generate(cfg)
    seeds = None if out_seeds is None else pick_seeds(truth, seeds_per_class, cfg.rng_seed)
    save_features(out_features, X)
    save_truth(out_truth, truth)
    summary = {
        "step": "synth",
        "n": int(truth.shape[0]),
        "n_classes": cfg.n_classes,
        "dims": cfg.dims,
        "separation": cfg.separation,
        "out_features": str(out_features),
        "out_truth": str(out_truth),
    }
    if seeds is not None:
        save_seeds(out_seeds, seeds)
        summary["out_seeds"] = str(out_seeds)
        summary["n_seeds"] = len(seeds)
    return summary


def run_pipeline(features_path, seeds_path, out_dir, truth_path=None, eps=DEFAULT_EPS,
                 gamma=DEFAULT_GAMMA, k=None, alpha=DEFAULT_ALPHA, tol=DEFAULT_TOL,
                 max_iter=DEFAULT_MAX_ITER, method="diffusion", n_r=None,
                 strategy="small-loss", probe=None):
    """Run whiten -> graph -> propagate -> select (-> evaluate) into out_dir.

    The raw features, the seeds and the truth are read once, and every
    option the run uses is checked against them before out_dir is created:
    the seed, solver, budget and truth checks come first, and whitening
    the features and building and normalizing the graph check eps, gamma
    and k and refuse degenerate data. Each step hands its result to the next
    in memory, through the same compute part its subcommand runs: every
    artifact is written once and none is read back. The values handed on
    are what the loaders would return from the files written, so the
    artifacts and step summaries match a manual chain of the subcommands
    exactly. Returns the list of per-step summaries.
    """
    _check_method(method, has_graph=True, has_features=True)
    _check_strategy(strategy, has_features=True)
    X = load_features(features_path)
    seeds = load_seeds(seeds_path)
    truth = None if truth_path is None else load_truth(truth_path)
    n = X.shape[0]
    seeds.check_fits(n)
    if strategy == "small-loss":
        check_probe_classes(seeds.label)
    if method == "diffusion":
        check_solver(alpha, tol, max_iter)
    n_r = check_budget(seeds, n_r)
    if truth is not None:
        _check_truth(truth, n, seeds.n_classes, truth_path)

    def path(name):
        return os.path.join(out_dir, name)

    # Between steps at most one feature matrix and one graph are alive: each
    # rebinding or del below drops a value no later step reads.
    summary, X = _whiten(X, path(WHITENED_NAME), eps)
    steps = [summary]
    source = X
    if method == "diffusion":
        summary, graph = _graph(X, features_path, path(GRAPH_NAME), gamma, k)
        steps.append(summary)
        source = normalize(graph)
    os.makedirs(out_dir, exist_ok=True)
    save_features(path(WHITENED_NAME), X)
    if method == "diffusion":
        save_graph(path(GRAPH_NAME), graph)
        del graph
    summary, labels, retrieval = _propagate(seeds, source, path(PROPAGATED_NAME), method,
                                            alpha, tol, max_iter)
    steps.append(summary)
    del source
    X = unit_rows(X) if strategy == "small-loss" else None
    summary, rset = _select(X, labels, retrieval, seeds, path(RELIABLE_NAME), n_r,
                            strategy, probe)
    steps.append(summary)
    if truth is not None:
        steps.append(_evaluate(labels, truth, seeds.n_classes, path(REPORT_NAME), rset))
    return steps
