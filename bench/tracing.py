"""Spans and counters around the calls the orchestration makes into each layer.

Tracing replaces, for the duration of one traced operation, the public
functions that `relab.pipeline` and `relab.cli` call with wrappers, at
those modules' attributes only; nothing inside relab changes. Each wrapper
records a span (name, layer, start, end, parent) tagged with the
operation's id, plus the counters below. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus
the part of it its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

# Function name -> (layer, time metric the span adds to, or None). These are
# the names relab.pipeline imports from the library modules plus its own
# step functions; relab.cli imports the step functions from relab.pipeline.
CALLS = {
    "load_features": ("features", "features.load_s"),
    "pca_whiten": ("features", "features.whiten_s"),
    "save_features": ("features", "features.save_s"),
    "l2_normalize": ("features", "features.l2_normalize_s"),
    "build_affinity": ("graph", "graph.build_s"),
    "save_graph": ("graph", "graph.save_s"),
    "load_graph": ("graph", "graph.load_s"),
    "normalize": ("graph", "graph.normalize_s"),
    "load_seeds": ("diffusion", None),
    "build_label_matrix": ("diffusion", None),
    "diffuse": ("diffusion", "diffusion.diffuse_s"),
    "save_propagated": ("diffusion", "diffusion.save_propagated_s"),
    "load_propagated": ("diffusion", "diffusion.load_propagated_s"),
    "train_probe": ("selection", "selection.train_probe_s"),
    "select_reliable": ("selection", "selection.select_s"),
    "save_reliable": ("selection", "selection.save_s"),
    "load_reliable": ("selection", "selection.load_s"),
    "noise_report": ("metrics", "metrics.report_s"),
    "compare_selection": ("metrics", "metrics.report_s"),
    "load_truth": ("fileio", "fileio.load_truth_s"),
    "save_json": ("fileio", None),
    "whiten_step": ("pipeline", "pipeline.whiten_s"),
    "graph_step": ("pipeline", "pipeline.graph_s"),
    "propagate_step": ("pipeline", "pipeline.propagate_s"),
    "select_step": ("pipeline", "pipeline.select_s"),
    "evaluate_step": ("pipeline", "pipeline.evaluate_s"),
    "synth_step": ("pipeline", None),
    "run_pipeline": ("pipeline", None),
}


class Tracer:
    """Spans and counters of the operations run while it is installed."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        record = {"op": self.op, "id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "layer": layer, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def set(self, name, value):
        self.counters.setdefault(self.op, {})[name] = value

    def add(self, name, value):
        ops = self.counters.setdefault(self.op, {})
        ops[name] = ops.get(name, 0) + value


class CountingMatrix(sp.csr_matrix):
    """A CSR matrix that counts its `@` products and their columns.

    `diffuse` is handed a graph whose `s` is one of these, so the counts
    are the operator applications the solver asked for. Matrices scipy
    derives from it (transposes, copies) carry no tracer and count nothing.
    """

    tracer = None

    def __matmul__(self, other):
        if self.tracer is not None:
            self.tracer.add("diffusion.operator_calls", 1)
            self.tracer.add("diffusion.spmv_columns",
                            other.shape[1] if getattr(other, "ndim", 1) == 2 else 1)
        return super().__matmul__(other)


def _graph_counters(tracer, graph):
    nnz = int(graph.matrix.nnz)
    tracer.set("graph.nnz", nnz)
    tracer.set("graph.nnz_per_row", nnz / graph.n)


def _before_diffuse(tracer, bound):
    graph = bound.arguments["graph"]
    counting = CountingMatrix(graph.s)
    counting.tracer = tracer
    bound.arguments["graph"] = dataclasses.replace(graph, s=counting)


def _after_build(tracer, bound, graph):
    n, d = bound.arguments["X"].shape
    tracer.set("graph.gemm_gflop", 2.0 * n * n * d / 1e9)
    _graph_counters(tracer, graph)


def _after_load_graph(tracer, bound, graph):
    tracer.set("graph.file_bytes", os.path.getsize(bound.arguments["path"]))
    _graph_counters(tracer, graph)


def _after_save_graph(tracer, bound, _):
    tracer.set("graph.file_bytes", os.path.getsize(bound.arguments["path"]))


def _after_train_probe(tracer, bound, _):
    n, d = bound.arguments["X"].shape
    cfg = bound.arguments["cfg"]
    c = bound.arguments["n_classes"] or int(np.max(bound.arguments["labels"])) + 1
    # Per epoch: the minibatch forward and gradient GEMMs over all N rows,
    # and the full-set loss evaluation; 2*N*D*C flops each.
    tracer.set("selection.probe_gflop", 3 * 2.0 * n * d * c * cfg.epochs / 1e9)


def _after_whiten(tracer, _, result):
    tracer.set("features.dims_kept", result[1].kept)


BEFORE = {"diffuse": _before_diffuse}
AFTER = {
    "pca_whiten": _after_whiten,
    "build_affinity": _after_build,
    "load_graph": _after_load_graph,
    "save_graph": _after_save_graph,
    "train_probe": _after_train_probe,
}


def _wrap(tracer, fn, name, layer):
    signature = inspect.signature(fn)
    before, after = BEFORE.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if before is not None:
            before(tracer, bound)
        with tracer.span(name, layer):
            result = fn(*bound.args, **bound.kwargs)
        if after is not None:
            after(tracer, bound, result)
        return result

    return traced


@contextmanager
def installed(tracer):
    """Wrap the traced names of relab.pipeline and relab.cli while active."""
    import relab.cli
    import relab.pipeline

    originals = []
    try:
        for module in (relab.pipeline, relab.cli):
            for name, (layer, _) in CALLS.items():
                fn = getattr(module, name, None)
                if callable(fn):
                    originals.append((module, name, fn))
                    setattr(module, name, _wrap(tracer, fn, name, layer))
        yield tracer
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def _covered(intervals):
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def op_metrics(spans, counters):
    """Per-operation layer metrics: {op id: {metric: value}}."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    metrics = {}
    for span in spans:
        values = metrics.setdefault(span["op"], {})
        duration = span["end"] - span["start"]
        _, metric = CALLS.get(span["name"], (None, None))
        if metric:
            values[metric] = values.get(metric, 0.0) + duration
        own = duration - _covered(
            [(c["start"], c["end"]) for c in children.get(span["id"], ())]
        )
        key = f"{span['layer']}.self_s"
        values[key] = values.get(key, 0.0) + own
    for op, values in counters.items():
        metrics.setdefault(op, {}).update(values)
    return metrics


def median_metrics(per_op, ops):
    """Median over the given operations of each metric any of them has."""
    names = {name for op in ops for name in per_op.get(op, {})}
    return {
        name: statistics.median(per_op[op][name] for op in ops if name in per_op.get(op, {}))
        for name in names
    }
