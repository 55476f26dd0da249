"""The benchmark's two child processes: set-up and the measured process.

    python3 bench/worker.py setup SPEC.json
    python3 bench/worker.py measure SPEC.json

run.py writes SPEC.json and starts both, set-up first, each in its own
process with `src/` on PYTHONPATH. Set-up generates the inputs from the
workload seed (and, for a sweep, builds the graph once). The measured
process receives only those files. Both write their findings as JSON to
the spec's "result" path and exit 0; a set-up that cannot produce its
inputs exits 1.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import checks
import tracing
from workloads import (DIMS, SEEDS_PER_CLASS, SEPARATION, SETUP_MIN_S, SETUP_REPEATS,
                       WARMUP_OPS, Workload)

FEATURES = "features.relf"
TRUTH = "truth.json"
SEEDS = "seeds.json"
WHITENED = "features_whitened.relf"
GRAPH = "graph.relg"


def run_cli(argv, tracer=None):
    """relab.cli.main(argv) with stdout captured; returns (exit code, stdout)."""
    import relab.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = relab.cli.main(argv)
        else:
            with tracer.span("main", "cli"):
                code = relab.cli.main(argv)
    return code, out.getvalue()


def make_inputs(w, seed, out_dir, tracer=None):
    """Generate one set of workload inputs; returns the first failing exit code or 0."""
    commands = [[
        "--quiet", "synth", "--classes", str(w.n_classes), "--per-class", str(w.per_class),
        "--dims", str(DIMS), "--separation", str(SEPARATION), "--rng-seed", str(seed),
        "--seeds-per-class", str(SEEDS_PER_CLASS),
        "--out-features", os.path.join(out_dir, FEATURES),
        "--out-truth", os.path.join(out_dir, TRUTH),
        "--out-seeds", os.path.join(out_dir, SEEDS),
    ]]
    if w.kind == "sweep":
        commands.append(["--quiet", "features", "whiten",
                         "--in", os.path.join(out_dir, FEATURES),
                         "--out", os.path.join(out_dir, WHITENED)])
        commands.append(["--quiet", "graph", "build",
                         "--features", os.path.join(out_dir, WHITENED),
                         "--k", str(w.k), "--out", os.path.join(out_dir, GRAPH)])
    for argv in commands:
        code, _ = run_cli(argv, tracer)
        if code != 0:
            return code
    return 0


def setup(spec):
    w, seed, work = Workload(**spec["workload"]), spec["seed"], spec["work_dir"]
    tracer = tracing.Tracer() if spec["trace"] else None
    times, reference, error = [], None, None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        rep = len(times)
        out_dir = os.path.join(work, f"setup-{rep}")
        os.makedirs(out_dir)
        trace = tracing.installed(tracer) if tracer else contextlib.nullcontext()
        with trace:
            if tracer:
                tracer.op = f"setup-{rep}"
            start = time.perf_counter()
            code = make_inputs(w, seed, out_dir, tracer)
            times.append(time.perf_counter() - start)
        if code != 0:
            error = f"set-up exited {code}"
            break
        hashes = checks.artifact_hashes(out_dir)
        if reference is None:
            reference = hashes
            continue
        shutil.rmtree(out_dir)
        if hashes != reference:
            error = "set-up is not deterministic: inputs differ between repetitions"
            break
    result = {"setup_s": times, "inputs": os.path.join(work, "setup-0"), "error": error}
    if tracer:
        result["per_op"] = tracing.op_metrics(tracer.spans, tracer.counters)
        result["spans"] = tracer.spans
    return result


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when not found."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _pipeline_op(w, inputs, out_dir, tracer):
    argv = ["--json", "pipeline",
            "--features", os.path.join(inputs, FEATURES),
            "--seeds", os.path.join(inputs, SEEDS),
            "--truth", os.path.join(inputs, TRUTH),
            "--nr", str(w.n_r), "--out-dir", out_dir]
    if w.k is not None:
        argv += ["--k", str(w.k)]
    code, stdout = run_cli(argv, tracer)
    summary = None
    if code == 0:
        try:
            steps = json.loads(stdout.splitlines()[-1])
            summary = next(step for step in steps if step["step"] == "select")
        except (ValueError, IndexError, KeyError, StopIteration, TypeError):
            pass
    return code, summary


def _sweep_op(w, inputs, out_dir, _tracer):
    import relab.pipeline as pipeline
    from relab.errors import RelabError

    seeds = os.path.join(inputs, SEEDS)
    propagated = os.path.join(out_dir, "propagated.jsonl")
    reliable = os.path.join(out_dir, checks.RELIABLE_NAME)
    try:
        pipeline.propagate_step(seeds, propagated, graph_path=os.path.join(inputs, GRAPH))
        summary = pipeline.select_step(os.path.join(inputs, WHITENED), propagated, seeds,
                                       reliable, n_r=w.n_r)
        pipeline.evaluate_step(propagated, os.path.join(inputs, TRUTH),
                               os.path.join(out_dir, "report.json"), reliable_path=reliable)
    except RelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code, None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3, None
    return 0, summary


def _noise(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="ascii") as handle:
        report = json.load(handle)
    return {"noise_propagated_pct": report["overall_noise_pct"],
            "noise_reliable_pct": report["reliable"]["overall_noise_pct"]}


def measure(spec):
    w, work, inputs = Workload(**spec["workload"]), spec["work_dir"], spec["inputs"]
    op = _sweep_op if w.kind == "sweep" else _pipeline_op
    tracer = tracing.Tracer() if spec["trace"] else None
    ops, reference, noise = [], None, None

    def run_one(traced):
        nonlocal reference, noise
        index = len(ops)
        out_dir = os.path.join(work, f"op-{index}")
        os.makedirs(out_dir)
        active = tracer if traced else None
        trace = tracing.installed(tracer) if traced else contextlib.nullcontext()
        with trace:
            if traced:
                tracer.op = index
            start = time.perf_counter()
            try:
                code, summary = op(w, inputs, out_dir, active)
            except Exception:  # a crash counts as a failed operation
                traceback.print_exc()
                code, summary = 1, None
            seconds = time.perf_counter() - start
        problems, hashes = checks.check_op(code, out_dir, summary, w.n_classes, reference)
        if not problems and reference is None:
            try:
                reference, noise = hashes, _noise(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"report.json unreadable: {exc!r}")
        if traced:
            tracer.set("fileio.bytes_written", checks.bytes_written(out_dir))
        shutil.rmtree(out_dir)
        ops.append({"index": index, "seconds": seconds, "traced": traced,
                    "warmup": index < WARMUP_OPS, "problems": problems})

    for _ in range(WARMUP_OPS):
        run_one(traced=False)
    start = time.perf_counter()
    timed = 0
    while timed < w.min_ops or time.perf_counter() - start < spec["seconds"]:
        # The traced run alternates untraced and traced operations, so the
        # tracing overhead is measured in the same process.
        run_one(traced=bool(spec["trace"]) and timed % 2 == 1)
        timed += 1
    result = {
        "environment": environment(),
        "ops": ops,
        "noise": noise,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["per_op"] = tracing.op_metrics(tracer.spans, tracer.counters)
        result["spans"] = tracer.spans
    return result


def main(argv):
    role, spec_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = {"setup": setup, "measure": measure}[role](spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 1 if result.get("error") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
