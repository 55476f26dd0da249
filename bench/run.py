"""Run one benchmark workload against the relab source tree and print its metrics.

    python3 bench/run.py --workload knn-c10 --seed 0 --seconds 12 --trace 0

Set-up runs in its own process and generates the inputs from --seed; the
measured process then runs one untimed warm-up operation and timed
operations in a closed loop (one client) for --seconds, and at least the
workload's minimum count. Every operation's outputs are checked (see
checks.py). Each metric is printed by name with its unit, followed by the
environment and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a run that alternates
traced and untraced operations. The full result (every operation, the
environment and, when traced, every span) is also written to
bench/_out/<workload>-seed<seed>-trace<0|1>.json. Exit status is 0 when
a result was printed, 1 when the run could not complete, and 2 on bad
arguments or when there is no relab source tree to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import tracing
from workloads import WARMUP_OPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170  # every run must end within 180 s


def tail(times):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, label). With fewer than eleven samples no percentile
    qualifies, and the maximum is reported instead, labelled as such.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} ops (fewer than 11 samples)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} ops, 10 beyond it"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def run_worker(role, spec, work, deadline):
    spec = dict(spec, result=str(work / f"{role}.json"))
    spec_path = work / f"{role}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # The worker's own stdout goes to our stderr: the last line of our
    # stdout belongs to the result.
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), role, str(spec_path)],
                          env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8")) \
        if Path(spec["result"]).exists() else {}
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}: {result.get('error')}")
    return result


def end_to_end(w, setup, measure):
    times = [op["seconds"] for op in measure["ops"] if not op["warmup"]]
    tail_s, tail_label = tail(times)
    median = statistics.median(times)
    return {
        "samples_per_s": (w.n / median, f"N={w.n} / median op {median:.3f} s"),
        "op_s.tail": (tail_s, tail_label),
        "peak_rss_mb": (measure["peak_rss_mb"], "peak RSS of the measured process"),
        "setup_s": (statistics.median(setup["setup_s"]),
                    f"median of {len(setup['setup_s'])} set-ups"),
    }


def per_layer(names, setup, measure):
    """Per-layer metrics: medians over the traced operations.

    A metric no measured operation produces (on sweep-c100 the whitening,
    the graph build and the CLI layer run only in set-up) comes from the
    traced set-up repetitions instead.
    """
    timed = [op for op in measure["ops"] if not op["warmup"]]
    traced = [str(op["index"]) for op in timed if op["traced"]]
    values = tracing.median_metrics(measure["per_op"], traced)
    fallback = tracing.median_metrics(setup["per_op"], list(setup["per_op"]))
    plain = statistics.median(op["seconds"] for op in timed if not op["traced"])
    with_trace = statistics.median(op["seconds"] for op in timed if op["traced"])
    values["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0)
    values.update(measure["noise"] or {})
    out = {}
    for name in names:
        if name in values:
            out[name] = (values[name], "")
        elif name in fallback:
            out[name] = (fallback[name], "from the traced set-up")
        else:
            out[name] = (0.0, "not observed")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload so a run takes seconds (self-test)")
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "relab" / "__init__.py").is_file():
        print(f"error: no relab source tree at {ROOT / 'src' / 'relab'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()

    work = BENCH / "_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    spec = {"workload": asdict(w), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "work_dir": str(work)}
    try:
        setup = run_worker("setup", spec, work, deadline)
        measure = run_worker("measure", dict(spec, inputs=setup["inputs"]), work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        listed = config["per_layer"]
        values = per_layer([m["name"] for m in listed], setup, measure)
    else:
        listed = config["end_to_end"]
        values = end_to_end(w, setup, measure)
    units = {m["name"]: m["unit"] for m in listed}
    failed_ops = [op for op in measure["ops"] if op["problems"]]
    attempted, failed = len(measure["ops"]), len(failed_ops)
    timed = len(measure["ops"]) - WARMUP_OPS
    environment = dict(measure["environment"], git_commit=git_commit(),
                       workload_seed=args.seed)

    print(f"workload {w.name}: N={w.n}, C={w.n_classes}, k={w.k}, n_r={w.n_r}; "
          f"closed loop, 1 client; {timed} timed ops after {WARMUP_OPS} warm-up; "
          f"trace={args.trace}")
    for name, (value, note) in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:8s} {note}")
    if not args.trace and measure["noise"]:
        for name, value in measure["noise"].items():
            print(f"  {name:28s} {value:14.6g} {'%':8s} overall_noise_pct of report.json")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} {'1':8s} "
          f"{failed} failed of {attempted} attempted (warm-up included)")
    for op in failed_ops:
        print(f"  op {op['index']} failed: {'; '.join(op['problems'])}")
    print("environment: " + json.dumps(environment, sort_keys=True))

    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": asdict(w), "environment": environment, "setup": setup,
              "measure": measure, "metrics": {k: v for k, (v, _) in values.items()}}
    size = "-tiny" if args.tiny else ""
    (out_dir / f"{w.name}{size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
