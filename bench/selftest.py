"""Fast self-test of the benchmark itself (about half a minute).

    python3 bench/selftest.py

It checks three things:

1. every workload, shrunk to a tiny size, run untraced and traced, prints
   as its last line a result object in which every metric BENCHMARK.json
   names appears with its unit, and no operation failed;
2. the output checks catch a corrupted artifact, per-class counts that
   miss the target without a warning, and a non-zero exit code;
3. in a directory holding only BENCHMARK.json and the benchmark's files
   (no relab source tree) the benchmark exits non-zero without a result.

Exits 0 when every check passed, 1 otherwise, naming each failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metric_names(config):
    for workload in config["workloads"]:
        for trace, listed in ((0, config["end_to_end"]), (1, config["per_layer"])):
            name = f"{workload['name']} --trace {trace}"
            proc = run_bench(["--workload", workload["name"], "--seed", "0",
                              "--seconds", "1", "--trace", str(trace), "--tiny"])
            expect(proc.returncode == 0, f"{name}: exit 0 (stderr: {proc.stderr[-300:]!r})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{name}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name}: correct, no failed operation")
            for metric in listed:
                got = result["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{name}: {metric['name']} emitted in {metric['unit']}")
            expect(len(result["metrics"]) == len(listed), f"{name}: no unlisted metric")


def check_output_checks():
    work = BENCH / "_work" / f"selftest-{os.getpid()}"
    inputs, out = work / "inputs", work / "op"
    inputs.mkdir(parents=True)
    out.mkdir()
    try:
        w = WORKLOADS["knn-c10"].tiny()
        expect(worker.make_inputs(w, 0, str(inputs)) == 0, "tiny inputs generated")
        code, summary = worker._pipeline_op(w, str(inputs), str(out), None)
        problems, reference = checks.check_op(code, str(out), summary, w.n_classes)
        expect(not problems, f"a clean operation passes ({problems})")

        graph = out / "graph.relg"
        clean = graph.read_bytes()
        graph.write_bytes(clean[:-1] + bytes([clean[-1] ^ 1]))
        problems, _ = checks.check_op(0, str(out), summary, w.n_classes, reference)
        expect(any("graph.relg" in p for p in problems), "a flipped byte is caught by sha256")
        graph.write_bytes(clean)

        wrong = dict(summary, target_per_class=summary["target_per_class"] + 1, warnings=[])
        problems, _ = checks.check_op(0, str(out), wrong, w.n_classes)
        expect(any("target_per_class" in p for p in problems),
               "per-class counts off target without a warning are caught")
        problems, _ = checks.check_op(0, str(out), dict(wrong, warnings=["shortfall"]),
                                      w.n_classes)
        expect(not problems, "a shortfall warning explains counts off target")

        problems, _ = checks.check_op(3, str(out), summary, w.n_classes, reference)
        expect(problems == ["exit code 3"], "a non-zero exit code is caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_source():
    bare = BENCH / "_work" / f"selftest-bare-{os.getpid()}"
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = run_bench(["--workload", "knn-c10", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without a source tree: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_output_checks()
    check_without_source()
    check_metric_names(config)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
