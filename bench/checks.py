"""Output checks applied to every operation the benchmark runs.

An operation fails when its exit code is not 0, when any artifact's
sha256 differs from the first operation of the same run (relab promises
byte-identical artifacts for identical inputs), or when reliable.jsonl's
per-class counts differ from `target_per_class` with no shortfall warning
to explain it.
"""

from __future__ import annotations

import hashlib
import json
import os

RELIABLE_NAME = "reliable.jsonl"


def artifact_hashes(out_dir):
    """sha256 of every file an operation left in its output directory."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            hashes[name] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir))


def reliable_counts(path, n_classes):
    """Per-class record counts of a reliable.jsonl, skipping its summary line."""
    counts = [0] * n_classes
    with open(path, encoding="ascii") as handle:
        for line in handle:
            record = json.loads(line)
            if not record.get("summary"):
                counts[record["class"]] += 1
    return counts


def check_op(exit_code, out_dir, select_summary, n_classes, reference=None):
    """Check one operation; returns (problems, artifact hashes).

    An empty problem list means the operation passed. select_summary is
    the select step's summary dict (it carries target_per_class and
    warnings); reference is the artifact-hash dict of the run's first
    operation, or None when this operation is the first.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    problems = []
    hashes = artifact_hashes(out_dir)
    if reference is not None:
        for name in sorted(set(hashes) | set(reference)):
            if hashes.get(name) != reference.get(name):
                problems.append(f"{name}: sha256 differs from the first operation")
    if select_summary is None:
        problems.append("no select summary")
        return problems, hashes
    target = select_summary["target_per_class"]
    try:
        counts = reliable_counts(os.path.join(out_dir, RELIABLE_NAME), n_classes)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"{RELIABLE_NAME} unreadable: {exc!r}")
        return problems, hashes
    short = [c for c, count in enumerate(counts) if count != target]
    if short and not select_summary["warnings"]:
        problems.append(
            f"{RELIABLE_NAME}: class(es) {short[:10]} differ from target_per_class="
            f"{target} with no shortfall warning"
        )
    return problems, hashes
