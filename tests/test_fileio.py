import os

import numpy as np
import pytest

from relab.errors import FormatError
from relab.fileio import atomic_write, load_jsonl, load_truth, save_jsonl, save_truth


def test_atomic_write_creates_file(tmp_path):
    target = tmp_path / "out.bin"
    with atomic_write(target) as handle:
        handle.write(b"payload")
    assert target.read_bytes() == b"payload"


def test_atomic_write_failure_leaves_nothing(tmp_path):
    target = tmp_path / "out.bin"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write(b"partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_replaces_existing_only_on_success(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write(b"new")
            raise RuntimeError("boom")
    assert target.read_bytes() == b"old"
    with atomic_write(target) as handle:
        handle.write(b"new")
    assert target.read_bytes() == b"new"


def test_atomic_write_respects_umask(tmp_path):
    target = tmp_path / "out.bin"
    with atomic_write(target) as handle:
        handle.write(b"x")
    umask = os.umask(0)
    os.umask(umask)
    assert (target.stat().st_mode & 0o777) == (0o666 & ~umask)


def test_truth_round_trip(tmp_path):
    path = tmp_path / "truth.json"
    labels = np.array([0, 2, 1, 1, 0], dtype=np.int64)
    save_truth(path, labels)
    loaded = load_truth(path)
    assert np.array_equal(loaded, labels)
    assert loaded.dtype == np.int64


def test_truth_rejects_non_array(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text('{"labels": [1, 2]}')
    with pytest.raises(FormatError):
        load_truth(path)


def test_truth_rejects_non_integers(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text("[0, 1, 2.5]")
    with pytest.raises(FormatError):
        load_truth(path)


def test_truth_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_truth(tmp_path / "nope.json")


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [{"index": 0, "label": 3}, {"index": 1, "label": 1, "flag": True}]
    save_jsonl(path, records)
    assert load_jsonl(path) == records


def test_jsonl_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"index": 0}\nnot json\n')
    with pytest.raises(FormatError):
        load_jsonl(path)


@pytest.mark.parametrize("load, blob", [
    (load_truth, b"[0, \xff]"),
    (load_jsonl, b'{"index": 0}\n\xff\n'),
])
def test_json_readers_reject_bytes_that_are_not_utf8(tmp_path, load, blob):
    path = tmp_path / "bad.json"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="not valid JSON"):
        load(path)
