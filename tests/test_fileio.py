import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relab.errors import DataError, FormatError
from relab.features import load_features, save_features
from relab.fileio import atomic_write, load_jsonl, load_truth, save_jsonl, save_truth, typed
from relab.graph import build_affinity, load_graph, save_graph


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


def per_line_json(path):
    """The reference reader: json.loads on each stripped bytes line, which
    detects that line's encoding. Returns the records or the error text."""
    records = []
    for lineno, line in enumerate(path.read_bytes().split(b"\n"), start=1):
        line = line.strip()
        if line:
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                return f"{path}:{lineno}: not valid JSON: {exc}"
    return records


def jsonl_or_error(path):
    try:
        return load_jsonl(path)
    except FormatError as exc:
        return str(exc)


def assert_reads_like_per_line_json(path):
    # repr, because a NaN record is not equal to itself
    assert repr(jsonl_or_error(path)) == repr(per_line_json(path))


@pytest.mark.parametrize("blob", [
    b'{"a": 1}\r\n\r\n {"b": [2, 3.5]}\x0b\n\x0c\n',
    b'\xef\xbb\xbf{"a": 1}\n{"b": 2}\n',  # a UTF-8 BOM, which json.loads(str) refuses
    '{"a": 1}'.encode("utf-16-le") + b"\n",  # NUL bytes select UTF-16
    b'{"\xed\xa0\x80": 1}\n',  # a lone surrogate, UTF-8 encoded
    b'{"a": "\xc3\xa9\xe2\x80\xa8"}\n',  # U+2028 is a line break to str.splitlines
    b'{"a": 1}\n{"a" 2}\n',
    b'{"a": 1}\n\xff\n{"a" 2}\n',
    b'{"a": 1}\n{"a" 2}\n\xff\n',
    b"\xc2\xa0{}\n",  # U+00A0 is whitespace to str.strip, not to bytes.strip
    b"NaN\n[Infinity]\n",
])
def test_jsonl_reads_what_per_line_json_loads_reads(tmp_path, blob):
    path = tmp_path / "f.jsonl"
    path.write_bytes(blob)
    assert_reads_like_per_line_json(path)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(
    st.binary(max_size=12),
    st.text(max_size=12).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=2)
    .map(lambda d: json.dumps(d, ensure_ascii=False).encode("utf-8", "surrogatepass")),
), max_size=5))
def test_jsonl_property_matches_per_line_json_loads(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    path.write_bytes(b"\n".join(lines))
    assert_reads_like_per_line_json(path)


@pytest.mark.parametrize("kind, value, accepted", [
    (int, True, False),
    (int, 1.0, False),
    (int, 2**63, False),
    (int, -2**63 - 1, False),
    (int, -2**63, True),
    (int, 2**63 - 1, True),
    (float, float("nan"), False),
    (float, float("inf"), False),
    (float, True, False),
    (float, "0.5", False),
    (float, 10**400, False),
    (float, 1, True),
    (bool, 1, False),
    (str, None, False),
    ([int], [1, True], False),
    ([int], [], True),
])
def test_typed_kind_boundaries(kind, value, accepted):
    if accepted:
        assert typed("f.json", "record", {"v": value}, {"v": kind}) == [value]
    else:
        with pytest.raises(FormatError, match="^f.json: malformed record: "):
            typed("f.json", "record", {"v": value}, {"v": kind})


@pytest.mark.parametrize("record", [[1, "a"], None, "v", {"w": 1}])
def test_typed_rejects_record_that_is_not_an_object_with_every_key(record):
    with pytest.raises(FormatError, match="malformed record"):
        typed("f.json", "record", record, {"v": int})


def test_typed_returns_schema_order_and_truncates_the_record():
    assert typed("f", "r", {"b": "x", "a": 1, "c": None}, {"a": int, "b": str}) == [1, "x"]
    with pytest.raises(FormatError) as info:
        typed("f", "r", {"v": list(range(10_000))}, {"v": [str]})
    assert len(str(info.value)) == len("f: malformed r: ") + 200


BINARY_FORMATS = {
    "features": (save_features, load_features),
    "graph": (lambda path, X: save_graph(path, build_affinity(X)), load_graph),
}
# Bytes written over a valid file: raw bytes, u64 counts or offsets, f64 values.
PATCHES = (st.binary(min_size=1, max_size=8)
           | st.integers(0, 2**64 - 1).map(lambda v: v.to_bytes(8, "little"))
           | st.floats().map(lambda v: struct.pack("<d", v)))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(BINARY_FORMATS)),
       patches=st.lists(st.tuples(st.integers(min_value=0), PATCHES), max_size=4),
       resize=st.just(0) | st.integers(-16, 16))
def test_mutated_binary_file_loads_or_raises_typed_error(kind, patches, resize):
    save, load = BINARY_FORMATS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, kind)
        save(path, np.random.default_rng(0).standard_normal((6, 3)))
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        for position, patch in patches:
            position %= len(blob)
            blob[position:position + len(patch)] = patch[:len(blob) - position]
        blob = blob[:resize] if resize < 0 else blob + bytes(resize)
        with open(path, "wb") as handle:
            handle.write(blob)
        try:
            load(path)
        except (FormatError, DataError):
            pass
