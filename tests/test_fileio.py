import json
import os
import struct
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relab import fileio
from relab.diffusion import SeedLabels, load_propagated, save_propagated
from relab.errors import DataError, FormatError
from relab.features import load_features, save_features
from relab.fileio import (
    atomic_write,
    load_summarized_jsonl,
    load_truth,
    save_summarized_jsonl,
    save_truth,
    typed,
    typed_columns,
)
from relab.graph import build_affinity, load_graph, save_graph
from relab.selection import ReliableSet, load_reliable, save_reliable

from conftest import traced_peak


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
    columns = {"index": np.array([0, 1]), "label": np.array([3, 1]),
               "flag": np.array([False, True]), "origin": np.array(["seed", "x"])}
    save_summarized_jsonl(path, columns, {"summary": True, "n": 2})
    records, summary = load_summarized_jsonl(path)
    assert records == [{"index": 0, "label": 3, "flag": False, "origin": "seed"},
                       {"index": 1, "label": 1, "flag": True, "origin": "x"}]
    assert summary == {"summary": True, "n": 2}


def test_jsonl_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"index": 0}\nnot json\n{"summary": true}\n')
    with pytest.raises(FormatError, match=r"bad.jsonl:2: not valid JSON"):
        load_summarized_jsonl(path)


def load_jsonl(path):
    """Every record of a JSON-lines file through the codec, the trailing
    summary record last."""
    records, summary = load_summarized_jsonl(path)
    return [*records, summary]


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


def reference_summarized(path):
    """per_line_json, then the last record split off as the summary."""
    records = per_line_json(path)
    if isinstance(records, str):
        raise FormatError(records)
    if not records or not isinstance(records[-1], dict) or "summary" not in records[-1]:
        raise FormatError(f"{path}: missing trailing summary record")
    return records[:-1], records[-1]


def outcome(load, path):
    """repr of what load(path) returns or of the error it raises; repr,
    because a NaN record is not equal to itself."""
    try:
        return repr(load(path))
    except (FormatError, DataError) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_reads_like_per_line_json(path):
    assert outcome(load_summarized_jsonl, path) == outcome(reference_summarized, path)


SUMMARY_LINE = b'{"summary": true}\n'


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
    # Lines that do not each hold one value. Joined with commas into one
    # array, the first two would parse to as many values as there are lines.
    b'{"a": 1\n"b": 2}\n{"c": 3}, {"d": 4}\n',
    b'{"a": [{"b": 1}\n{"c": 2}]}\n{"d": 3}, {"e": 4}\n',
    b'{"a": "}\n{", "b": 1}\n{"c": 3}, {"d": 4}\n',
    b'{"a": 1}, {"b": 2}\n',
    b'{"a": 1}\n',  # no trailing summary record when bare
    b"",
])
def test_jsonl_reads_what_per_line_json_loads_reads(tmp_path, blob):
    path = tmp_path / "f.jsonl"
    for summary in (b"", SUMMARY_LINE):
        path.write_bytes(blob + summary)
        assert_reads_like_per_line_json(path)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(
    st.binary(max_size=12),
    st.text(max_size=12).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=2)
    .map(lambda d: json.dumps(d, ensure_ascii=False).encode("utf-8", "surrogatepass")),
    st.sampled_from([b"{", b"}", b"[", b"]", b",", b'{"a": 1', b'"b": 2}', b'{"a": [1',
                     b"2]}", b'{"a": 1}, {"b": 2}', b'{"a": "', b'"}']),
), max_size=5), summary=st.sampled_from([b"", b"\n" + SUMMARY_LINE]))
def test_jsonl_property_matches_per_line_json_loads(tmp_path_factory, lines, summary):
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    path.write_bytes(b"\n".join(lines) + summary)
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
    # The float maximum is an int exactly; the int after it rounds down to
    # a finite float but lies beyond it, so it is refused.
    (float, int(sys.float_info.max), True),
    (float, int(sys.float_info.max) + 1, False),
    (float, -int(sys.float_info.max) - 1, False),
    ([str], ["a", 1], False),
    (list, [], True),
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


# Values around every kind's edges: int64 bounds, ints near the float
# maximum, non-finite floats and JSON types other than numbers.
EDGES = [0, -1, 2**63 - 1, -2**63, 2**63, -2**63 - 1, 2**70, 10**400,
         int(sys.float_info.max), int(sys.float_info.max) + 1, 0.5, -0.0, 5e-324,
         float("nan"), float("inf"), True, False, None, "x", [1], [2**63], ["x"], {}]
EDGE_VALUES = st.sampled_from(EDGES) | st.integers() | st.floats()
EDGE_RECORDS = st.one_of(
    st.fixed_dictionaries({"a": EDGE_VALUES, "b": EDGE_VALUES, "c": EDGE_VALUES},
                          optional={"d": EDGE_VALUES}),
    st.dictionaries(st.sampled_from("abc"), EDGE_VALUES, max_size=3),
    EDGE_VALUES,
)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(EDGE_RECORDS, max_size=6),
       kinds=st.tuples(*[st.sampled_from([int, float, str, bool, [int]])] * 3))
def test_typed_columns_match_typed_per_record(records, kinds):
    schema = dict(zip("abc", kinds))
    rows, fault = [], None
    for record in records:
        try:
            rows.append(typed("f", "r", record, schema))
        except FormatError as exc:
            fault = str(exc)
            break
    columns, found = typed_columns("f", "r", records, schema)
    assert (None if found is None else str(found)) == fault
    for column, kind, values in zip(columns, kinds, zip(*rows) if rows else [()] * 3):
        if kind in (int, float):
            dtype = {int: np.int64, float: np.float64}[kind]
            expected = np.array(list(values), dtype=dtype)  # as the per-record loaders did
            assert column.dtype == dtype and column.tobytes() == expected.tobytes()
        else:
            assert column == list(values)


@pytest.mark.parametrize("kind", [int, float, str, bool, [int], [str]], ids=repr)
def test_typed_columns_match_typed_at_each_edge(kind):
    for value in EDGES:
        try:
            expected = typed("f", "r", {"a": value}, {"a": kind})
        except FormatError:
            expected = None
        (column,), fault = typed_columns("f", "r", [{"a": value}], {"a": kind})
        assert (fault is None) == (expected is not None), value
        assert len(column) == (fault is None), value


def json_dumps_per_record(records):
    """The reference writer: json.dumps of each record, one per line."""
    return "".join(json.dumps(record) + "\n" for record in records).encode("ascii")


INT64S = st.sampled_from([0, 2**63 - 1, -(2**63 - 1), -2**63]) | st.integers(-2**63, 2**63 - 1)
FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1, float("nan"),
                          float("inf"), float("-inf")]) | st.floats()
SHORTFALLS = [[], ["class 1: only 0 candidate(s) for 1 slot(s)"],
              ["class 0: only 2 candidate(s) for 5 slot(s)",
               "class 3: only 0 candidate(s) for 5 slot(s)"]]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(INT64S, FLOATS), max_size=12),
       n_classes=st.integers(1, 2**63 - 1), write_rows=st.integers(1, 5))
def test_save_propagated_bytes_match_json_dumps(tmp_path_factory, rows, n_classes, write_rows):
    path = tmp_path_factory.mktemp("prop") / "propagated.jsonl"
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    scores = np.array([score for _, score in rows], dtype=np.float64)
    with mock.patch.object(fileio, "_WRITE_ROWS", write_rows):
        save_propagated(path, labels, scores, SeedLabels([0], [0], n_classes))
    assert path.read_bytes() == json_dumps_per_record(
        [{"index": i, "label": label, "retrieval_score": score}
         for i, (label, score) in enumerate(rows)]
        + [{"summary": True, "n_classes": n_classes}])


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(INT64S, INT64S, st.booleans(), FLOATS), max_size=12),
       score_kind=st.sampled_from(["avg_loss", "retrieval_score"]),
       counts=st.lists(INT64S, max_size=4), target=INT64S,
       warnings=st.sampled_from(SHORTFALLS), write_rows=st.integers(1, 5))
def test_save_reliable_bytes_match_json_dumps(tmp_path_factory, rows, score_kind, counts,
                                              target, warnings, write_rows):
    path = tmp_path_factory.mktemp("rel") / "reliable.jsonl"
    index, label, is_seed, score = (list(column) for column in zip(*rows)) if rows else [[]] * 4
    rset = ReliableSet(index=np.array(index, dtype=np.int64),
                       label=np.array(label, dtype=np.int64),
                       is_seed=np.array(is_seed, dtype=bool),
                       score=np.array(score, dtype=np.float64),
                       per_class_count=np.array(counts, dtype=np.int64),
                       target_per_class=target, score_kind=score_kind, warnings=warnings)
    with mock.patch.object(fileio, "_WRITE_ROWS", write_rows):
        save_reliable(path, rset)
    assert path.read_bytes() == json_dumps_per_record(
        [{"index": i, "class": c, "origin": "seed" if seed else "bootstrapped", score_kind: v}
         for i, c, seed, v in rows]
        + [{"summary": True, "score_kind": score_kind, "target_per_class": target,
            "per_class_count": counts, "warnings": warnings}])


def reference_load_propagated(path):
    """The per-record propagated reader the column reader replaced."""
    records, summary = reference_summarized(path)
    if not records:
        raise FormatError(f"{path}: no records")
    n = len(records)
    (n_classes,) = typed(path, "summary record", summary, {"n_classes": int})
    if not 1 <= n_classes <= n:
        raise FormatError(f"{path}: n_classes={n_classes} out of range for {n} samples")
    schema = {"index": int, "label": int, "retrieval_score": float}
    labels, retrieval = [], []
    for p, record in enumerate(records):
        i, label, score = typed(path, "propagation record", record, schema)
        if i != p:
            raise FormatError(
                f"{path}: record {p} holds sample index {i}; records must be in index order"
            )
        labels.append(label)
        retrieval.append(score)
    labels = np.array(labels, dtype=np.int64)
    stray = labels[(labels < 0) | (labels >= n_classes)]
    if stray.size:
        raise FormatError(f"{path}: label {stray[0]} out of range for {n_classes} classes")
    return labels, np.array(retrieval, dtype=np.float64), n_classes


def reference_load_reliable(path):
    """The per-record reliable-set reader the column reader replaced."""
    records, summary = reference_summarized(path)
    score_kind, target, counts, warnings = typed(
        path, "summary record", {"score_kind": "avg_loss", "warnings": [], **summary},
        {"score_kind": str, "target_per_class": int, "per_class_count": [int],
         "warnings": [str]})
    if score_kind not in ("avg_loss", "retrieval_score"):
        raise FormatError(f"{path}: unknown score_kind {score_kind!r}")
    schema = {"index": int, "class": int, "origin": str, score_kind: float}
    rows, seen = [], set()
    for record in records:
        index, label, origin, score = typed(path, "entry", record, schema)
        if origin not in ("seed", "bootstrapped"):
            raise FormatError(f"{path}: unknown origin {origin!r}")
        if index in seen:
            raise FormatError(f"{path}: sample index {index} listed twice")
        seen.add(index)
        rows.append((index, label, origin == "seed", score))
    index, label, is_seed, score = zip(*rows) if rows else ((),) * 4
    label = np.array(label, dtype=np.int64)
    counts = np.array(counts, dtype=np.int64)
    stray = label[(label < 0) | (label >= counts.size)]
    if stray.size:
        raise FormatError(f"{path}: entry class {int(stray[0])} out of range for "
                          f"{counts.size} per_class_count value(s)")
    differ = np.flatnonzero(np.bincount(label, minlength=counts.size) != counts)
    if differ.size:
        c = int(differ[0])
        raise FormatError(f"{path}: per_class_count[{c}]={counts[c]}, but the entries "
                          f"hold {np.count_nonzero(label == c)} of class {c}")
    over = np.flatnonzero(counts > target)
    if over.size:
        c = int(over[0])
        raise FormatError(f"{path}: per_class_count[{c}]={counts[c]} exceeds "
                          f"target_per_class={target}")
    return ReliableSet(index=np.array(index, dtype=np.int64), label=label,
                       is_seed=np.array(is_seed, dtype=bool),
                       score=np.array(score, dtype=np.float64), per_class_count=counts,
                       target_per_class=target, score_kind=score_kind, warnings=warnings)


def propagated_lines():
    records = [{"index": i, "label": i % 3, "retrieval_score": 0.25 * i} for i in range(6)]
    return [json.dumps(r) for r in records] + [json.dumps({"summary": True, "n_classes": 3})]


def reliable_lines():
    records = [{"index": i, "class": c, "origin": o, "avg_loss": 0.5 + i}
               for i, c, o in [(4, 0, "seed"), (9, 0, "bootstrapped"), (1, 1, "seed"),
                               (7, 1, "bootstrapped"), (3, 2, "seed")]]
    return [json.dumps(r) for r in records] + [json.dumps(
        {"summary": True, "score_kind": "avg_loss", "target_per_class": 2,
         "per_class_count": [2, 2, 1], "warnings": ["class 2: only 0 candidate(s) for 1 slot(s)"]})]


LABEL_FILES = {
    "propagated": (propagated_lines, load_propagated, reference_load_propagated),
    "reliable": (reliable_lines, load_reliable, reference_load_reliable),
}


def set_field(position, key, text):
    """An edit setting record position's key to the JSON text given; a line
    that holds no JSON object is left as it is."""
    def edit(lines):
        try:
            record = json.loads(lines[position])
        except ValueError:
            return
        if not isinstance(record, dict):
            return
        record[key] = "\0"
        lines[position] = json.dumps(record).replace('"\\u0000"', text)
    return edit


def swap(a, b):
    def edit(lines):
        lines[a], lines[b] = lines[b], lines[a]
    return edit


def encode(lines, newline=b"\n", end=b"\n", codec="utf-8", prefix=b""):
    return prefix + newline.join(line.encode(codec) for line in lines) + end


# Layouts both readers accept: (name, lines -> file bytes).
LAYOUTS = [
    ("plain", encode),
    ("crlf", lambda lines: encode(lines, newline=b"\r\n", end=b"\r\n")),
    ("blank-lines", lambda lines: encode(["", " \t"] + lines[:2] + ["\x0c", ""] + lines[2:])),
    ("no-trailing-newline", lambda lines: encode(lines, end=b"")),
    ("utf8-bom", lambda lines: encode(lines, prefix=b"\xef\xbb\xbf")),
    ("utf16", lambda lines: encode(lines, codec="utf-16-le")),
    ("is_seed", lambda lines: encode(
        [line.replace("}", ', "is_seed": false}') if '"summary"' not in line else line
         for line in lines])),
]


@pytest.mark.parametrize("kind", sorted(LABEL_FILES))
@pytest.mark.parametrize("layout", [layout for _, layout in LAYOUTS],
                         ids=[name for name, _ in LAYOUTS])
def test_label_file_layouts_load_as_before(tmp_path, kind, layout):
    lines, load, reference = LABEL_FILES[kind]
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(layout(lines()))
    assert outcome(load, path) == outcome(reference, path)
    assert not outcome(load, path).startswith("FormatError")


# Faults: (file kind, edit of its lines, text the error must hold).
FAULTS = [
    ("propagated", lambda lines: lines.__setitem__(2, '{"index": 2,'),
     "propagated.jsonl:3: not valid JSON"),
    ("propagated", set_field(3, "label", '"1"'), "malformed propagation record: {'index': 3"),
    ("propagated", set_field(1, "retrieval_score", "NaN"), "malformed propagation record"),
    ("propagated", set_field(1, "retrieval_score", "Infinity"), "malformed propagation record"),
    ("propagated", set_field(1, "retrieval_score", "1" + "0" * 400),
     "malformed propagation record"),
    ("propagated", set_field(4, "label", str(2**70)), "malformed propagation record"),
    ("propagated", swap(1, 2), "record 1 holds sample index 2"),
    ("propagated", lambda lines: (swap(1, 2)(lines), set_field(4, "label", "true")(lines)),
     "record 1 holds sample index 2"),
    ("propagated", lambda lines: (set_field(1, "label", "true")(lines), swap(3, 4)(lines)),
     "malformed propagation record: {'index': 1"),
    ("reliable", lambda lines: lines.__setitem__(4, "{"), "reliable.jsonl:5: not valid JSON"),
    ("reliable", set_field(2, "class", "1.0"), "malformed entry: {'index': 1"),
    ("reliable", set_field(0, "avg_loss", "-Infinity"), "malformed entry"),
    ("reliable", set_field(0, "avg_loss", "-1" + "0" * 400), "malformed entry"),
    ("reliable", set_field(3, "index", str(-2**70)), "malformed entry"),
    ("reliable", set_field(2, "origin", '"bogus"'), "unknown origin 'bogus'"),
    # Entries 2 and 4 repeat entries 1 and 0: entry 2's index is named.
    ("reliable", lambda lines: (set_field(4, "index", "4")(lines),
                                set_field(2, "index", "9")(lines)),
     "sample index 9 listed twice"),
    ("reliable", lambda lines: (set_field(3, "index", "4")(lines),
                                set_field(3, "origin", '"x"')(lines)), "unknown origin 'x'"),
    ("reliable", lambda lines: (set_field(1, "index", "4")(lines),
                                set_field(3, "origin", '"x"')(lines)),
     "sample index 4 listed twice"),
]


@pytest.mark.parametrize("kind, edit, message", FAULTS)
def test_label_file_faults_raise_as_before(tmp_path, kind, edit, message):
    make, load, reference = LABEL_FILES[kind]
    lines = make()
    edit(lines)
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(encode(lines))
    found = outcome(load, path)
    assert found == outcome(reference, path)
    assert found.startswith("FormatError: ") and message in found, found


# Field values written into a record: JSON texts of every kind and edge.
FIELD_TEXTS = st.sampled_from(["0", "1", "2", "4", "9", "-1", str(2**63 - 1), str(2**63),
                               str(2**70), "1" + "0" * 400, "0.5", "1.0", "-0.0", "NaN",
                               "Infinity", "true", "null", '"1"', '"seed"',
                               '"bootstrapped"', "[1]", "{}"])
LINE_EDITS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 6),
              st.sampled_from(["index", "label", "class", "origin", "retrieval_score",
                               "avg_loss", "n_classes", "per_class_count", "summary"]),
              FIELD_TEXTS),
    st.tuples(st.just("swap"), st.integers(0, 6), st.integers(0, 6), st.none()),
    st.tuples(st.just("copy"), st.integers(0, 6), st.integers(0, 6), st.none()),
    st.tuples(st.just("text"), st.integers(0, 6),
              st.sampled_from(["", "{", "[1]", "{}, {}", "null"]), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(LABEL_FILES)), edits=st.lists(LINE_EDITS, max_size=3),
       layout=st.sampled_from([layout for _, layout in LAYOUTS]))
def test_edited_label_file_loads_as_before(tmp_path_factory, kind, edits, layout):
    make, load, reference = LABEL_FILES[kind]
    lines = make()
    for action, a, b, text in edits:
        a %= len(lines)
        if action == "set":
            set_field(a, b, text)(lines)
        elif action == "swap":
            swap(a, b % len(lines))(lines)
        elif action == "copy":
            lines.insert(b % len(lines), lines[a])
        else:
            lines[a] = b
    path = tmp_path_factory.mktemp(kind) / f"{kind}.jsonl"
    path.write_bytes(layout(lines))
    assert outcome(load, path) == outcome(reference, path)


class TestLabelFileMemory:
    def test_propagated_traced_peak(self, tmp_path):
        # At 10k records the per-record writer traced 0.39 MiB (the whole
        # columns as Python lists) and the per-line reader 6.45 MiB (three
        # key strings per record, and the lists typed() filled). The codec
        # writes 512-row chunks, 0.22 MiB, and parses one array whose
        # records share their key strings, 3.63 MiB.
        rng = np.random.default_rng(0)
        labels, scores = rng.integers(0, 100, 10_000), rng.random(10_000)
        path = tmp_path / "propagated.jsonl"
        _, peak = traced_peak(lambda: save_propagated(path, labels, scores,
                                                      SeedLabels([0], [0], 100)))
        assert peak < 0.3 * 2**20, f"save traced peak {peak / 2**20:.2f} MiB"
        (loaded, _, _), peak = traced_peak(lambda: load_propagated(path))
        assert np.array_equal(loaded, labels)
        assert peak < 5 * 2**20, f"load traced peak {peak / 2**20:.2f} MiB"


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
