"""Atomic file writing and the small JSON-based interchange formats.

Binary formats (feature and graph files) live next to the code that owns
them in :mod:`relab.features` and :mod:`relab.graph`; this module holds the
write-temp-then-rename primitive and the header reader they all share, plus
readers/writers for JSON documents and for summarized JSON-lines files,
which are written and checked a column at a time.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
from contextlib import contextmanager
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import FormatError

# Header of both binary formats: magic, version and two counts (N and D for
# features, n and nnz for graphs), little-endian.
HEADER = struct.Struct("<4sIQQ")


@contextmanager
def atomic_write(path):
    """Open a temporary binary file and rename it onto `path` on success.

    Interrupted or failing writers leave no partial artifact behind: the
    temp file lives in the destination directory (so the final rename is
    atomic on POSIX) and is removed if the body raises.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates 0600; give the artifact ordinary umask permissions.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _open_for_read(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


@contextmanager
def open_binary(path, magic, version):
    """Open a binary file and check its header's magic and version.

    Yields (handle, count_a, count_b, payload_size): the handle stands at
    the payload, which is payload_size bytes long, after the header's two
    counts. read_array reads the payload in pieces, so the file's bytes
    are never held whole.
    """
    with _open_for_read(path) as handle:
        header = handle.read(HEADER.size)
        if len(header) < HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(header)} bytes)")
        found, found_version, count_a, count_b = HEADER.unpack(header)
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
        if found_version != version:
            raise FormatError(f"{path}: unsupported version {found_version}")
        yield handle, count_a, count_b, os.fstat(handle.fileno()).st_size - HEADER.size


def read_array(handle, path, dtype, count):
    """The next count values of dtype from handle, in a new array."""
    out = np.empty(count, dtype=dtype)
    if handle.readinto(out) != out.nbytes:
        raise FormatError(f"{path}: payload ends early")
    return out


def load_json(path):
    """Read a single JSON document."""
    with _open_for_read(path) as handle:
        raw = handle.read()
    try:
        return json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _column(values, kind):
    """The list values as one column of kind, or None unless each value fits it.

    int gives an int64 array and float a float64 array; any other kind
    gives the list itself. These are the kind rules of typed(), which
    checks each value as a one-element column.
    """
    if type(kind) is list:
        fits = all(type(value) is list and _column(value, kind[0]) is not None
                   for value in values)
        return values if fits else None
    types = set(map(type, values))
    if not types <= ({int, float} if kind is float else {kind}):
        return None
    if kind is int:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:  # outside int64
            return None
    if kind is float:
        # An int converts to the nearest float, so each int is range-checked
        # as it stands (10**400 and the ints just above the float maximum
        # are refused); floats are checked once converted.
        if int in types and not all(abs(value) <= sys.float_info.max
                                    for value in values if type(value) is int):
            return None
        column = np.array(values, dtype=np.float64)
        return column if np.isfinite(column).all() else None
    return values


def _malformed(path, what, record):
    return FormatError(f"{path}: malformed {what}: {record!r:.200}")


def typed(path, what, record, schema):
    """Return the record's values under the schema's keys, in schema order.

    schema maps each key to its kind: int (an int64 integer, not a bool),
    float (a finite number, not a bool), bool, str, list, or [kind] (a
    list of that kind). Raises FormatError when the record is not an
    object, lacks a key or holds a value of another kind.
    """
    if isinstance(record, dict) and all(key in record for key in schema):
        values = [record[key] for key in schema]
        if all(_column([value], kind) is not None
               for value, kind in zip(values, schema.values())):
            return values
    raise _malformed(path, what, record)


def typed_columns(path, what, records, schema):
    """Check a list of records column by column, as typed() checks one.

    Returns (columns, fault). columns holds one column per schema key, in
    schema order (int64 or float64 arrays, or lists; see _column),
    over the longest prefix of records that typed() accepts. fault is the
    FormatError typed() raises for the record after that prefix, or None.
    A caller with checks of its own per record makes them on the prefix
    before raising fault, so the error names the first offending record.
    """
    try:
        columns = [_column(list(map(itemgetter(key), records)), kind)
                   for key, kind in schema.items()]
    except (KeyError, TypeError):  # a record that is not an object or lacks a key
        columns = [None]
    if all(column is not None for column in columns):
        return columns, None
    for p, record in enumerate(records):
        try:
            typed(path, what, record, schema)
        except FormatError as fault:
            return typed_columns(path, what, records[:p], schema)[0], fault
    raise AssertionError(f"{path}: the column check refused {what}s that typed() accepts")


def save_truth(path, labels):
    """Write ground-truth class indices as a JSON array."""
    save_json(path, [int(c) for c in labels], indent=None, sort_keys=False)


def load_truth(path):
    """Read a JSON array of class indices into an int array."""
    data = load_json(path)
    labels = _column(data, int) if type(data) is list else None
    if labels is None:
        raise _malformed(path, "truth file", {"labels": data})
    if labels.size and labels.min() < 0:
        raise FormatError(f"{path}: truth file contains negative class indices")
    return labels


# Rows rendered and written at a time: the file is never held whole.
_WRITE_ROWS = 512


def _json_texts(column):
    """The values of a 1-D array, each as an object whose str() is its JSON text."""
    values = column.tolist()
    if column.dtype.kind in "iu":
        return values  # str() of an int is json.dumps's text
    if column.dtype.kind == "f":
        # So is str() of a finite float; NaN and the infinities are spelled out.
        for p in np.flatnonzero(~np.isfinite(column)).tolist():
            values[p] = json.dumps(values[p])
        return values
    text = {value: json.dumps(value) for value in set(values)}  # str or bool: few values
    return list(map(text.__getitem__, values))


def save_summarized_jsonl(path, columns, summary):
    """Write one JSON object per row of columns, then the summary record.

    columns maps each key, in record key order, to a 1-D column (ints,
    floats, str or bool); rows stop at the shortest. Each line is
    byte-identical to json.dumps of its record: lines come from one
    %-template with the keys' JSON texts, filled _WRITE_ROWS rows at a
    time.
    """
    columns = {key: np.asarray(column) for key, column in columns.items()}
    template = "{%s}\n" % ", ".join(json.dumps(key).replace("%", "%%") + ": %s"
                                    for key in columns)
    n = min((column.shape[0] for column in columns.values()), default=0)
    with atomic_write(path) as handle:
        for start in range(0, n, _WRITE_ROWS):
            texts = [_json_texts(column[start:start + _WRITE_ROWS])
                     for column in columns.values()]
            handle.write("".join(map(template.__mod__, zip(*texts))).encode("ascii"))
        handle.write(json.dumps(summary).encode("ascii"))
        handle.write(b"\n")


# What bytes.strip() removes: ASCII whitespace only.
_ASCII_SPACE = " \t\n\r\x0b\x0c"
_DECODER = json.JSONDecoder()


def _parse_lines(path, raw):
    """json.loads of each non-blank stripped line of the bytes raw; raises
    FormatError naming the first line that does not parse."""
    records = []
    for lineno, line in enumerate(raw.split(b"\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return records


def _parse_joined(text):
    """The records of text's non-blank stripped lines, parsed as one JSON
    array, or None when that parse might differ from parsing each line.

    The lines are joined with a newline and a comma. A raw newline cannot
    sit inside a JSON string, so each joint holds a comma between values.
    A comma followed by "{" cannot separate object members, and with no "["
    before the last line the only array open is the outer one. So each
    joint separates two top-level values, and as many values as lines
    means one value per line.
    """
    lines = list(filter(None, map(str.strip, text.split("\n"), repeat(_ASCII_SPACE))))
    if not lines:
        return []
    joined = "[" + "\n,".join(lines) + "]"
    last, joints = len(joined) - 1 - len(lines[-1]), len(lines) - 1
    del lines
    if joined.count("\n,{") != joints or joined.find("[", 1, last) != -1:
        return None
    try:
        records = _DECODER.decode(joined)
    except ValueError:
        return None
    return records if len(records) == joints + 1 else None


def load_summarized_jsonl(path):
    """Read a JSON-lines file whose last record is its summary, a dict with
    a "summary" key; returns (the records before it, the summary).

    Blank lines are skipped; a line that does not parse raises FormatError
    naming its line number.
    """
    with _open_for_read(path) as handle:
        raw = handle.read()
    # json.loads(bytes) picks each line's encoding: a BOM or NUL bytes select
    # UTF-8-sig, UTF-16 or UTF-32, anything else UTF-8. A file without those
    # that decodes as UTF-8 gives the same text, which is parsed as one JSON
    # array when that is safe (_parse_joined). Any other file, and any text
    # that parse declines, goes through json.loads(bytes) line by line.
    try:
        text = None if b"\x00" in raw or b"\xef\xbb\xbf" in raw else raw.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None:
        records = _parse_lines(path, raw)
    else:
        del raw
        records = _parse_joined(text)
        if records is None:  # text was decoded strictly, so this encodes the file's bytes
            records = _parse_lines(path, text.encode("utf-8"))
    if not records or not isinstance(records[-1], dict) or "summary" not in records[-1]:
        raise FormatError(f"{path}: missing trailing summary record")
    summary = records.pop()
    return records, summary


def save_json(path, obj, indent=2, sort_keys=True):
    """Write a single JSON document and a newline (pretty-printed, sorted keys by default)."""
    payload = json.dumps(obj, indent=indent, sort_keys=sort_keys).encode("ascii")
    with atomic_write(path) as handle:
        handle.write(payload)
        handle.write(b"\n")
