"""Atomic file writing and the small JSON-based interchange formats.

Binary formats (feature and graph files) live next to the code that owns
them in :mod:`relab.features` and :mod:`relab.graph`; this module holds the
write-temp-then-rename primitive and the header reader they all share, plus
readers/writers for JSON documents and JSON-lines record streams.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

# Header of both binary formats: magic, version and two counts (N and D for
# features, n and nnz for graphs), little-endian.
HEADER = struct.Struct("<4sIQQ")


@contextmanager
def atomic_write(path, mode="wb"):
    """Open a temporary file and rename it onto `path` on success.

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
        with os.fdopen(fd, mode) as handle:
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


def _fits(value, kind):
    if type(kind) is list:
        return type(value) is list and all(_fits(v, kind[0]) for v in value)
    if kind is int:
        return type(value) is int and -2**63 <= value < 2**63
    if kind is float:  # false for nan, inf and an int too large for a float, like 10**400
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def typed(path, what, record, schema):
    """Return the record's values under the schema's keys, in schema order.

    schema maps each key to its kind: int (an int64 integer, not a bool),
    float (a finite number, not a bool), bool, str, list, or [kind] (a
    list of that kind). Raises FormatError when the record is not an
    object, lacks a key or holds a value of another kind.
    """
    if isinstance(record, dict) and all(key in record for key in schema):
        values = [record[key] for key in schema]
        if all(map(_fits, values, schema.values())):
            return values
    raise FormatError(f"{path}: malformed {what}: {record!r:.200}")


def save_truth(path, labels):
    """Write ground-truth class indices as a JSON array."""
    save_json(path, [int(c) for c in labels], indent=None, sort_keys=False)


def load_truth(path):
    """Read a JSON array of class indices into an int array."""
    (data,) = typed(path, "truth file", {"labels": load_json(path)}, {"labels": [int]})
    if any(c < 0 for c in data):
        raise FormatError(f"{path}: truth file contains negative class indices")
    return np.asarray(data, dtype=np.int64)


def save_jsonl(path, records):
    """Write an iterable of dict records as one JSON object per line."""
    with atomic_write(path) as handle:
        for record in records:
            handle.write(json.dumps(record).encode("ascii"))
            handle.write(b"\n")


# What bytes.strip() removes: ASCII whitespace only.
_ASCII_SPACE = " \t\n\r\x0b\x0c"
_DECODER = json.JSONDecoder()


def load_jsonl(path):
    """Read a JSON-lines file into a list of dicts."""
    with _open_for_read(path) as handle:
        raw = handle.read()
    # json.loads(bytes) picks each line's encoding: a BOM or NUL bytes select
    # UTF-8-sig, UTF-16 or UTF-32, anything else UTF-8. A file without those
    # that decodes as UTF-8 gives the same text, which one decoder parses
    # faster; any other file goes through json.loads(bytes) line by line.
    try:
        text = None if b"\x00" in raw or b"\xef\xbb\xbf" in raw else raw.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None:
        lines, space, parse = raw.split(b"\n"), None, json.loads
    else:
        lines, space, parse = text.split("\n"), _ASCII_SPACE, _DECODER.decode
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip(space)
        if not line:
            continue
        try:
            records.append(parse(line))
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return records


def load_summarized_jsonl(path):
    """Read a JSON-lines file whose last record is its summary, a dict with
    a "summary" key; returns (the records before it, the summary)."""
    records = load_jsonl(path)
    if not records or not isinstance(records[-1], dict) or "summary" not in records[-1]:
        raise FormatError(f"{path}: missing trailing summary record")
    return records[:-1], records[-1]


def save_json(path, obj, indent=2, sort_keys=True):
    """Write a single JSON document and a newline (pretty-printed, sorted keys by default)."""
    payload = json.dumps(obj, indent=indent, sort_keys=sort_keys).encode("ascii")
    with atomic_write(path) as handle:
        handle.write(payload)
        handle.write(b"\n")
