"""The frame and the payload layout of every table in a dataset's
``derived/`` directory.

A table holds what a reader would otherwise derive from the dataset's own
files, so it is only ever a shortcut: a reader that gets no payload from
:func:`read` derives the same result from those files, which stay the only
source of truth.  A table is one file, written whole by :func:`write`::

    magic     names the table and its payload format
    key       a digest of what the payload derives from (:func:`file_key`
              for a table derived from one dataset file)
    sha256    of the payload (32 bytes)
    payload   columns, written by :func:`encode`

A table's magic and key have fixed lengths, so its header is the bytes of
both and the payload's sha256.  :func:`read` returns the payload only when
all three match; a missing, unreadable, stale or damaged table gives None.

The payload's columns are flat, after the columnar idea of the Apache Arrow
format (no Arrow code is used).  Each is its item count (u64), then its
items, all numbers little-endian.  A ``str`` column's items are the code
point where each string ends (i64), then the byte length (u64) and the
bytes of its strings as one UTF-8 text.  The module that owns a table sets
its magic and key, lists its columns, and checks their own rules once
:func:`decode` returns them: :mod:`tcpci.ingest` owns ``exec_records.bin``
and ``commits.bin``, :mod:`tcpci.synth` owns ``sources.bin``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

_DIGEST = hashlib.sha256().digest_size
_COUNT = struct.Struct("<Q")


def pack(magic: bytes, key: bytes, payload: bytes) -> bytes:
    """The table of ``payload``: its frame, then the payload."""
    return magic + key + hashlib.sha256(payload).digest() + payload


def read(path: Path, magic: bytes, key: bytes) -> memoryview | None:
    """The payload of the table at ``path``; None when the file is missing
    or unreadable, or when its magic, key or payload sha256 does not match."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    head = len(magic) + len(key)
    payload = memoryview(data)[head + _DIGEST :]
    if not data.startswith(magic + key) or (
        data[head : head + _DIGEST] != hashlib.sha256(payload).digest()
    ):
        return None
    return payload


def write(path: Path, table: bytes) -> None:
    """Write ``table`` to ``path`` through a temporary file beside it, named
    by the process id, so that a reader finds the old table or the new one
    whole.  A table that cannot be written (``derived/`` a regular file,
    the table a directory, a full disk) only logs a warning that names it."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        try:
            tmp.write_bytes(table)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        log.warning("table %s not written: %s", path, exc)


def file_key(path: Path) -> bytes:
    """The key of a table derived from the file at ``path``: the file's
    size (u64) and sha256."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        return _COUNT.pack(size) + hashlib.file_digest(f, "sha256").digest()


def encode(columns: list) -> bytes:
    """The payload of ``columns``, each a 1-D little-endian array or a list
    of strings.  Raises UnicodeEncodeError on a string UTF-8 cannot encode."""
    arrays = []
    for column in columns:
        if isinstance(column, list):
            arrays += [np.cumsum([len(s) for s in column], dtype="<i8"),
                       np.frombuffer("".join(column).encode(), "u1")]
        else:
            arrays.append(column)
    return b"".join(_COUNT.pack(len(a)) + a.tobytes() for a in arrays)


def decode(payload: memoryview | bytes, kinds: tuple | list) -> list | None:
    """The columns of ``payload``, one of each of ``kinds`` (a dtype, or
    ``str``); None unless the payload holds exactly those columns whole:
    a count past the end, text that is not UTF-8, string ends out of order
    or trailing bytes give None.  A numeric column is a read-only view of
    the payload."""
    columns, at = [], 0
    try:
        for kind in kinds:
            arrays = []
            for dtype in ("<i8", "u1") if kind is str else (kind,):
                (count,) = _COUNT.unpack_from(payload, at)
                arrays.append(np.frombuffer(payload, dtype, count, at + _COUNT.size))
                at += _COUNT.size + arrays[-1].nbytes
            if kind is str:
                ends, text = arrays[0], str(arrays[1], "utf-8")
                # comparisons, not np.diff, which wraps on int64
                if not ((ends[:1] >= 0).all() and (ends[:-1] <= ends[1:]).all()
                        and ends[-1:].sum() == len(text)):
                    return None
                ends = ends.tolist()
                arrays = [[text[lo:hi] for lo, hi in zip([0, *ends], ends)]]
            columns += arrays
    except (ValueError, OverflowError, struct.error):
        return None
    return columns if at == len(payload) else None
