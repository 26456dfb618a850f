"""The frame of every table in a dataset's ``derived/`` directory.

A table holds what a reader would otherwise derive from the dataset's own
files, so it is only ever a shortcut: a reader that gets no payload from
:func:`read` derives the same result from those files, which stay the only
source of truth.  A table is one file, written whole by :func:`write`::

    magic     names the table and its payload format
    key       a digest of what the payload derives from
    sha256    of the payload (32 bytes)
    payload

A table's magic and key have fixed lengths, so its header is the bytes of
both and the payload's sha256.  :func:`read` returns the payload only when
all three match; a missing, unreadable, stale or damaged table gives None.
The module that owns a table sets its magic and key, codes its payload,
and checks the payload's own rules once :func:`read` returns it:

* :mod:`tcpci.ingest` owns ``exec_records.bin`` and ``commits.bin``;
* :mod:`tcpci.synth` owns ``sources.bin``.
"""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path

log = logging.getLogger(__name__)

_DIGEST = hashlib.sha256().digest_size


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
