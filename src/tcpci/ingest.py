"""Dataset loading: build/execution CSVs, commit history, git mining.

A dataset lives in one directory::

    root/
      builds.csv        build_id,timestamp_iso8601,commits   (commits ;-joined 40-hex)
      exec_records.csv  build_id,job_id,test_path,verdict,duration_ms
      commits.jsonl     one commit object per line (alternative to a live repo)
      src/              optional source snapshot used for static analysis
      derived/          tables derived from the files above (see below)

Build ids lie in [1, 2**63 - 1] (:data:`~tcpci.model.MAX_BUILD_ID`).
Verdict codes: 0=pass, 1=assertion failure, 2=exception failure, 3=unknown
failure.  All files UTF-8 with LF line endings.  Each CSV is read in one
pass over :func:`_csv_rows`, and each record's rules are checked as it is
read, so an error names the path and line of the first bad record.

``commits.jsonl`` objects carry ``hash, timestamp, author, message, files``
where each file entry has ``path, added, deleted, added_chunks,
deleted_chunks`` and optionally ``unit_risks`` (written by
:func:`write_dataset` when risk data is available, so that a round trip is
lossless).

``derived/`` holds two tables, each safe to delete.  A missing, stale or
damaged table, or an odd ``derived/`` (a regular file, or a table that is
a directory), never makes a reader fail or change its result:

* ``exec_records.bin``, written by :func:`write_dataset`, holds the columns
  :func:`ingest_exec_records` reads from ``exec_records.csv``, with the
  size and sha256 of the CSV it was written with.  It is read only when
  those and its own digest match, so a bad table costs the CSV parse and
  nothing else; the CSV stays the only source of truth.
* ``sources.bin``, written by :func:`tcpci.synth.load_sources` (never by
  :func:`write_dataset`), holds one row per distinct text of ``src/``,
  keyed by the sha256 of the file's bytes: its imports, type names and
  complexity metrics (:func:`tcpci.code_analysis.source_row`).  It is
  read whole only when its digest of the analysis rules and its own
  digest match; a text it lacks costs that text's analysis.

:func:`ingest_git_history` mines the same records from a live repository
with one ``git diff-tree`` process for all commits.  A merge is diffed
against its first parent, and a rename is recorded as a delete plus an
add.  A file's line counts and chunk starts come from the ``@@`` hunk
headers of its ``-U0`` diff, never from the content lines.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import operator
import re
import struct
import subprocess
from collections import Counter
from contextlib import closing
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, get_type_hints

import numpy as np

from .code_analysis import assess_chunk_risks
from .errors import (
    DuplicateRecordError,
    RepoNotFoundError,
    SchemaError,
    UnresolvableRefError,
)
from .model import (
    MAX_BUILD_ID,
    Build,
    BuildHistory,
    Commit,
    FileChange,
    UnitRisk,
    Verdict,
)

log = logging.getLogger(__name__)

_HASH_RE = re.compile(r"[0-9a-f]{40}")  # used with fullmatch: "$" would pass a final LF
_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@", re.M)
# The line that starts a file's diff, and the id line diff-tree prints
# before a commit's diff.  A content line starts with "+", "-", " " or a
# backslash, so it can be neither.
_FILE_RE = re.compile(r"^diff --git ", re.M)
_COMMIT_LINE_RE = re.compile(r"^([0-9a-f]{40}(?:[0-9a-f]{24})?)\n", re.M)


@dataclass(frozen=True)
class DatasetLayout:
    """Location of a dataset on disk, plus an optional live repository."""

    root: Path
    repo: Path | None = None

    @property
    def builds_csv(self) -> Path:
        return self.root / "builds.csv"

    @property
    def exec_records_csv(self) -> Path:
        return self.root / "exec_records.csv"

    @property
    def commits_jsonl(self) -> Path:
        return self.root / "commits.jsonl"

    @property
    def exec_table(self) -> Path:
        return self.root / "derived" / "exec_records.bin"

    @property
    def source_table(self) -> Path:
        return self.root / "derived" / "sources.bin"

    @property
    def src_dir(self) -> Path | None:
        """Source snapshot for static analysis: ``root/src``, if it is a directory."""
        src = self.root / "src"
        return src if src.is_dir() else None


def select_primary_job(jobs: dict[str, int]) -> str:
    """Pick the job with the most distinct tests; ties go to the smallest id.

    ``jobs`` maps each job id of a build to its number of distinct tests.
    """
    return min(jobs, key=lambda j: (-jobs[j], j))


def _parse_timestamp(value: str, where: str) -> datetime:
    try:
        ts = datetime.fromisoformat(value)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad timestamp {value!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def _lines(path: Path, newline: str | None):
    """The lines of a dataset file, as ``open`` reads them with this
    ``newline``.  Raises SchemaError naming the line of the first byte that
    is not UTF-8."""
    with open(path, encoding="utf-8", newline=newline) as f:
        try:
            yield from f
        except UnicodeDecodeError:
            # the decoder reads ahead, so find the byte in the whole file
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise SchemaError(f"{path}:{line}: invalid UTF-8 ({exc.reason})") from exc
            raise


def _csv_rows(path: Path, fields: tuple[str, ...]):
    """(line, values) for each record of a dataset CSV: the physical line
    the record ends on, and the record's ``fields`` in order.  Blank lines
    hold no record, and of a name the header repeats the last column counts.

    Raises SchemaError when the header lacks one of ``fields``, when a
    record has fewer or more fields than the header, or on a ``csv.Error``.
    """
    with closing(_lines(path, newline="")) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader, [])
            at = {name: i for i, name in enumerate(header)}
            if not at.keys() >= set(fields):
                raise SchemaError(f"{path}: header must contain {sorted(fields)}")
            take = operator.itemgetter(*(at[name] for name in fields))
            width = len(header)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise SchemaError(
                        f"{path}:{reader.line_num}: a record must have the header's "
                        f"{width} fields"
                    )
                yield reader.line_num, take(row)
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc


_BUILD_ID_RANGE = f"build_id must be in [1, {MAX_BUILD_ID}]"


def _read_builds_csv(path: Path) -> list[tuple[int, datetime, tuple[str, ...]]]:
    rows = []
    for lineno, (raw_id, ts, commits) in _csv_rows(
        path, ("build_id", "timestamp_iso8601", "commits")
    ):
        try:
            build_id = int(raw_id)
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: bad build_id {raw_id!r}") from exc
        if not 1 <= build_id <= MAX_BUILD_ID:
            raise SchemaError(f"{path}:{lineno}: {_BUILD_ID_RANGE}, got {build_id}")
        ts = _parse_timestamp(ts, f"{path}:{lineno}")
        commits = tuple(c for c in commits.split(";") if c)
        for c in commits:
            if not _HASH_RE.fullmatch(c):
                raise SchemaError(f"{path}:{lineno}: {c!r} is not a 40-hex commit hash")
        rows.append((build_id, ts, commits))
    if len({r[0] for r in rows}) != len(rows):
        raise SchemaError(f"{path}: duplicate build ids")
    return rows


_EXEC_FIELDS = ("build_id", "job_id", "test_path", "verdict", "duration_ms")
_VERDICT_CODES = frozenset(v.value for v in Verdict)

#: One build's executions: test paths in order, verdict codes, durations.
ExecColumns = tuple[tuple[str, ...], np.ndarray, np.ndarray]
_NO_EXECUTIONS: ExecColumns = ((), np.empty(0, np.int8), np.empty(0, np.float64))


def _read_exec_records_csv(path: Path, table: Path | None = None) -> dict[int, ExecColumns]:
    """{build_id: columns} of each build's primary job (see
    :func:`select_primary_job`), in test order.

    The columns come from ``table`` when it was written with the bytes of
    ``path`` and is intact (see :func:`_read_exec_table`); otherwise from
    one pass over the CSV, which raises the error of its first bad record.
    """
    if table is not None:
        from_table = _read_exec_table(table, path)
        if from_table is not None:
            return from_table
    build, job, test, verdict, duration = _exec_rows(path)
    # the primary job of each build that ran more than one
    if len(set(job)) > 1:
        per_build: dict[int, dict[str, int]] = {}
        for (b, j), count in Counter(zip(build, job)).items():
            per_build.setdefault(b, {})[j] = count  # keys are unique, so tests are distinct
        primary = {b: select_primary_job(jobs) for b, jobs in per_build.items()}
        kept = [i for i, (b, j) in enumerate(zip(build, job)) if primary[b] == j]
    else:
        kept = range(len(build))
    # rows by build id, then test path
    by_test = sorted(kept, key=test.__getitem__)
    build_ids = np.array(build, dtype=np.int64)
    order = np.array(by_test, dtype=np.intp)
    order = order[np.argsort(build_ids[order], kind="stable")]
    build_ids = build_ids[order]
    verdict = np.array(verdict, dtype=np.int8)[order]
    duration = np.array(duration, dtype=np.float64)[order]
    tests = tuple(test[i] for i in order.tolist())
    bounds = [0, *(np.flatnonzero(np.diff(build_ids)) + 1).tolist(), len(order)]
    return {
        int(build_ids[lo]): (tests[lo:hi], verdict[lo:hi], duration[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    }


def _exec_rows(path: Path):
    """(build ids, job ids, test paths, verdict codes, durations) of the
    records of ``path``, in file order.  Each record's rules are checked as
    it is read, so the error raised is that of the first bad record."""
    build, job, test, verdict, duration = [], [], [], [], []
    seen: set[tuple[int, str, str]] = set()
    for lineno, (b, j, t, v, d) in _csv_rows(path, _EXEC_FIELDS):
        try:
            build_id = int(b)
            if not 1 <= build_id <= MAX_BUILD_ID:
                raise ValueError(f"{_BUILD_ID_RANGE}, got {build_id}")
            code = int(v)
            if code not in _VERDICT_CODES:
                Verdict(code)  # raises its ValueError
            ms = float(d)
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
        if not t:
            raise SchemaError(f"{path}:{lineno}: empty test_path")
        key = (build_id, j, t)
        if key in seen:
            raise DuplicateRecordError(f"{path}:{lineno}: duplicate record {key}")
        seen.add(key)
        if not 0 <= ms < math.inf:
            raise SchemaError(f"{path}:{lineno}: duration_ms must be finite and >= 0, got {d!r}")
        build.append(build_id)
        job.append(j)
        test.append(t)
        verdict.append(code)
        duration.append(ms)
    return build, job, test, verdict, duration


# --- the execution table -------------------------------------------------
#
# derived/exec_records.bin, all numbers little-endian:
#   magic, CSV size (u64), CSV sha256, payload sha256, then the payload:
#   builds, rows, names (u64 each); per build its id and row count (i64);
#   per row its duration (f64), name index (u32) and verdict (i8); per
#   name the code point where it ends (i64); the names, ascending, as one
#   UTF-8 string.
# The payload is a function of the CSV's bytes, so a table is never wrong
# for a CSV whose digest it holds.

_TABLE_MAGIC = b"tcpci exec table 1\n"
_TABLE_HEAD = struct.Struct("<Q32s32s")
_PAYLOAD_HEAD = struct.Struct("<3Q")


def _exec_table(history: BuildHistory, csv_data: bytes) -> bytes | None:
    """The table of ``history``'s executions, as ``csv_data`` holds them;
    None when a verdict column is not int8, since the table could not
    hold its values."""
    builds = [b for b in history.builds if b.tests]
    verdicts = np.concatenate([np.empty(0, np.int8), *(b.verdicts for b in builds)])
    if verdicts.dtype != np.int8:
        return None
    names = sorted({t for b in builds for t in b.tests})
    slot = {t: i for i, t in enumerate(names)}
    columns = (
        np.array([b.id for b in builds], "<i8"),
        np.array([len(b.tests) for b in builds], "<i8"),
        np.concatenate([np.empty(0), *(b.durations for b in builds)]).astype("<f8"),
        np.array([slot[t] for b in builds for t in b.tests], "<u4"),
        verdicts,
        np.cumsum([len(t) for t in names], dtype="<i8"),
    )
    payload = b"".join(
        [_PAYLOAD_HEAD.pack(len(builds), len(verdicts), len(names)),
         *(c.tobytes() for c in columns), "".join(names).encode()]
    )
    digests = (hashlib.sha256(csv_data).digest(), hashlib.sha256(payload).digest())
    return _TABLE_MAGIC + _TABLE_HEAD.pack(len(csv_data), *digests) + payload


def _read_exec_table(table: Path, csv_path: Path) -> dict[int, ExecColumns] | None:
    """What :func:`_read_exec_records_csv` returns for ``csv_path``, read from
    ``table``; None when the table is missing, unreadable, written with
    other CSV bytes, damaged, or breaks a rule the CSV reader checks."""
    try:
        data = table.read_bytes()
        if not data.startswith(_TABLE_MAGIC):
            return None
        csv_size, csv_digest, digest = _TABLE_HEAD.unpack_from(data, len(_TABLE_MAGIC))
        payload = memoryview(data)[len(_TABLE_MAGIC) + _TABLE_HEAD.size:]
        if csv_path.stat().st_size != csv_size or hashlib.sha256(payload).digest() != digest:
            return None
        with open(csv_path, "rb") as f:
            if hashlib.file_digest(f, "sha256").digest() != csv_digest:
                return None
        n_builds, n_rows, n_names = _PAYLOAD_HEAD.unpack_from(payload)
        at = _PAYLOAD_HEAD.size

        def take(dtype: str, count: int) -> np.ndarray:
            nonlocal at
            column = np.frombuffer(payload, dtype, count, at)
            at += column.nbytes
            return column

        ids, counts = take("<i8", n_builds), take("<i8", n_builds)
        durations, index = take("<f8", n_rows).astype(np.float64), take("<u4", n_rows)
        verdicts, ends = take("<i1", n_rows).astype(np.int8), take("<i8", n_names)
        text = str(payload[at:], "utf-8")
    except (OSError, ValueError, OverflowError, struct.error):
        return None
    if not (((counts > 0) & (counts <= n_rows)).all() and counts.sum() == n_rows):
        return None
    bounds = np.concatenate([[0], np.cumsum(counts)])
    first = np.zeros(n_rows, bool)  # a build's first row
    first[bounds[:-1]] = True
    names = [text[lo:hi] for lo, hi in zip([0, *ends.tolist()], ends.tolist())]
    # the rules of _exec_rows: the table of a history that breaks one
    # must leave the CSV's error to stand
    if not (
        (ids[:1] >= 1).all()
        and (np.diff(ids) > 0).all()  # int64, so at most MAX_BUILD_ID
        and (np.diff(ends, prepend=0) > 0).all()
        and (ends[-1:] == len(text)).all()
        and all(a < b for a, b in zip(names, names[1:]))
        and (index < n_names).all()
        and (first[1:] | (np.diff(index.astype(np.int64)) > 0)).all()
        and (verdicts.astype(np.uint8) < len(Verdict)).all()  # the codes are 0, 1, ...
        and ((durations >= 0) & (durations < math.inf)).all()
    ):
        return None
    tests = list(map(names.__getitem__, index.tolist()))
    return {
        build_id: (tuple(tests[lo:hi]), verdicts[lo:hi], durations[lo:hi])
        for build_id, lo, hi in zip(ids.tolist(), bounds.tolist(), bounds[1:].tolist())
    }


def _typed(obj: dict, types: dict[str, type]) -> dict:
    """``obj``, after checking that each key of ``types`` holds a value of
    exactly that type: neither a bool nor a float passes for an int."""
    for key, kind in types.items():
        if type(obj[key]) is not kind:
            raise TypeError(f"{key} must be {kind.__name__}, got {obj[key]!r}")
    return obj


def _starts(values) -> tuple[int, ...]:
    if type(values) is not list or any(type(v) is not int for v in values):
        raise TypeError(f"chunk starts must be a list of integers, got {values!r}")
    return tuple(values)


_COMMIT_TYPES = {"hash": str, "author": str, "message": str}
_FILE_TYPES = {"path": str, "added": int, "deleted": int}
_UNIT_RISK_TYPES = get_type_hints(UnitRisk)


def read_commits_jsonl(path: Path) -> list[Commit]:
    """The commits of a ``commits.jsonl`` file, one per nonblank line.

    Raises SchemaError naming the path and line of a malformed commit, and
    DuplicateRecordError on a hash an earlier line holds or a file listed twice.
    """
    commits = []
    seen: set[str] = set()
    with closing(_lines(path, newline=None)) as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON") from exc
            except RecursionError as exc:
                raise SchemaError(f"{path}:{lineno}: JSON nested too deeply") from exc
            try:
                _typed(obj, _COMMIT_TYPES)
                changes = []
                for fobj in obj["files"]:
                    _typed(fobj, _FILE_TYPES)
                    risks = None
                    if fobj.get("unit_risks") is not None:
                        risks = tuple(
                            UnitRisk(**_typed(r, _UNIT_RISK_TYPES)) for r in fobj["unit_risks"]
                        )
                    changes.append(
                        FileChange(
                            path=fobj["path"],
                            lines_added=fobj["added"],
                            lines_deleted=fobj["deleted"],
                            added_chunks=_starts(fobj.get("added_chunks", [])),
                            deleted_chunks=_starts(fobj.get("deleted_chunks", [])),
                            unit_risks=risks,
                        )
                    )
                commits.append(
                    Commit(
                        id=obj["hash"],
                        timestamp=_parse_timestamp(obj["timestamp"], f"{path}:{lineno}"),
                        author=obj["author"],
                        message=obj["message"],
                        file_changes=tuple(changes),
                    )
                )
            except DuplicateRecordError as exc:
                raise DuplicateRecordError(f"{path}:{lineno}: {exc}") from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            if commits[-1].id in seen:
                raise DuplicateRecordError(f"{path}:{lineno}: duplicate commit {commits[-1].id!r}")
            seen.add(commits[-1].id)
    return commits


def ingest_exec_records(layout: DatasetLayout) -> BuildHistory:
    """Load a dataset into an in-memory history.

    Execution records are job-deduplicated via :func:`select_primary_job`;
    builds come back sorted by ordinal.
    """
    if not layout.builds_csv.is_file():
        raise SchemaError(f"missing {layout.builds_csv}")
    if not layout.exec_records_csv.is_file():
        raise SchemaError(f"missing {layout.exec_records_csv}")
    build_rows = _read_builds_csv(layout.builds_csv)
    per_build = _read_exec_records_csv(layout.exec_records_csv, layout.exec_table)
    known_ids = {r[0] for r in build_rows}
    unknown = set(per_build) - known_ids
    if unknown:
        raise SchemaError(
            f"{layout.exec_records_csv}: build ids {sorted(unknown)[:5]} not in builds.csv"
        )

    if layout.commits_jsonl.is_file():
        commits = read_commits_jsonl(layout.commits_jsonl)
    elif layout.repo is not None:
        commits = ingest_git_history(layout.repo, "HEAD")
    else:
        raise SchemaError(f"{layout.root}: need commits.jsonl or a repository path")
    commit_store = {c.id: c for c in commits}

    builds = []
    for build_id, ts, commit_ids in build_rows:
        missing = [c for c in commit_ids if c not in commit_store]
        if missing:
            raise SchemaError(f"build {build_id} references unknown commits {missing[:3]}")
        executions = per_build.get(build_id, _NO_EXECUTIONS)
        builds.append(Build(build_id, commit_ids, *executions, ts))
    return BuildHistory(builds, commit_store)


def csv_bytes(header: tuple[str, ...], rows: Callable[[], Iterable[tuple]]) -> bytes:
    """UTF-8 CSV of ``header`` and the records ``rows()`` yields, each ended
    by LF.

    A record with a field that holds a CR has every field quoted: with an
    LF terminator, ``csv.writer`` quotes a field only for an LF, and a bare
    CR would end the record when it is read back.  Only then is ``rows()``
    called a second time.
    """
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows())
    if "\r" in out.getvalue():
        out = io.StringIO(newline="")
        plain = csv.writer(out, lineterminator="\n")
        quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in (header, *rows()):
            (quoted if any("\r" in str(v) for v in row) else plain).writerow(row)
    return out.getvalue().encode("utf-8")


def write_dataset(history: BuildHistory, root: Path) -> DatasetLayout:
    """Write a history back to the on-disk layout, every record in job ``j0``,
    with the execution table of ``derived/``."""
    layout = DatasetLayout(root)
    root.mkdir(parents=True, exist_ok=True)
    epoch = datetime.fromtimestamp(0, tz=timezone.utc)

    def builds():
        for b in history.builds:
            yield b.id, (b.wall_clock or epoch).isoformat(), ";".join(b.commits)

    def executions():
        return chain.from_iterable(
            zip(repeat(b.id), repeat("j0"), b.tests, b.verdicts.tolist(), b.durations.tolist())
            for b in history.builds
        )

    header = ("build_id", "timestamp_iso8601", "commits")
    layout.builds_csv.write_bytes(csv_bytes(header, builds))
    exec_csv = csv_bytes(_EXEC_FIELDS, executions)
    layout.exec_records_csv.write_bytes(exec_csv)
    table = _exec_table(history, exec_csv)
    if table is not None:
        layout.exec_table.parent.mkdir(exist_ok=True)
        layout.exec_table.write_bytes(table)
    with open(root / "commits.jsonl", "w", encoding="utf-8") as f:
        for c in history.commit_sequence:
            obj = {
                "hash": c.id,
                "timestamp": c.timestamp.isoformat(),
                "author": c.author,
                "message": c.message,
                "files": [
                    {
                        "path": fc.path,
                        "added": fc.lines_added,
                        "deleted": fc.lines_deleted,
                        "added_chunks": list(fc.added_chunks),
                        "deleted_chunks": list(fc.deleted_chunks),
                        **(
                            {"unit_risks": [asdict(r) for r in fc.unit_risks]}
                            if fc.unit_risks is not None
                            else {}
                        ),
                    }
                    for fc in c.file_changes
                ],
            }
            f.write(json.dumps(obj) + "\n")
    return layout


# --- git mining ---------------------------------------------------------


def _git(repo: Path, *args: str, stdin: str = "") -> str:
    """Output of ``git -C repo args``, fed ``stdin``.

    The output is decoded without newline translation, so a CR in file
    content stays inside its line and cannot start one that reads as a
    diff header.
    """
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], input=stdin.encode(), capture_output=True
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace").strip())
    return proc.stdout.decode(errors="replace")


def _blob(repo: Path, rev: str, path: str) -> str:
    try:
        return _git(repo, "show", f"{rev}:{path}")
    except RuntimeError:
        return ""


def _header_path(name: str, prefix: str) -> str:
    """The path a ``---``/``+++`` line names.  Git puts a tab after a name
    with a space, and C-quotes a name with special or non-ASCII bytes."""
    name = name.removesuffix("\t")
    if name.startswith('"'):
        # the escapes name bytes; unicode_escape maps each byte to the code
        # point of the same number, which latin-1 turns back into the byte
        escaped = name[1:-1].encode().decode("unicode_escape")
        name = escaped.encode("latin-1").decode(errors="replace")
    return name.removeprefix(prefix)


def _parse_diff(repo: Path, sha: str, parent: str | None, diff: str) -> list[FileChange]:
    """Per-file changes of one commit from its ``-U0`` diff against ``parent``.

    Only header lines are read: a file's path from the ``---``/``+++``
    lines before its first hunk, and its (start, length) spans from the
    ``@@`` hunk headers, which under ``-U0`` cover every added and deleted
    line.  Added chunk starts use new-file line numbers, deleted chunk
    starts old-file line numbers.  A file without ``---``/``+++`` lines
    (binary, mode-only or empty) is not recorded, and one with an
    unparseable hunk header is skipped with a warning.  Git splits a change
    of file type (a file made a symlink, or back) into a deletion and a
    creation of one path; their spans make one change, so each file is
    listed once.  Java files carry the unit risks of their chunks, read from
    the blobs of the sides that have chunks.
    """
    file_spans: dict[str, list[tuple[int, int, int, int]]] = {}
    skipped = set()
    for section in _FILE_RE.split(diff)[1:]:
        header, _, body = section.partition("\n@@")
        paths = dict(
            line.split(" ", 1) for line in header.split("\n") if line[:4] in ("--- ", "+++ ")
        )
        new, old = paths.get("+++", "/dev/null"), paths.get("---", "/dev/null")
        if new != "/dev/null":
            path = _header_path(new, "b/")
        elif old != "/dev/null":
            path = _header_path(old, "a/")
        else:
            continue
        hunks = _HUNK_RE.findall("@@" + body)
        if len(hunks) != body.count("\n@@") + 1:
            log.warning("commit %s: unparseable hunk header in %s; file skipped", sha, path)
            skipped.add(path)
        file_spans.setdefault(path, []).extend(
            (int(a), int(b or 1), int(c), int(d or 1)) for a, b, c, d in hunks
        )
    changes = []
    for path, spans in file_spans.items():
        if path in skipped:
            continue
        added = [(max(c, 1), d) for _, _, c, d in spans if d]
        deleted = [(max(a, 1), b) for a, b, _, _ in spans if b]
        risks = None
        if path.endswith(".java"):
            post = _blob(repo, sha, path) if added else ""
            pre = _blob(repo, parent, path) if deleted and parent else ""
            risks = tuple(assess_chunk_risks(pre, post, added, deleted)) or None
        changes.append(
            FileChange(
                path=path,
                lines_added=sum(n for _, n in added),
                lines_deleted=sum(n for _, n in deleted),
                added_chunks=tuple(s for s, _ in added),
                deleted_chunks=tuple(s for s, _ in deleted),
                unit_risks=risks,
            )
        )
    return changes


def ingest_git_history(repo_path: Path | str, until: str = "HEAD") -> list[Commit]:
    """Mine commits up to ``until`` from a git repository.

    Commits come back in topological-then-timestamp order (parents before
    children).  One ``git diff-tree`` process diffs every commit: merge
    commits against their first parent, file renames recorded as
    delete+add.  Reads committed objects only, so the result is
    independent of working-tree state.
    """
    repo = Path(repo_path)
    try:
        _git(repo, "rev-parse", "--git-dir")
    except (RuntimeError, FileNotFoundError) as exc:
        raise RepoNotFoundError(f"{repo} is not a git repository") from exc
    try:
        head = _git(repo, "rev-parse", "--verify", f"{until}^{{commit}}").strip()
    except RuntimeError as exc:
        if until == "HEAD" and not _git(repo, "rev-list", "--all").strip():
            return []  # an empty repository
        raise UnresolvableRefError(f"cannot resolve {until!r} in {repo}") from exc

    # -z ends each commit with a NUL, which no commit message holds
    log_text = _git(
        repo, "log", "-z", "--topo-order", "--reverse", "--no-abbrev",
        "--format=%H%x1f%P%x1f%at%x1f%an%x1f%B", head,
    )
    blocks = [block.split("\x1f", 4) for block in log_text.split("\0")[:-1]]
    first_parent = {sha: (parents.split() or [None])[0] for sha, parents, *_ in blocks}
    # one line per commit: its id and first parent, or its id alone for a
    # root commit; --always prints the id line of an empty diff too
    diff_text = _git(
        repo, "diff-tree", "--stdin", "--root", "--always", "--no-renames", "-r", "-U0", "-p",
        stdin="".join(f"{sha} {p}\n" if p else f"{sha}\n" for sha, p in first_parent.items()),
    )
    parts = _COMMIT_LINE_RE.split(diff_text)
    diffs = dict(zip(parts[1::2], parts[2::2]))
    return [
        Commit(
            id=sha,
            timestamp=datetime.fromtimestamp(int(at), tz=timezone.utc),
            author=author,
            message=message.rstrip("\n"),
            file_changes=tuple(_parse_diff(repo, sha, first_parent[sha], diffs[sha])),
        )
        for sha, _, at, author, message in blocks
    ]
