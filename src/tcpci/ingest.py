"""Dataset loading: build/execution CSVs, commit history, git mining.

A dataset lives in one directory::

    root/
      builds.csv        build_id,timestamp_iso8601,commits   (commits ;-joined 40-hex)
      exec_records.csv  build_id,job_id,test_path,verdict,duration_ms
      commits.jsonl     one commit object per line (alternative to a live repo)
      src/              optional source snapshot used for static analysis

Verdict codes: 0=pass, 1=assertion failure, 2=exception failure, 3=unknown
failure.  All files UTF-8 with LF line endings.

``commits.jsonl`` objects carry ``hash, timestamp, author, message, files``
where each file entry has ``path, added, deleted, added_chunks,
deleted_chunks`` and optionally ``unit_risks`` (written by
:func:`write_dataset` when risk data is available, so that a round trip is
lossless).
"""

from __future__ import annotations

import csv
import json
import logging
import re
import subprocess
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import (
    DuplicateRecordError,
    EmptyBuildError,
    RepoNotFoundError,
    SchemaError,
    UnresolvableRefError,
)
from .model import (
    Build,
    BuildHistory,
    ChangeSet,
    Commit,
    ExecutionRecord,
    FileChange,
    UnitRisk,
    Verdict,
)

log = logging.getLogger(__name__)

_HASH_RE = re.compile(r"^[0-9a-f]{40}$")
_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


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
    def src_dir(self) -> Path | None:
        """Source snapshot for static analysis: ``root/src`` or the repo tree."""
        if (self.root / "src").is_dir():
            return self.root / "src"
        if self.repo is not None and self.repo.is_dir():
            return self.repo
        return None


def select_primary_job(jobs: dict[str, list[ExecutionRecord]]) -> str:
    """Pick the job with the most distinct tests; ties go to the smallest id."""
    if not jobs:
        raise EmptyBuildError("build has no jobs")
    return min(jobs, key=lambda j: (-len({r.test for r in jobs[j]}), j))


def _parse_timestamp(value: str, where: str) -> datetime:
    try:
        ts = datetime.fromisoformat(value)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad timestamp {value!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def _read_builds_csv(path: Path) -> list[tuple[int, datetime, tuple[str, ...]]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        required = {"build_id", "timestamp_iso8601", "commits"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SchemaError(f"{path}: header must contain {sorted(required)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            try:
                build_id = int(row["build_id"])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad build_id {row['build_id']!r}") from exc
            ts = _parse_timestamp(row["timestamp_iso8601"], f"{path}:{lineno}")
            commits = tuple(c for c in row["commits"].split(";") if c)
            for c in commits:
                if not _HASH_RE.match(c):
                    raise SchemaError(f"{path}:{lineno}: {c!r} is not a 40-hex commit hash")
            rows.append((build_id, ts, commits))
    if len({r[0] for r in rows}) != len(rows):
        raise SchemaError(f"{path}: duplicate build ids")
    return rows


def _read_exec_records_csv(path: Path) -> dict[int, dict[str, list[ExecutionRecord]]]:
    """Returns {build_id: {job_id: [records]}} without deduplication."""
    per_build: dict[int, dict[str, list[ExecutionRecord]]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        required = {"build_id", "job_id", "test_path", "verdict", "duration_ms"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SchemaError(f"{path}: header must contain {sorted(required)}")
        seen: set[tuple[int, str, str]] = set()
        for lineno, row in enumerate(reader, start=2):
            try:
                build_id = int(row["build_id"])
                verdict = Verdict(int(row["verdict"]))
                duration = float(row["duration_ms"])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            test = row["test_path"]
            if not test:
                raise SchemaError(f"{path}:{lineno}: empty test_path")
            key = (build_id, row["job_id"], test)
            if key in seen:
                raise DuplicateRecordError(f"{path}:{lineno}: duplicate record {key}")
            seen.add(key)
            if duration < 0:
                raise SchemaError(f"{path}:{lineno}: negative duration")
            rec = ExecutionRecord(build_id, test, verdict, duration)
            per_build.setdefault(build_id, {}).setdefault(row["job_id"], []).append(rec)
    return per_build


def read_commits_jsonl(path: Path) -> list[Commit]:
    commits = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON") from exc
            try:
                changes = []
                for fobj in obj["files"]:
                    risks = None
                    if fobj.get("unit_risks") is not None:
                        risks = tuple(UnitRisk(**r) for r in fobj["unit_risks"])
                    changes.append(
                        FileChange(
                            path=fobj["path"],
                            lines_added=int(fobj["added"]),
                            lines_deleted=int(fobj["deleted"]),
                            added_chunks=tuple(fobj.get("added_chunks", ())),
                            deleted_chunks=tuple(fobj.get("deleted_chunks", ())),
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
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
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
    per_build = _read_exec_records_csv(layout.exec_records_csv)
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
        changed = frozenset(
            p for cid in commit_ids for p in commit_store[cid].changed_files
        )
        jobs = per_build.get(build_id, {})
        if jobs:
            primary = select_primary_job(jobs)
            records = tuple(sorted(jobs[primary], key=lambda r: r.test))
        else:
            records = ()
        builds.append(
            Build(
                id=build_id,
                change_set=ChangeSet(build_id, commit_ids, changed),
                records=records,
                wall_clock=ts,
            )
        )
    return BuildHistory(builds, commit_store)


def write_dataset(history: BuildHistory, root: Path) -> DatasetLayout:
    """Write a history back to the on-disk layout, every record in job ``j0``."""
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "builds.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["build_id", "timestamp_iso8601", "commits"])
        for b in history.builds:
            ts = b.wall_clock or datetime.fromtimestamp(0, tz=timezone.utc)
            w.writerow([b.id, ts.isoformat(), ";".join(b.change_set.commits)])
    with open(root / "exec_records.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["build_id", "job_id", "test_path", "verdict", "duration_ms"])
        for b in history.builds:
            for r in b.records:
                w.writerow([b.id, "j0", r.test, int(r.verdict), r.duration_ms])
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
    return DatasetLayout(root)


# --- git mining ---------------------------------------------------------


def _git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        errors="replace",
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip())
    return proc.stdout


def _parse_diff(text: str, commit: str) -> list[tuple[FileChange, list, list]]:
    """Parse ``-U0`` unified diff output into per-file changes.

    Added chunk starts use new-file line numbers, deleted chunk starts use
    old-file line numbers.  Unparseable file sections are skipped with a
    warning; the commit itself is retained.  Each change comes back with
    its (start, length) chunk spans, which are needed for risk assessment
    but are not part of the stored change record.
    """
    changes: list[tuple[FileChange, list, list]] = []
    current: dict | None = None

    def flush():
        if current is not None and current["path"] is not None:
            changes.append(
                (
                    FileChange(
                        path=current["path"],
                        lines_added=current["added"],
                        lines_deleted=current["deleted"],
                        added_chunks=tuple(s for s, _ in current["added_chunks"]),
                        deleted_chunks=tuple(s for s, _ in current["deleted_chunks"]),
                    ),
                    current["added_chunks"],
                    current["deleted_chunks"],
                )
            )

    for line in text.splitlines():
        if line.startswith("diff --git "):
            flush()
            current = {
                "path": None,
                "added": 0,
                "deleted": 0,
                "added_chunks": [],
                "deleted_chunks": [],
            }
        elif current is None:
            continue
        elif line.startswith("+++ "):
            target = line[4:]
            if target != "/dev/null":
                current["path"] = target[2:] if target.startswith("b/") else target
        elif line.startswith("--- "):
            source = line[4:]
            if current["path"] is None and source != "/dev/null":
                # deletion: keep the old path so the removal is attributed
                current["path"] = source[2:] if source.startswith("a/") else source
        elif line.startswith("@@"):
            m = _HUNK_RE.match(line)
            if m is None:
                log.warning("commit %s: unparseable hunk header %r; file skipped", commit, line)
                current["path"] = None
                continue
            old_start, old_len = int(m.group(1)), int(m.group(2) or "1")
            new_start, new_len = int(m.group(3)), int(m.group(4) or "1")
            if new_len > 0:
                current["added_chunks"].append((max(new_start, 1), new_len))
            if old_len > 0:
                current["deleted_chunks"].append((max(old_start, 1), old_len))
        elif line.startswith("+") and not line.startswith("+++"):
            current["added"] += 1
        elif line.startswith("-") and not line.startswith("---"):
            current["deleted"] += 1
    flush()
    return changes


def _attach_unit_risks(
    repo: Path, sha: str, parent: str | None, changes: list[tuple[FileChange, list, list]]
) -> list[FileChange]:
    """Derive per-chunk unit risk for Java files from blob contents."""
    from .code_analysis import assess_chunk_risks

    out = []
    for fc, added_spans, deleted_spans in changes:
        if not fc.path.endswith(".java"):
            out.append(fc)
            continue
        try:
            post = _git(repo, "show", f"{sha}:{fc.path}")
        except RuntimeError:
            post = ""
        pre = ""
        if parent is not None:
            try:
                pre = _git(repo, "show", f"{parent}:{fc.path}")
            except RuntimeError:
                pre = ""
        risks = assess_chunk_risks(pre, post, added_spans, deleted_spans)
        out.append(
            FileChange(
                path=fc.path,
                lines_added=fc.lines_added,
                lines_deleted=fc.lines_deleted,
                added_chunks=fc.added_chunks,
                deleted_chunks=fc.deleted_chunks,
                unit_risks=tuple(risks) if risks else None,
            )
        )
    return out


def ingest_git_history(repo_path: Path | str, until: str = "HEAD") -> list[Commit]:
    """Mine commits up to ``until`` from a git repository.

    Commits come back in topological-then-timestamp order (parents before
    children).  Merge commits are diffed against their first parent; file
    renames are recorded as delete+add.  Reads committed objects only, so
    the result is independent of working-tree state.
    """
    repo = Path(repo_path)
    try:
        _git(repo, "rev-parse", "--git-dir")
    except (RuntimeError, FileNotFoundError) as exc:
        raise RepoNotFoundError(f"{repo} is not a git repository") from exc
    try:
        head = _git(repo, "rev-parse", "--verify", f"{until}^{{commit}}").strip()
    except RuntimeError as exc:
        if "Needed a single revision" in str(exc) or "unknown revision" in str(exc):
            # empty repository with until=HEAD resolves to no commits
            try:
                if not _git(repo, "rev-list", "--all").strip():
                    if until == "HEAD":
                        return []
            except RuntimeError:
                pass
        raise UnresolvableRefError(f"cannot resolve {until!r} in {repo}") from exc

    log_text = _git(
        repo, "log", "--topo-order", "--reverse", "--no-abbrev",
        "--format=%x1e%H%x1f%P%x1f%at%x1f%an%x1f%B", head,
    )
    commits = []
    for block in log_text.split("\x1e")[1:]:
        sha, parents, at, author, message = block.split("\x1f", 4)
        first_parent = parents.split()[0] if parents else None
        if first_parent is None:
            diff = _git(repo, "diff-tree", "--root", "--no-renames", "-r", "-U0", "-p", sha)
        else:
            diff = _git(repo, "diff-tree", "--no-renames", "-r", "-U0", "-p", first_parent, sha)
        changes = _parse_diff(diff, sha)
        changes = _attach_unit_risks(repo, sha, first_parent, changes)
        commits.append(
            Commit(
                id=sha,
                timestamp=datetime.fromtimestamp(int(at), tz=timezone.utc),
                author=author,
                message=message.rstrip("\n"),
                file_changes=tuple(changes),
            )
        )
    return commits
