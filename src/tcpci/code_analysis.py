"""Resolution of source rows, unit risks, process and change metrics.

A file's :class:`~tcpci.source_rows.SourceRow` (its imports, type names and
complexity metrics) comes from its text alone, under the rules of
:mod:`tcpci.source_rows`.  Here it is resolved against the snapshot's file
set: an import gives an edge to the one file whose path ends in its name
(``a.b.C`` in ``a/b/C.java``), a static import to that of the longest
prefix of its name that has one, and a non-static wildcard to none.

Process and change metrics are computed from commit history, not from
source text.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import namedtuple
from collections.abc import Iterable
from typing import NamedTuple

from .catalog import CHANGE_METRICS, PROCESS_METRICS
from .model import Commit, FileChange, UnitRisk
# bound here too: the traced benchmark wraps code_analysis.analyze_file
from .source_rows import SourceRow, Unit, analyze_file, source_row, unit_spans

# DMM low-risk thresholds per unit property.
DMM_SIZE_THRESHOLD = 15
DMM_COMPLEXITY_THRESHOLD = 5
DMM_INTERFACING_THRESHOLD = 2

# One row of each history metric family, with fields named by the catalog.
ProcessMetrics = namedtuple(
    "ProcessMetrics", PROCESS_METRICS, defaults=(0,) * len(PROCESS_METRICS)
)
ChangeMetrics = namedtuple("ChangeMetrics", CHANGE_METRICS)


class SourceEntity(NamedTuple):
    path: str
    import_targets: frozenset[str]
    call_targets: frozenset[str]


_TEST_PREFIX = re.compile(r"Test\w*\.java$").match
_TEST_SUFFIX = re.compile(r"Test\.java$").search


def is_test_file(path: str) -> bool:
    """Maven convention: a /test/ path segment or a *Test.java / Test*.java name."""
    path = "/" + path.replace("\\", "/")
    if "/test/" in path:  # a directory named test
        return True
    name = path[path.rfind("/") + 1 :]
    return bool(_TEST_PREFIX(name) or _TEST_SUFFIX(name))


def _stem(path: str) -> str:
    """A file's name without its directory and its last suffix."""
    return path.replace("\\", "/").split("/")[-1].rsplit(".", 1)[0]


# --- file index for import/call resolution ------------------------------


class FileIndex:
    """Repository file set with class-name and package-path lookup."""

    def __init__(self, paths: Iterable[str]):
        self.paths = set(paths)
        self._by_stem: dict[str, list[str]] = {}
        self._imports: dict[str, str | None] = {}  # each dotted name resolved so far
        for p in sorted(self.paths):
            self._by_stem.setdefault(_stem(p), []).append(p)
        # each stem that names one file, to that file
        self._types = {stem: ps[0] for stem, ps in self._by_stem.items() if len(ps) == 1}

    def resolve_import(self, dotted: str) -> str | None:
        """Resolve ``a.b.C`` to a unique file ending in ``a/b/C.java``, that
        is one whose path is ``a/b/C.java`` or ends in ``/a/b/C.java``."""
        if dotted not in self._imports:
            tail = "/" + dotted.replace(".", "/") + ".java"
            hits = [
                p
                for p in self._by_stem.get(dotted.rpartition(".")[2], [])
                if ("/" + p.replace("\\", "/")).endswith(tail)
            ]
            self._imports[dotted] = hits[0] if len(hits) == 1 else None
        return self._imports[dotted]

    def resolve_type(self, name: str) -> str | None:
        """Resolve a capitalized identifier to its unique declaring file."""
        return self._types.get(name)


class Sources(dict):
    """A {path: text} source snapshot that also holds each path's
    :class:`SourceRow` in ``rows``.  It compares equal to the plain
    mapping; treat it as read-only, as ``rows`` follows no edit."""

    def __init__(self, texts: dict[str, str], rows: dict[str, SourceRow] | None = None):
        super().__init__(texts)
        self.rows = {p: source_row(t) for p, t in texts.items()} if rows is None else rows


def with_rows(sources: dict[str, str]) -> Sources:
    """``sources`` with its rows: itself when it holds them already."""
    return sources if isinstance(sources, Sources) else Sources(sources)


def scan_entity(row: SourceRow, path: str, index: FileIndex) -> SourceEntity:
    """The resolved import and call targets of the file at ``path`` with
    ``row``: its imports, and the type names it uses other than its own
    file's name."""
    if not (row.imports or row.types):
        return SourceEntity(path, frozenset(), frozenset())
    imports, calls = set(), set()
    for static, name, star in row.imports:
        if static:
            # a static import names a member; its class is the longest
            # prefix of the name that resolves
            parts = name.split(".")
            prefixes = (".".join(parts[:n]) for n in range(len(parts), 0, -1))
            imports.add(next(filter(None, map(index.resolve_import, prefixes)), None))
        elif not star:  # a non-static wildcard names a package: no edge
            imports.add(index.resolve_import(name))
    if row.types:
        stem = _stem(path)
        calls.update(map(index.resolve_type, [name for name in row.types if name != stem]))
    for targets in (imports, calls):
        targets.discard(None)
        targets.discard(path)
    return SourceEntity(path, frozenset(imports), frozenset(calls))


# --- DMM risk assessment ------------------------------------------------


def _risk_for_chunk(units: list[Unit], start: int) -> Unit | None:
    for u in units:
        if u.start_line <= start <= u.end_line:
            return u
    return None


def assess_chunk_risks(
    pre_source: str,
    post_source: str,
    added_spans: list[tuple[int, int]],
    deleted_spans: list[tuple[int, int]],
) -> list[UnitRisk]:
    """Map changed chunks to enclosing units and flag their risk profile.

    Added chunks are located in the post-change text, deleted chunks in the
    pre-change text.  Chunks outside any unit produce no entry.
    """
    risks: list[UnitRisk] = []
    for source, spans, added in ((post_source, added_spans, True), (pre_source, deleted_spans, False)):
        units = unit_spans(source) if spans else []
        for start, length in spans:
            u = _risk_for_chunk(units, start)
            if u is None:
                continue
            risks.append(
                UnitRisk(
                    lines_added=length if added else 0,
                    lines_deleted=0 if added else length,
                    low_size=u.size_lines <= DMM_SIZE_THRESHOLD,
                    low_complexity=u.cyclomatic <= DMM_COMPLEXITY_THRESHOLD,
                    low_interfacing=u.param_count <= DMM_INTERFACING_THRESHOLD,
                )
            )
    return risks


# --- process metrics ----------------------------------------------------


class ProcessHistory:
    """Commit-history index answering process-metric queries by prefix:
    each query counts the first ``n_commits`` commits.

    Authored lines = added + deleted lines, following the convention that
    both count as authored.
    """

    def __init__(self, commits: list[Commit] | tuple[Commit, ...]):
        # per file: ordered (commit_idx, author, lines)
        self.file_touches: dict[str, list[tuple[int, str, int]]] = {}
        # per author: ordered (commit_idx, cumulative project lines)
        self.author_lines: dict[str, list[tuple[int, int]]] = {}
        self.total_lines: list[tuple[int, int]] = []
        total = 0
        for idx, c in enumerate(commits):
            commit_lines = 0
            for fc in c.file_changes:
                lines = fc.lines_added + fc.lines_deleted
                self.file_touches.setdefault(fc.path, []).append((idx, c.author, lines))
                commit_lines += lines
            if commit_lines:
                prev = self.author_lines.get(c.author)
                cum = (prev[-1][1] if prev else 0) + commit_lines
                self.author_lines.setdefault(c.author, []).append((idx, cum))
                total += commit_lines
                self.total_lines.append((idx, total))

    def _prefix(self, series: list[tuple[int, int]], n_commits: int) -> int:
        pos = bisect.bisect_left(series, (n_commits,))
        return series[pos - 1][1] if pos else 0

    def experience(self, author: str, n_commits: int) -> float:
        """Percent of all project authored lines contributed by the author."""
        total = self._prefix(self.total_lines, n_commits)
        if total == 0:
            return 0.0
        return 100.0 * self._prefix(self.author_lines.get(author, []), n_commits) / total

    def metrics(self, path: str, n_commits: int) -> ProcessMetrics:
        touches = [t for t in self.file_touches.get(path, []) if t[0] < n_commits]
        if not touches:
            return ProcessMetrics()
        per_author: dict[str, int] = {}
        for _, author, lines in touches:
            per_author[author] = per_author.get(author, 0) + lines
        file_total = sum(per_author.values())
        if file_total == 0:
            # commits touched the file without countable lines
            authors = sorted(per_author)
            return ProcessMetrics(
                CommitCount=len(touches),
                DistinctDevCount=len(authors),
            )
        owner = min(per_author, key=lambda a: (-per_author[a], a))
        shares = {a: 100.0 * n / file_total for a, n in per_author.items()}
        experiences = [self.experience(a, n_commits) for a in sorted(per_author)]
        if all(e > 0 for e in experiences):
            gm = math.exp(sum(math.log(e) for e in experiences) / len(experiences))
        else:
            gm = 0.0
        return ProcessMetrics(
            CommitCount=len(touches),
            DistinctDevCount=len(per_author),
            OwnersContribution=shares[owner],
            MinorContributorCount=sum(1 for s in shares.values() if s < 5.0),
            OwnersExperience=self.experience(owner, n_commits),
            AllCommitersExperience=gm,
        )


# --- change metrics -----------------------------------------------------


def change_scattering(chunk_starts: tuple[int, ...] | list[int]) -> float:
    """|CH| / C(|CH|, 2) times the summed pairwise start-line distance."""
    n = len(chunk_starts)
    if n <= 1:
        return 0.0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(chunk_starts[i] - chunk_starts[j])
    return n / math.comb(n, 2) * total


def compute_change_metrics(path: str, build_changes: list[FileChange]) -> ChangeMetrics:
    """Aggregate change metrics for one file across a build's commits."""
    relevant = [fc for fc in build_changes if fc.path == path]
    added = sum(fc.lines_added for fc in relevant)
    deleted = sum(fc.lines_deleted for fc in relevant)
    added_chunks = [s for fc in relevant for s in fc.added_chunks]
    deleted_chunks = [s for fc in relevant for s in fc.deleted_chunks]
    risks = [r for fc in relevant if fc.unit_risks for r in fc.unit_risks]

    def dmm(flag: str) -> float:
        if not risks:
            return -1.0
        lr = hr = 0
        for r in risks:
            low = getattr(r, flag)
            # adding low-risk code or removing high-risk code is low risk
            lr += r.lines_added if low else r.lines_deleted
            hr += r.lines_deleted if low else r.lines_added
        if lr + hr == 0:
            return -1.0
        return lr / (lr + hr)

    return ChangeMetrics(
        LinesAdded=added,
        LinesDeleted=deleted,
        AddedChangeScattering=change_scattering(added_chunks),
        DeletedChangeScattering=change_scattering(deleted_chunks),
        DMMUnitSize=dmm("low_size"),
        DMMUnitComplexity=dmm("low_complexity"),
        DMMUnitInterfacing=dmm("low_interfacing"),
    )
