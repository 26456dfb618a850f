"""Core domain types shared by the whole pipeline.

Everything here is an immutable value object: builds, commits, execution
records, and the association scores mined from co-changes.  No I/O and no
algorithms beyond invariant checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime

# A build id is a positive ordinal; ordering equals chronological ordering.
BuildId = int
# A test case is identified by the repository-relative path of its source
# file.  Renames break identity (the age of the test resets).
TestId = str
CommitId = str


class Verdict(enum.IntEnum):
    """Outcome of one test execution.

    The three failure kinds all count as "failed".  UNKNOWN_FAILURE is for
    logs that report a failure without assertion/exception detail; it
    contributes to the overall failure rate but to neither the assertion
    nor the exception rate.
    """

    PASSED = 0
    ASSERTION_FAILURE = 1
    EXCEPTION_FAILURE = 2
    UNKNOWN_FAILURE = 3


def is_failed(verdict: Verdict) -> bool:
    return verdict is not Verdict.PASSED


@dataclass(frozen=True)
class ExecutionRecord:
    """One (build, test) execution after job deduplication."""

    build: BuildId
    test: TestId
    verdict: Verdict
    duration_ms: float

    def __post_init__(self):
        if self.duration_ms < 0:
            raise ValueError(f"negative duration for {self.test}@{self.build}")


@dataclass(frozen=True)
class UnitRisk:
    """Risk profile of one changed chunk's enclosing unit (method).

    The low_* flags describe whether the unit is under the low-risk
    threshold for each property.  Adding code to a low-risk unit or
    removing code from a high-risk unit is a low-risk change.
    """

    lines_added: int
    lines_deleted: int
    low_size: bool
    low_complexity: bool
    low_interfacing: bool


@dataclass(frozen=True)
class FileChange:
    """Per-file diff of one commit, counted against the first parent."""

    path: str
    lines_added: int
    lines_deleted: int
    added_chunks: tuple[int, ...] = ()
    deleted_chunks: tuple[int, ...] = ()
    unit_risks: tuple[UnitRisk, ...] | None = None

    def __post_init__(self):
        if self.lines_added < 0 or self.lines_deleted < 0:
            raise ValueError(f"negative line count in change of {self.path}")
        if any(c < 1 for c in self.added_chunks + self.deleted_chunks):
            raise ValueError(f"chunk start line < 1 in change of {self.path}")


@dataclass(frozen=True)
class Commit:
    id: CommitId
    timestamp: datetime
    author: str
    message: str
    file_changes: tuple[FileChange, ...]

    @property
    def changed_files(self) -> frozenset[str]:
        return frozenset(fc.path for fc in self.file_changes)


@dataclass(frozen=True)
class ChangeSet:
    """Commits and changed files (chn) of one build.

    The impacted set (imp) is not stored: it is derived from the
    dependency graph when features are computed.
    """

    build: BuildId
    commits: tuple[CommitId, ...]
    changed_files: frozenset[str]


@dataclass(frozen=True)
class Build:
    id: BuildId
    change_set: ChangeSet
    records: tuple[ExecutionRecord, ...]
    wall_clock: datetime | None = None

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("build ordinal must be positive")
        seen = set()
        for r in self.records:
            if r.test in seen:
                raise ValueError(f"duplicate record for test {r.test} in build {self.id}")
            seen.add(r.test)

    @property
    def failed(self) -> bool:
        """A build is failed iff at least one record has a failing verdict."""
        return any(is_failed(r.verdict) for r in self.records)

    @property
    def tests(self) -> tuple[TestId, ...]:
        return tuple(r.test for r in self.records)


@dataclass(frozen=True)
class AssociationScores:
    """Support/confidence/lift of one dependency edge."""

    support: float
    confidence: float
    lift: float

    def __post_init__(self):
        if not (0.0 <= self.support <= 1.0 and 0.0 <= self.confidence <= 1.0):
            raise ValueError("support/confidence out of [0, 1]")
        if self.lift < 0.0:
            raise ValueError("negative lift")


ZERO_SCORES = AssociationScores(0.0, 0.0, 0.0)


class BuildHistory:
    """An ordered sequence of builds plus the commit store linking them.

    Immutable after construction; commits are kept in global build order so
    "all commits up to build k" is a prefix of :attr:`commit_sequence`.
    """

    def __init__(self, builds: list[Build], commits: dict[CommitId, Commit]):
        self.builds: tuple[Build, ...] = tuple(sorted(builds, key=lambda b: b.id))
        ids = [b.id for b in self.builds]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate build ordinals")
        self.commits: dict[CommitId, Commit] = dict(commits)
        self._by_id = {b.id: b for b in self.builds}
        # Global commit sequence in build order; commits not referenced by
        # any build (e.g. pre-history) come first in their original order.
        referenced = []
        seen = set()
        for b in self.builds:
            for cid in b.change_set.commits:
                if cid not in self.commits:
                    raise ValueError(f"build {b.id} references unknown commit {cid}")
                if cid not in seen:
                    referenced.append(cid)
                    seen.add(cid)
        unreferenced = [cid for cid in self.commits if cid not in seen]
        self.commit_sequence: tuple[Commit, ...] = tuple(
            self.commits[cid] for cid in unreferenced + referenced
        )
        self._commit_cutoff: dict[BuildId, int] = {}
        pos = {c.id: i for i, c in enumerate(self.commit_sequence)}
        cutoff = len(unreferenced)
        for b in self.builds:
            for cid in b.change_set.commits:
                cutoff = max(cutoff, pos[cid] + 1)
            self._commit_cutoff[b.id] = cutoff

    def build(self, build_id: BuildId) -> Build:
        return self._by_id[build_id]

    def __contains__(self, build_id: BuildId) -> bool:
        return build_id in self._by_id

    def commits_up_to(self, build_id: BuildId) -> tuple[Commit, ...]:
        """All commits of builds with ordinal <= build_id, in build order."""
        return self.commit_sequence[: self._commit_cutoff[build_id]]

    @property
    def failed_builds(self) -> tuple[Build, ...]:
        return tuple(b for b in self.builds if b.failed)

    def builds_before(self, build_id: BuildId) -> tuple[Build, ...]:
        return tuple(b for b in self.builds if b.id < build_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BuildHistory):
            return NotImplemented
        return self.builds == other.builds and self.commits == other.commits

    def __repr__(self) -> str:
        return f"BuildHistory({len(self.builds)} builds, {len(self.commits)} commits)"
