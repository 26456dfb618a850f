"""Core domain types shared by the whole pipeline.

Everything here is an immutable value object: builds, commits, execution
records, and the association scores mined from co-changes.  No I/O and no
algorithms beyond invariant checks.  A build names its commits; its changed
files (chn) follow from them, so :class:`BuildHistory` derives them and no
build stores a copy.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

import numpy as np

from .errors import DuplicateRecordError

# A build id is a positive ordinal; ordering equals chronological ordering.
BuildId = int
#: The largest build id: ids lie in [1, MAX_BUILD_ID], so an int64 holds each.
MAX_BUILD_ID = 2**63 - 1
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


_VERDICTS = tuple(Verdict)  # indexed by code


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

    def __post_init__(self):
        if self.lines_added < 0 or self.lines_deleted < 0:
            raise ValueError("negative line count in unit risk")


class _FileChangeFields(NamedTuple):
    path: str
    lines_added: int
    lines_deleted: int
    added_chunks: tuple[int, ...] = ()
    deleted_chunks: tuple[int, ...] = ()
    unit_risks: tuple[UnitRisk, ...] | None = None


class FileChange(_FileChangeFields):
    """Per-file diff of one commit, counted against the first parent.

    A tuple, so that a dataset's thousands of changes cost one allocation
    each.  Every way to make one (the constructor, ``_replace``, copy and
    pickle) goes through :meth:`__new__` and its checks.
    """

    __slots__ = ()

    def __new__(cls, path, lines_added, lines_deleted, added_chunks=(), deleted_chunks=(),
                unit_risks=None):
        if lines_added < 0 or lines_deleted < 0:
            raise ValueError(f"negative line count in change of {path}")
        if added_chunks and min(added_chunks) < 1 or deleted_chunks and min(deleted_chunks) < 1:
            raise ValueError(f"chunk start line < 1 in change of {path}")
        return tuple.__new__(
            cls, (path, lines_added, lines_deleted, added_chunks, deleted_chunks, unit_risks)
        )

    @classmethod
    def _make(cls, iterable) -> FileChange:
        return cls(*iterable)

    def __reduce__(self):
        return FileChange, tuple(self)


@dataclass(frozen=True)
class Commit:
    id: CommitId
    timestamp: datetime
    author: str
    message: str
    file_changes: tuple[FileChange, ...]

    def __post_init__(self):
        paths = [fc.path for fc in self.file_changes]
        if len(set(paths)) < len(paths):  # a repeat would count as two touches
            twice = max(paths, key=paths.count)
            raise DuplicateRecordError(f"commit {self.id!r} lists {twice!r} twice")

    @property
    def changed_files(self) -> frozenset[str]:
        return frozenset(fc.path for fc in self.file_changes)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Build:
    """One build: its commits and its executions after job deduplication.

    The executions are stored once, as columns in test order: ``tests``
    (strictly ascending), ``verdicts`` (the :class:`Verdict` codes, int8)
    and ``durations`` (milliseconds, float64); the constructor makes both
    arrays read-only.  :meth:`from_records` builds the columns from
    :class:`ExecutionRecord` values, and :attr:`records` makes them back.
    """

    id: BuildId
    commits: tuple[CommitId, ...]
    tests: tuple[TestId, ...]
    verdicts: np.ndarray
    durations: np.ndarray
    wall_clock: datetime | None = None

    def __post_init__(self):
        if not 1 <= self.id <= MAX_BUILD_ID:
            raise ValueError(f"build ordinal must be in [1, {MAX_BUILD_ID}], got {self.id}")
        for a, b in zip(self.tests, self.tests[1:]):
            if a >= b:
                raise ValueError(f"build {self.id}: test {b} is a duplicate or out of order")
        self.verdicts.flags.writeable = self.durations.flags.writeable = False

    @classmethod
    def from_records(
        cls,
        id: BuildId,
        commits: tuple[CommitId, ...],
        records: tuple[ExecutionRecord, ...],
        wall_clock: datetime | None = None,
    ) -> Build:
        """A build whose columns are ``records``, all of build ``id``, in test order."""
        if any(r.build != id for r in records):
            raise ValueError(f"build {id} given a record of another build")
        records = sorted(records, key=lambda r: r.test)
        tests = tuple(r.test for r in records)
        verdicts = np.array([r.verdict for r in records], dtype=np.int8)
        durations = np.array([r.duration_ms for r in records], dtype=np.float64)
        return cls(id, commits, tests, verdicts, durations, wall_clock)

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return Build, tuple(getattr(self, name) for name in self.__slots__)

    @property
    def records(self) -> tuple[ExecutionRecord, ...]:
        """One record per execution, in test order."""
        return tuple(
            map(
                ExecutionRecord,
                itertools.repeat(self.id),
                self.tests,
                map(_VERDICTS.__getitem__, self.verdicts.tolist()),
                self.durations.tolist(),
            )
        )

    @property
    def failed(self) -> bool:
        """A build is failed iff at least one record has a failing verdict."""
        return bool(self.verdicts.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Build):
            return NotImplemented
        return (
            (self.id, self.commits, self.wall_clock, self.tests)
            == (other.id, other.commits, other.wall_clock, other.tests)
            and np.array_equal(self.verdicts, other.verdicts)
            and np.array_equal(self.durations, other.durations)
        )

    def __hash__(self) -> int:
        return hash((self.id, self.commits, self.tests))

    def __repr__(self) -> str:
        return f"Build(id={self.id}, {len(self.tests)} executions)"


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
    Each build's changed files (chn), the union of its commits' files, are
    derived once here; the impacted set (imp) is derived from the
    dependency graph when features are computed.
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
        referenced: dict[CommitId, None] = {}  # in order of first reference
        n_referenced: dict[BuildId, int] = {}
        for b in self.builds:
            for cid in b.commits:
                if cid not in self.commits:
                    raise ValueError(f"build {b.id} references unknown commit {cid}")
                referenced[cid] = None
            n_referenced[b.id] = len(referenced)
        unreferenced = [cid for cid in self.commits if cid not in referenced]
        self.commit_sequence: tuple[Commit, ...] = tuple(
            self.commits[cid] for cid in [*unreferenced, *referenced]
        )
        # a build sees the commits up to the last one it or an earlier build names
        self._commit_cutoff = {bid: len(unreferenced) + n for bid, n in n_referenced.items()}
        self._changed: dict[BuildId, frozenset[str]] = {
            b.id: frozenset(p for cid in b.commits for p in self.commits[cid].changed_files)
            for b in self.builds
        }

    def build(self, build_id: BuildId) -> Build:
        return self._by_id[build_id]

    def __contains__(self, build_id: BuildId) -> bool:
        return build_id in self._by_id

    def changed_files(self, build_id: BuildId) -> frozenset[str]:
        """The changed files (chn) of a build: every file its commits touch."""
        return self._changed[build_id]

    def n_commits(self, build_id: BuildId) -> int:
        """The length of the prefix of :attr:`commit_sequence` visible at a build."""
        return self._commit_cutoff[build_id]

    @property
    def failed_builds(self) -> tuple[Build, ...]:
        return tuple(b for b in self.builds if b.failed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BuildHistory):
            return NotImplemented
        return self.builds == other.builds and self.commits == other.commits

    def __repr__(self) -> str:
        return f"BuildHistory({len(self.builds)} builds, {len(self.commits)} commits)"
