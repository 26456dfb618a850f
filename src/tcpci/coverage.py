"""Dependency graph, co-change association mining, and fault counts.

Coverage here is *static*: a test file covers the source files it reaches
through import/call edges.  Edge weights come from association mining over
the commit history — for a source file f and test t,

    cov_score(f, t) = confidence(f -> t) = p_cnt(f, t) / cnt(f)

where p_cnt counts commits changing both files and cnt counts commits
changing f.  All mining queries take a commit-prefix cutoff so features for
build k never see commits after k.
"""

from __future__ import annotations

import bisect

from .errors import UnknownTestError
from .model import AssociationScores, Commit, ZERO_SCORES
from .code_analysis import FileIndex, analyze_file, is_test_file


class DependencyGraph:
    """Static import/call edges among repository files.

    ``deps[p]`` is the set of files p depends on.  Tests and system-under-
    test (SUT) files are distinguished by path convention.
    """

    def __init__(self, deps: dict[str, frozenset[str]]):
        self.deps: dict[str, frozenset[str]] = {p: frozenset(t) for p, t in deps.items()}
        self.files: frozenset[str] = frozenset(self.deps)
        self.tests: frozenset[str] = frozenset(p for p in self.files if is_test_file(p))
        self.sut_files: frozenset[str] = self.files - self.tests
        self._dependents: dict[str, set[str]] = {p: set() for p in self.files}
        for p, targets in self.deps.items():
            for t in targets:
                self._dependents.setdefault(t, set()).add(p)

    def covered_files(self, test: str) -> frozenset[str]:
        """SUT files a test depends on directly."""
        if test not in self.deps:
            raise UnknownTestError(f"{test} is not a node of the dependency graph")
        return self.deps[test] & self.sut_files

    def impacted_files(self, changed: frozenset[str], depth: int = 1) -> frozenset[str]:
        """SUT files reachable by reverse edges from the changed set.

        Breadth-first up to ``depth`` hops; the changed
        files themselves are excluded so chn and imp stay disjoint.
        """
        frontier = set(changed)
        seen = set(changed)
        for _ in range(depth):
            nxt = set()
            for p in frontier:
                nxt |= self._dependents.get(p, set()) - seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return frozenset((seen - set(changed)) & self.sut_files)


def build_dependency_graph_from_sources(sources: dict[str, str]) -> DependencyGraph:
    """Build the graph from an in-memory {path: source-text} mapping."""
    index = FileIndex(set(sources))
    deps: dict[str, frozenset[str]] = {}
    for path, text in sources.items():
        _, entity = analyze_file(text, path, index)
        deps[path] = entity.import_targets | entity.call_targets
    return DependencyGraph(deps)


class AssociationMiner:
    """Prefix-aware co-change counting over an ordered commit sequence.

    Stores, per file, the sorted list of commit indices that changed it;
    pair and single counts under a cutoff reduce to bisections and sorted
    intersections, so scoring is lazy and cheap.
    """

    def __init__(self, commits: tuple[Commit, ...] | list[Commit]):
        self.commits = tuple(commits)
        self._file_commits: dict[str, list[int]] = {}
        for i, c in enumerate(self.commits):
            for p in c.changed_files:
                self._file_commits.setdefault(p, []).append(i)
        self._pair_cache: dict[tuple[str, str], list[int]] = {}

    def _indices(self, path: str) -> list[int]:
        return self._file_commits.get(path, [])

    def _pair_indices(self, f: str, g: str) -> list[int]:
        key = (f, g) if f <= g else (g, f)
        cached = self._pair_cache.get(key)
        if cached is None:
            a, b = self._indices(key[0]), self._indices(key[1])
            if len(a) > len(b):
                a, b = b, a
            bset = set(b)
            cached = [i for i in a if i in bset]
            self._pair_cache[key] = cached
        return cached

    def count(self, path: str, n_commits: int) -> int:
        return bisect.bisect_left(self._indices(path), n_commits)

    def pair_count(self, f: str, g: str, n_commits: int) -> int:
        return bisect.bisect_left(self._pair_indices(f, g), n_commits)

    def scores(self, f: str, g: str, n_commits: int | None = None) -> AssociationScores:
        """Support/confidence/lift of the directed pair (f, g).

        ``n_commits`` restricts mining to the first n commits; zero counts
        yield zero scores rather than a division error.
        """
        n = len(self.commits) if n_commits is None else min(n_commits, len(self.commits))
        if n == 0:
            return ZERO_SCORES
        p = self.pair_count(f, g, n)
        if p == 0:
            return ZERO_SCORES
        cf = self.count(f, n)
        cg = self.count(g, n)
        return AssociationScores(
            support=p / n,
            confidence=p / cf if cf else 0.0,
            lift=p / (cf * cg) if cf and cg else 0.0,
        )

    def cov_score(self, file: str, test: str, n_commits: int | None = None) -> float:
        """Weight of a covered file for a test: confidence(file -> test)."""
        return self.scores(file, test, n_commits).confidence


class PdfIndex:
    """Per-file defect-fix commit counts (PDF), prefix-queryable.

    ``classify`` maps a commit message to True when the commit fixes a
    defect; the default is the keyword rule applied to stemmed tokens.
    """

    def __init__(self, commits: tuple[Commit, ...] | list[Commit], classify=None):
        if classify is None:
            from .commit_classifier import is_defect_fix_keyword as classify
        self._fix_commits: dict[str, list[int]] = {}
        self.commits = tuple(commits)
        for i, c in enumerate(self.commits):
            if classify(c.message):
                for p in c.changed_files:
                    self._fix_commits.setdefault(p, []).append(i)

    def pdf(self, path: str, n_commits: int | None = None) -> int:
        idx = self._fix_commits.get(path, [])
        if n_commits is None:
            return len(idx)
        return bisect.bisect_left(idx, n_commits)


def normalize_scores(values: list[float]) -> list[float]:
    """Divide by the sum; an all-zero input stays all zero."""
    total = sum(values)
    if total == 0:
        return [0.0 for _ in values]
    return [v / total for v in values]
