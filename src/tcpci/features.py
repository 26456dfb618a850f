"""Assembles the 150-feature vector per (build, test).

Nine feature groups from three kinds of raw data:

* execution records   -> REC (failure/transition history of the test);
* the test's own file -> TES_COM / TES_PRO / TES_CHN (complexity, process,
  and per-build change metrics);
* the dependency graph + changed files -> F_COV, COD_COV_COM/PRO/CHN,
  DET_COV (covered-file counts, association-weighted metric sums, and
  weighted previously-detected-fault counts).

Anti-leakage rule: no feature of build k reads build k's verdicts or
durations; everything history-derived uses builds strictly before k and
commits up to k.  The mining indices are built once over the whole
history and answer prefix queries; a :class:`Snapshot` is only the
commit-prefix cutoff they are asked at.  The retraining decay experiment
reuses this path with an old snapshot.

The five coverage groups are table algebra: per build, a (row, covered
file, normalized weight) pair table for the changed set and one for the
impacted set, each multiplied by a per-file metric table and accumulated
into the matrix with ``np.add.at`` in pair order.  That order is the one
a per-test loop would add in, so the sums are the same to the last bit
(a dense matmul would reorder them).

Timing: preprocessing (index construction) and measurement (per-build
feature computation) wall-clock are accumulated per group; shared
preprocessing steps attribute their full cost to every group using them.
TES_CHN needs no preprocessing, so its P is 0 by construction.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import (
    CATALOG,
    CHANGE_METRICS,
    COMPLEXITY_METRICS,
    PROCESS_METRICS,
    REC_FEATURES,
    FeatureGroup,
)
from .code_analysis import (
    ComplexityMetrics,
    FileIndex,
    ProcessHistory,
    analyze_file,
    compute_change_metrics,
)
from .coverage import AssociationMiner, DependencyGraph, PdfIndex
from .matrix import FeatureMatrix
from .model import Build, BuildHistory, FileChange, Verdict, is_failed

log = logging.getLogger(__name__)

#: Groups whose values derive from preprocessed snapshots (imputed for
#: tests unknown to an old snapshot in the decay experiment).
SNAPSHOT_GROUPS = (
    FeatureGroup.TES_COM,
    FeatureGroup.TES_PRO,
    FeatureGroup.F_COV,
    FeatureGroup.COD_COV_COM,
    FeatureGroup.COD_COV_PRO,
    FeatureGroup.COD_COV_CHN,
    FeatureGroup.DET_COV,
)

_COV_GROUPS = (
    FeatureGroup.F_COV,
    FeatureGroup.COD_COV_COM,
    FeatureGroup.COD_COV_PRO,
    FeatureGroup.COD_COV_CHN,
    FeatureGroup.DET_COV,
)


@dataclass(frozen=True)
class RecWindow:
    """How many of the latest executions count as "recent"."""

    recent_size: int = 6

    def __post_init__(self):
        if self.recent_size < 1:
            raise ValueError("recent_size must be >= 1")


class _TestHistory:
    """Ordered execution history of one test across builds."""

    def __init__(self):
        self.builds: list[int] = []
        self.failed: list[bool] = []
        self.verdicts: list[Verdict] = []
        self.durations: list[float] = []
        self.fail_builds: list[int] = []
        self.trans_builds: list[int] = []

    def append(self, build: int, verdict: Verdict, duration: float):
        f = is_failed(verdict)
        if self.failed and self.failed[-1] != f:
            self.trans_builds.append(build)
        if f:
            self.fail_builds.append(build)
        self.builds.append(build)
        self.failed.append(f)
        self.verdicts.append(verdict)
        self.durations.append(duration)


class Timings:
    """Per-group preprocessing (P) and measurement (M) seconds."""

    def __init__(self):
        self.p = {g: 0.0 for g in FeatureGroup}
        self.m = {g: 0.0 for g in FeatureGroup}

    @contextmanager
    def preprocessing(self, *groups: FeatureGroup):
        t0 = time.perf_counter()
        yield
        dt = time.perf_counter() - t0
        for g in groups:
            self.p[g] += dt

    @contextmanager
    def measurement(self, *groups: FeatureGroup):
        t0 = time.perf_counter()
        yield
        dt = time.perf_counter() - t0
        for g in groups:
            self.m[g] += dt

    def rows(self) -> list[tuple[str, float, float, float]]:
        return [
            (g.value, self.p[g], self.m[g], self.p[g] + self.m[g])
            for g in FeatureGroup
        ]


@dataclass(frozen=True)
class Snapshot:
    """A commit cutoff frozen at one build.

    Every mining index (association, process history, fault counts)
    answers prefix queries, so a snapshot is just the build and the
    number of commits visible at it.
    """

    build: int
    n_commits: int


class _Pairs(NamedTuple):
    """(row, covered file, normalized weight) table of one build; rows ascend
    and files ascend by path within a row."""

    rows: np.ndarray
    files: list[str]
    w: np.ndarray


class FeatureExtractor:
    """Computes feature matrices for builds of one history.

    ``sources`` maps repository-relative paths to file text; when omitted,
    files referenced by tests/commits have no static metrics and those
    features default to zero.
    """

    def __init__(
        self,
        history: BuildHistory,
        sources: dict[str, str] | None = None,
        classify=None,
        rec_window: RecWindow = RecWindow(),
        impact_depth: int = 1,
    ):
        self.history = history
        self.rec_window = rec_window
        self.impact_depth = impact_depth
        self.timings = Timings()
        sources = sources or {}

        with self.timings.preprocessing(FeatureGroup.TES_COM, FeatureGroup.COD_COV_COM):
            index = FileIndex(set(sources))
            self._complexity: dict[str, ComplexityMetrics] = {}
            entities = {}
            for path in sorted(sources):
                self._complexity[path], entities[path] = analyze_file(sources[path], path, index)
            self._com_arrays = {
                p: np.array([m.value(n) for n in COMPLEXITY_METRICS])
                for p, m in self._complexity.items()
            }

        with self.timings.preprocessing(*_COV_GROUPS):
            self._graph = DependencyGraph(
                {p: e.import_targets | e.call_targets for p, e in entities.items()}
            )
            self._miner = AssociationMiner(history.commit_sequence)
            # coverage as a table: graph node x SUT file (in path order), plus
            # an all-False last row for tests outside the graph
            self._sut = sorted(self._graph.sut_files)
            self._sut_id = {f: j for j, f in enumerate(self._sut)}
            self._node = {p: i for i, p in enumerate(self._graph.deps)}
            self._covers = np.zeros((len(self._node) + 1, len(self._sut)), dtype=bool)
            for p, i in self._node.items():
                self._covers[i, [self._sut_id[f] for f in self._graph.covered_files(p)]] = True

        with self.timings.preprocessing(FeatureGroup.TES_PRO, FeatureGroup.COD_COV_PRO):
            self._process = ProcessHistory(history.commit_sequence)

        with self.timings.preprocessing(FeatureGroup.DET_COV):
            self._pdf = PdfIndex(history.commit_sequence, classify=classify)

        with self.timings.preprocessing(FeatureGroup.REC):
            self._tests: dict[str, _TestHistory] = {}
            self._file_builds: dict[str, list[int]] = {}
            for b in history.builds:
                for r in b.records:
                    self._tests.setdefault(r.test, _TestHistory()).append(
                        b.id, r.verdict, r.duration_ms
                    )
                for p in b.change_set.changed_files:
                    self._file_builds.setdefault(p, []).append(b.id)

        self._pro_cache: dict[tuple[str, int], np.ndarray] = {}
        self._warned_missing: set[str] = set()

    # -- snapshots -------------------------------------------------------

    def snapshot(self, build_id: int) -> Snapshot:
        """Commit cutoff as of a build (commits up to and including it)."""
        return Snapshot(build=build_id, n_commits=len(self.history.commits_up_to(build_id)))

    # -- REC -------------------------------------------------------------

    def _rec_row(self, test: str, k: int, earlier: list[set[int]]) -> np.ndarray:
        """The REC slice of one test; ``earlier`` holds, per changed file,
        the builds before k that changed it."""
        th = self._tests.get(test)
        pos = bisect_left(th.builds, k) if th is not None else 0
        rec = np.zeros(len(REC_FEATURES))
        if pos == 0:
            rec[1] = -1.0  # LastFailAge
            rec[2] = -1.0  # LastTransitionAge
            rec[17] = -1.0  # MaxTestFileFailRate (TF = 0)
            rec[18] = -1.0
            return rec
        fails_before = bisect_left(th.fail_builds, k)
        trans_before = bisect_left(th.trans_builds, k)
        rec[0] = k - th.builds[0]  # Age
        rec[1] = (k - th.fail_builds[fails_before - 1] - 1) if fails_before else -1.0
        rec[2] = (k - th.trans_builds[trans_before - 1] - 1) if trans_before else -1.0
        rec[3] = 1.0 if th.failed[pos - 1] else 0.0
        rec[4] = th.durations[pos - 1]

        durations = np.asarray(th.durations[:pos])
        failed = np.asarray(th.failed[:pos])
        verdicts = th.verdicts[:pos]
        w = self.rec_window.recent_size
        lo = max(0, pos - w)

        def stats(a: int) -> tuple[float, float, float, float, float, float]:
            d = durations[a:]
            f = failed[a:]
            v = verdicts[a:]
            n = len(d)
            avg_t = float(d.mean())
            max_t = float(d.max())
            fr = float(f.mean())
            ar = sum(1 for x in v if x is Verdict.ASSERTION_FAILURE) / n
            er = sum(1 for x in v if x is Verdict.EXCEPTION_FAILURE) / n
            tr = float((f[1:] != f[:-1]).sum() / (n - 1)) if n > 1 else 0.0
            return avg_t, max_t, fr, ar, er, tr

        rec[5:11] = stats(lo)
        rec[11:17] = stats(0)

        # MaxTestFileFailRate / MaxTestFileTransitionRate over chn(k)
        def max_file_rate(event_builds: list[int], n_events: int) -> float:
            if n_events == 0:
                return -1.0
            events = event_builds[:n_events]
            return max(
                (sum(1 for b in events if b in fb) / n_events for fb in earlier),
                default=0.0,
            )

        rec[17] = max_file_rate(th.fail_builds, fails_before)
        rec[18] = max_file_rate(th.trans_builds, trans_before)
        return rec

    # -- per-file metric vectors ----------------------------------------

    def _com_vec(self, path: str) -> np.ndarray:
        vec = self._com_arrays.get(path)
        if vec is None:
            if path not in self._warned_missing:
                log.warning("no source analysis for %s; metrics default to 0", path)
                self._warned_missing.add(path)
            return np.zeros(len(COMPLEXITY_METRICS))
        return vec

    def _pro_vec(self, path: str, n_commits: int) -> np.ndarray:
        key = (path, n_commits)
        vec = self._pro_cache.get(key)
        if vec is None:
            pm = self._process.metrics(path, n_commits - 1) if n_commits else None
            if pm is None:
                vec = np.zeros(len(PROCESS_METRICS))
            else:
                vec = np.array([pm.value(n) for n in PROCESS_METRICS])
            self._pro_cache[key] = vec
        return vec

    # -- matrix assembly -------------------------------------------------

    def _build_changes(self, build: Build) -> list[FileChange]:
        return [
            fc
            for cid in build.change_set.commits
            for fc in self.history.commits[cid].file_changes
        ]

    def matrix(self, build_id: int, snapshot: Snapshot | None = None) -> FeatureMatrix:
        """Feature matrix of one build, one row per executed test.

        With an old ``snapshot``, mining-backed features reflect that
        snapshot's commit cutoff (the decay experiment); tests unknown to
        the dependency graph get snapshot-derived columns imputed with the
        column mean over known rows.
        """
        build = self.history.build(build_id)
        n_commits = (snapshot if snapshot is not None else self.snapshot(build_id)).n_commits
        tests = sorted(build.tests)
        X = np.zeros((len(tests), len(CATALOG)))
        chn = build.change_set.changed_files
        changes = self._build_changes(build)
        tim = self.timings

        def block(group: FeatureGroup) -> np.ndarray:
            return X[:, CATALOG.group_slice(group)]

        with tim.measurement(FeatureGroup.REC):
            earlier = [
                set(fb[: bisect_left(fb, build_id)])
                for f in chn
                if (fb := self._file_builds.get(f))
            ]
            rec = block(FeatureGroup.REC)
            for i, t in enumerate(tests):
                rec[i] += self._rec_row(t, build_id, earlier)  # += turns -0.0 into 0.0

        with tim.measurement(FeatureGroup.TES_COM):
            com = block(FeatureGroup.TES_COM)
            for i, t in enumerate(tests):
                com[i] = self._com_vec(t)

        with tim.measurement(FeatureGroup.TES_PRO):
            pro = block(FeatureGroup.TES_PRO)
            for i, t in enumerate(tests):
                pro[i] = self._pro_vec(t, n_commits)

        chn_metric_cache: dict[str, np.ndarray] = {}

        def chn_vec(path: str) -> np.ndarray:
            vec = chn_metric_cache.get(path)
            if vec is None:
                cm = compute_change_metrics(path, changes)
                vec = np.array([cm.value(name) for name in CHANGE_METRICS])
                chn_metric_cache[path] = vec
            return vec

        with tim.measurement(FeatureGroup.TES_CHN):
            tes_chn = block(FeatureGroup.TES_CHN)
            for i, t in enumerate(tests):
                tes_chn[i] = chn_vec(t)

        # coverage groups: one pair table for the changed set and one for
        # the impacted set, times per-file metric tables
        with tim.measurement(FeatureGroup.F_COV):
            nodes = np.array([self._node.get(t, -1) for t in tests], dtype=np.intp)
            imp = self._graph.impacted_files(chn, self.impact_depth)
            halves = [self._pairs(tests, nodes, files, n_commits) for files in (chn, imp)]
            f_cov = block(FeatureGroup.F_COV)  # CovC, CovI, SumCovC, SumCovI
            for h, p in enumerate(halves):
                np.add.at(f_cov[:, h::2], p.rows, np.column_stack([np.ones_like(p.w), p.w]))

        with tim.measurement(FeatureGroup.COD_COV_COM):
            self._spread(block(FeatureGroup.COD_COV_COM), halves, self._com_vec)

        with tim.measurement(FeatureGroup.COD_COV_PRO):
            self._spread(
                block(FeatureGroup.COD_COV_PRO), halves, lambda f: self._pro_vec(f, n_commits)
            )

        with tim.measurement(FeatureGroup.COD_COV_CHN):
            self._spread(block(FeatureGroup.COD_COV_CHN), halves[:1], chn_vec)

        with tim.measurement(FeatureGroup.DET_COV):
            self._spread(
                block(FeatureGroup.DET_COV), halves, lambda f: self._pdf.pdf(f, n_commits)
            )

        if snapshot is not None:
            self._impute_unknown(X, tests)

        labels = None
        if build.records:
            by_test = {r.test: r for r in build.records}
            labels = np.array(
                [1.0 if is_failed(by_test[t].verdict) else 0.0 for t in tests]
            )
        return FeatureMatrix(build=build_id, tests=tuple(tests), values=X, labels=labels)

    def _pairs(
        self, tests: list[str], nodes: np.ndarray, files: frozenset[str], n_commits: int
    ) -> _Pairs:
        """Each test's covered files within ``files``, with normalized
        association weights.

        A test whose covered set has all-zero raw scores gets uniform
        weights, so its weights sum to 1 exactly when the set is nonempty.
        """
        ids = np.array(sorted(self._sut_id[f] for f in files if f in self._sut_id), dtype=np.intp)
        rows, cols = np.nonzero(self._covers[np.ix_(nodes, ids)])
        paths = [self._sut[j] for j in ids[cols].tolist()]
        raw = np.array(
            [self._miner.cov_score(f, tests[r], n_commits) for r, f in zip(rows.tolist(), paths)],
            dtype=np.float64,
        )
        total = np.zeros(len(tests))
        np.add.at(total, rows, raw)
        uniform = total[rows] == 0
        count = np.bincount(rows, minlength=len(tests))[rows]
        w = np.where(uniform, 1.0 / count, raw / np.where(uniform, 1.0, total[rows]))
        return _Pairs(rows, paths, w)

    @staticmethod
    def _spread(block: np.ndarray, halves: list[_Pairs], vec) -> None:
        """Add weight x ``vec(file)`` of every pair into its half of ``block``.

        ``np.add.at`` adds pairs in order, so each cell sums its files in
        path order, exactly as a per-test loop would.
        """
        width = block.shape[1] // len(halves)
        for h, p in enumerate(halves):
            table = np.array([vec(f) for f in p.files]).reshape(len(p.files), width)
            np.add.at(block[:, h * width : (h + 1) * width], p.rows, p.w[:, None] * table)

    def _impute_unknown(self, X: np.ndarray, tests: list[str]) -> None:
        """Mean-substitute, in place, snapshot-derived columns of tests
        outside the dependency graph."""
        known = np.array([t in self._graph.files for t in tests])
        if known.all() or not known.any():
            return
        cols = [i for g in SNAPSHOT_GROUPS for i in CATALOG.group_indices(g)]
        X[np.ix_(~known, cols)] = X[known][:, cols].mean(axis=0)
