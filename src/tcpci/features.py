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

Every group is table algebra.  REC reads one table of all executions in
(test, build) order, where a test's executions before build k are the rows
from its first up to its row at k.  Each other group, per build, multiplies
a (row, file, weight) pair table by a per-file metric table and adds it
into the matrix with ``np.add.at`` in pair order.  The TES groups pair each
test with its own file at weight 1; the five coverage groups pair it with
its covered files at normalized association weights, one table for the
changed set and one for the impacted set.  Pair order is the order a
per-test loop would add in, so the sums are the same to the last bit (a
dense matmul would reorder them).

Timing: preprocessing (index construction) and measurement (per-build
feature computation) wall-clock are accumulated per group; shared
preprocessing steps attribute their full cost to every group using them.
Every source file's row (its imports, type names and complexity metrics,
see :func:`~tcpci.code_analysis.source_row`) is computed, unless the
sources hold it already, and resolved into the dependency graph as
preprocessing of the five coverage groups.  TES_COM and TES_CHN need no
preprocessing, so their P is 0 by construction: TES_COM and COD_COV_COM
only look a file's metrics up in its row.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import (
    CATALOG,
    COMPLEXITY_METRICS,
    REC_FEATURES,
    FeatureGroup,
)
from .code_analysis import ProcessHistory, compute_change_metrics, with_rows
from .coverage import AssociationMiner, PdfIndex, build_dependency_graph_from_sources
from .errors import check_option
from .matrix import FeatureMatrix
from .model import BuildHistory, Verdict

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


@contextmanager
def _timed(seconds: dict[FeatureGroup, float], groups: tuple[FeatureGroup, ...]):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    for g in groups:
        seconds[g] += dt


class Timings:
    """Per-group preprocessing (P) and measurement (M) seconds."""

    def __init__(self):
        self.p = {g: 0.0 for g in FeatureGroup}
        self.m = {g: 0.0 for g in FeatureGroup}

    def preprocessing(self, *groups: FeatureGroup):
        return _timed(self.p, groups)

    def measurement(self, *groups: FeatureGroup):
        return _timed(self.m, groups)

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
    """(row, file, weight) table of one build; rows ascend and files ascend
    by path within a row."""

    rows: np.ndarray
    files: Sequence[str]
    w: np.ndarray


class FeatureExtractor:
    """Computes feature matrices for builds of one history.

    ``sources`` maps repository-relative paths to file text, with each
    file's row when it is a :class:`~tcpci.code_analysis.Sources`; when
    omitted, files referenced by tests/commits have no static metrics and
    those features default to zero.  The REC ``Recent*`` features read a
    test's latest ``recent_window`` executions.
    """

    def __init__(
        self,
        history: BuildHistory,
        sources: dict[str, str] | None = None,
        recent_window: int = 6,
        impact_depth: int = 1,
    ):
        check_option("recent_window", recent_window, int, 1)
        check_option("impact_depth", impact_depth, int, 0)
        self.history = history
        self.recent_window = recent_window
        self.impact_depth = impact_depth
        self.timings = Timings()

        with self.timings.preprocessing(*_COV_GROUPS):
            sources = with_rows(sources or {})
            self._source_rows = sources.rows
            self._graph = build_dependency_graph_from_sources(sources)
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
            self._pdf = PdfIndex(history.commit_sequence)

        with self.timings.preprocessing(FeatureGroup.REC):
            # the execution table: one row per record, stably sorted by
            # (test, build), so each test's executions are contiguous rows
            builds = history.builds
            tests = [t for b in builds for t in b.tests]
            code = {t: i for i, t in enumerate(sorted(set(tests)))}
            tcode = np.fromiter(map(code.__getitem__, tests), np.intp, len(tests))
            order = np.argsort(tcode, kind="stable")
            counts = np.bincount(tcode, minlength=len(code))
            starts = np.cumsum(counts) - counts  # each test's first row
            self._head = np.repeat(starts, counts)
            self._build_ids = np.array([b.id for b in builds])
            sizes = [len(b.tests) for b in builds]
            # the build as its position in history.builds
            self._build = np.repeat(np.arange(len(builds)), sizes)[order]
            verdict = np.concatenate([np.empty(0, np.int8), *(b.verdicts for b in builds)])[order]
            self._dur = np.concatenate([np.empty(0), *(b.durations for b in builds)])[order]
            self._failed = verdict != Verdict.PASSED
            flip = np.diff(self._failed, prepend=False)
            flip[starts] = False  # a test's first execution is no transition
            # each kind of event as its sorted rows after a -1 sentinel: with
            # i = searchsorted(e, r), i - 1 events precede row r, and e[i - 1]
            # is the last of them (the sentinel if there is none)
            kinds = (verdict == Verdict.ASSERTION_FAILURE, verdict == Verdict.EXCEPTION_FAILURE)
            self._events = [np.r_[-1, np.flatnonzero(e)] for e in (self._failed, *kinds, flip)]
            # each build's rows, which a stable sort by build keeps in test order
            at_build = np.split(np.argsort(self._build, kind="stable"), np.cumsum(sizes)[:-1])
            self._rows = dict(zip([b.id for b in builds], at_build))
            self._file_builds: dict[str, list[int]] = {}  # positions of its builds
            for i, b in enumerate(builds):
                for p in history.changed_files(b.id):
                    self._file_builds.setdefault(p, []).append(i)

        self._pro_cache: dict[tuple[str, int], np.ndarray] = {}
        self._warned_missing: set[str] = set()

    # -- snapshots -------------------------------------------------------

    def snapshot(self, build_id: int) -> Snapshot:
        """Commit cutoff as of a build (commits up to and including it)."""
        return Snapshot(build=build_id, n_commits=self.history.n_commits(build_id))

    # -- REC -------------------------------------------------------------

    def _rec(self, p: np.ndarray, k: int, chn: frozenset[str]) -> np.ndarray:
        """The REC block of build k.  ``p`` holds each test's row at k, so
        the test's earlier executions are the table rows [head, p)."""
        s = self._head[p]
        out = np.zeros((len(p), len(REC_FEATURES)))
        out[:, [1, 2, 17, 18]] = -1.0  # LastFailAge, LastTransitionAge, MaxTestFile*Rate
        old = p > s
        p, s = p[old], s[old]
        fails, asserts, excs, flips = self._events

        def age(rows: np.ndarray) -> np.ndarray:
            return k - self._build_ids[self._build[rows]]

        def count(e: np.ndarray, lo: np.ndarray) -> np.ndarray:  # events in rows [lo, p)
            return np.searchsorted(e, p) - np.searchsorted(e, lo)

        def since(e: np.ndarray) -> np.ndarray:  # builds between the last event and k
            last = e[np.searchsorted(e, p) - 1]
            return np.where(last >= s, age(last) - 1, -1.0)

        cols = [age(s), since(fails), since(flips), self._failed[p - 1], self._dur[p - 1]]
        # Recent* over the latest recent_window executions, then Total*; a
        # window's transitions are the flips after its first row (a window
        # longer than the table reads the rows one of its length reads)
        for lo in (np.maximum(s, p - min(self.recent_window, len(self._dur))), s):
            n = p - lo
            cols += self._durations(lo, n)
            cols += [count(e, lo) / n for e in (fails, asserts, excs)]
            cols.append(count(flips, lo + 1) / np.maximum(n - 1, 1))

        # MaxTestFileFailRate / MaxTestFileTransitionRate over chn(k): per
        # changed file, the test's events in builds that changed it
        touched = np.zeros((len(self._build_ids), len(chn)), dtype=bool)
        for j, f in enumerate(chn):
            touched[self._file_builds[f], j] = True
        for e in (fails, flips):
            lo, hi = np.searchsorted(e, s), np.searchsorted(e, p)
            hits = np.zeros((len(e) + 1, len(chn)), dtype=np.intp)  # events in e[1:j]
            np.cumsum(touched[self._build[e[1:]]], axis=0, out=hits[2:])
            top = (hits[hi] - hits[lo]).max(axis=1, initial=0)
            cols.append(np.divide(top, hi - lo, out=np.full(len(p), -1.0), where=hi > lo))
        out[old] = np.column_stack(cols)
        return out

    def _durations(self, lo: np.ndarray, n: np.ndarray) -> list[np.ndarray]:
        """Mean and max duration of each window of rows [lo, lo + n).  The
        windows of one length are reduced as one 2-D array along axis 1,
        which sums each in the order ``np.mean`` sums it alone."""
        mean, top = np.empty(len(n)), np.empty(len(n))
        for length in set(n.tolist()):  # np.unique would import numpy.ma
            sel = n == length
            d = np.lib.stride_tricks.sliding_window_view(self._dur, length)[lo[sel]]
            mean[sel], top[sel] = d.mean(axis=1), d.max(axis=1)
        return [mean, top]

    # -- per-file metric vectors ----------------------------------------

    def _com_vec(self, path: str) -> np.ndarray:
        """The complexity metrics of a file, from its row."""
        row = self._source_rows.get(path)
        if row is None:
            if path not in self._warned_missing:
                log.warning("no source analysis for %s; metrics default to 0", path)
                self._warned_missing.add(path)
            return np.zeros(len(COMPLEXITY_METRICS))
        return row.metrics

    def _pro_vec(self, path: str, n_commits: int) -> np.ndarray:
        key = (path, n_commits)
        vec = self._pro_cache.get(key)
        if vec is None:
            vec = np.array(self._process.metrics(path, n_commits), dtype=np.float64)
            self._pro_cache[key] = vec
        return vec

    # -- matrix assembly -------------------------------------------------

    def matrix(self, build_id: int, snapshot: Snapshot | None = None) -> FeatureMatrix:
        """Feature matrix of one build, one row per executed test.

        With an old ``snapshot``, mining-backed features reflect that
        snapshot's commit cutoff (the decay experiment); tests unknown to
        it, first run after its build, get snapshot-derived columns imputed
        with the column mean over known rows.
        """
        build = self.history.build(build_id)
        n_commits = (snapshot if snapshot is not None else self.snapshot(build_id)).n_commits
        tests = build.tests
        X = np.zeros((len(tests), len(CATALOG)))
        chn = self.history.changed_files(build_id)
        commits = [self.history.commits[c] for c in build.commits]
        changes = [fc for c in commits for fc in c.file_changes]
        tim = self.timings

        def block(group: FeatureGroup) -> np.ndarray:
            return X[:, CATALOG.group_slice(group)]

        with tim.measurement(FeatureGroup.REC):
            rows = self._rows[build_id]  # each test's row at k, in test order
            rec = block(FeatureGroup.REC)
            rec += self._rec(rows, build_id, chn)  # += turns -0.0 into 0.0

        # every other group scatters per-file metric vectors over a pair
        # table: the test's own file, or the changed and impacted halves
        own = [_Pairs(np.arange(len(tests)), tests, np.ones(len(tests)))]
        with tim.measurement(FeatureGroup.F_COV):
            nodes = np.array([self._node.get(t, -1) for t in tests], dtype=np.intp)
            imp = self._graph.impacted_files(chn, self.impact_depth)
            halves = [self._pairs(tests, nodes, files, n_commits) for files in (chn, imp)]
            f_cov = block(FeatureGroup.F_COV)  # CovC, CovI, SumCovC, SumCovI
            for h, p in enumerate(halves):
                np.add.at(f_cov[:, h::2], p.rows, np.column_stack([np.ones_like(p.w), p.w]))

        def pro_vec(path: str) -> np.ndarray:
            return self._pro_vec(path, n_commits)

        def chn_vec(path: str) -> np.ndarray:
            return np.array(compute_change_metrics(path, changes), dtype=np.float64)

        def pdf_vec(path: str) -> np.ndarray:
            return self._pdf.pdf(path, n_commits)

        for group, pairs, vec in (
            (FeatureGroup.TES_COM, own, self._com_vec),
            (FeatureGroup.TES_PRO, own, pro_vec),
            (FeatureGroup.TES_CHN, own, chn_vec),
            (FeatureGroup.COD_COV_COM, halves, self._com_vec),
            (FeatureGroup.COD_COV_PRO, halves, pro_vec),
            (FeatureGroup.COD_COV_CHN, halves[:1], chn_vec),
            (FeatureGroup.DET_COV, halves, pdf_vec),
        ):
            with tim.measurement(group):
                self._spread(block(group), pairs, vec)

        if snapshot is not None:
            self._impute_unknown(X, rows, snapshot)

        labels = self._failed[rows].astype(np.float64) if build.tests else None
        return FeatureMatrix(build=build_id, tests=tests, values=X, labels=labels)

    def _pairs(
        self, tests: tuple[str, ...], nodes: np.ndarray, files: frozenset[str], n_commits: int
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
    def _spread(block: np.ndarray, tables: list[_Pairs], vec) -> None:
        """Add weight x ``vec(file)`` of every pair of ``tables[h]`` into the
        h-th of ``len(tables)`` equal column slices of ``block``.

        ``vec`` is called once per distinct file of a pair table.
        ``np.add.at`` adds pairs in order, so each cell sums its files in
        path order, exactly as a per-test loop would.
        """
        width = block.shape[1] // len(tables)
        for h, p in enumerate(tables):
            vecs = {f: vec(f) for f in dict.fromkeys(p.files)}
            table = np.array([vecs[f] for f in p.files]).reshape(len(p.files), width)
            np.add.at(block[:, h * width : (h + 1) * width], p.rows, p.w[:, None] * table)

    def _impute_unknown(self, X: np.ndarray, rows: np.ndarray, snapshot: Snapshot) -> None:
        """Mean-substitute, in place, the snapshot-derived columns of the
        tests first run after the snapshot's build.  ``rows`` holds each
        test's table row at the build, so ``_head[rows]`` is its first."""
        known = self._build_ids[self._build[self._head[rows]]] <= snapshot.build
        if known.all() or not known.any():
            return
        cols = [i for g in SNAPSHOT_GROUPS for i in CATALOG.group_indices(g)]
        X[np.ix_(~known, cols)] = X[known][:, cols].mean(axis=0)
