import csv
import hashlib
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpci.catalog import CATALOG, COMPLEXITY_METRICS, REC_FEATURES, FeatureGroup
from tcpci.code_analysis import analyze_file, is_test_file
from tcpci.coverage import build_dependency_graph_from_sources, is_defect_fix_keyword
from tcpci.features import SNAPSHOT_GROUPS, FeatureExtractor
from tcpci.ingest import write_dataset
from tcpci.matrix import FeatureMatrix
from tcpci.model import (
    Build,
    BuildHistory,
    Commit,
    ExecutionRecord,
    FileChange,
    Verdict,
)
from tcpci.synth import SynthConfig, generate_synthetic_history, load_sources
from test_acceptance import DRIFT_CFG

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)

T = "src/test/TTest.java"
F1 = "src/app/F1.java"
F2 = "src/app/F2.java"

P, A, E, U = (
    Verdict.PASSED, Verdict.ASSERTION_FAILURE, Verdict.EXCEPTION_FAILURE, Verdict.UNKNOWN_FAILURE
)


def make_history(build_specs):
    """build_specs: list of (changed_paths, records) per build (1-based ids)."""
    commits = {}
    builds = []
    for k, (changed, records) in enumerate(build_specs, start=1):
        cid = f"{k:040x}"
        commits[cid] = Commit(
            id=cid,
            timestamp=TS,
            author="dev",
            message="update",
            file_changes=tuple(FileChange(p, 1, 0) for p in sorted(changed)),
        )
        builds.append(
            Build.from_records(
                id=k,
                commits=(cid,),
                records=tuple(
                    ExecutionRecord(k, t, v, d) for t, v, d in sorted(records)
                ),
            )
        )
    return BuildHistory(builds, commits)


def default_sources():
    return {
        F1: "public class F1 { }\n",
        F2: "public class F2 { }\n",
        T: "import app.F1;\nimport app.F2;\npublic class TTest { }\n",
    }


def rec(matrix: FeatureMatrix, test: str, name: str) -> float:
    return float(matrix.values[matrix.tests.index(test), CATALOG.index(name)])


def test_matrix_has_150_columns_and_sorted_rows():
    history = make_history([({F1}, [(T, P, 1.0)])], )
    ex = FeatureExtractor(history, default_sources())
    m = ex.matrix(1)
    assert m.values.shape == (1, 150)
    assert list(m.tests) == sorted(m.tests)


def test_empty_build_gives_zero_rows():
    history = make_history([({F1}, [(T, P, 1.0)]), ({F1}, [])])
    ex = FeatureExtractor(history, default_sources())
    assert ex.matrix(2).values.shape == (0, 150)


def test_rec_fail_and_transition_rates():
    # verdict sequence P, F, P, F before build 5
    specs = [({F1}, [(T, v, 10.0)]) for v in (P, A, P, A)]
    specs.append(({F1}, [(T, P, 10.0)]))
    history = make_history(specs)
    ex = FeatureExtractor(history, default_sources())
    m = ex.matrix(5)
    assert rec(m, T, "TotalFailRate") == 0.5
    assert rec(m, T, "TotalTransitionRate") == 1.0
    assert rec(m, T, "TotalAssertRate") == 0.5
    assert rec(m, T, "TotalExcRate") == 0.0
    assert rec(m, T, "LastVerdict") == 1.0
    assert rec(m, T, "LastFailAge") == 0.0  # failed at build 4, current 5
    assert rec(m, T, "Age") == 4.0  # first executed at build 1

    # an unknown failure counts as a failure but as neither an assertion nor
    # an exception; the recent window holds the latest 3 of 6 executions
    verdicts = (P, A, U, P, E, U)  # failed 0 1 1 0 1 1: flips at builds 2, 4, 5
    changed = ({F1}, {F1}, {F2}, {F2}, {F1}, {F1}, {F1, F2})
    specs = [(c, [(T, v, 10.0)]) for c, v in zip(changed, verdicts + (P,))]
    ex = FeatureExtractor(make_history(specs), default_sources(), recent_window=3)
    m = ex.matrix(7)
    expected = {
        "TotalFailRate": 4 / 6,
        "TotalAssertRate": 1 / 6,
        "TotalExcRate": 1 / 6,
        "TotalTransitionRate": 3 / 5,
        "RecentFailRate": 2 / 3,  # P, E, U
        "RecentAssertRate": 0.0,
        "RecentExcRate": 1 / 3,
        "RecentTransitionRate": 1 / 2,
        "LastVerdict": 1.0,
        "LastFailAge": 0.0,
        "LastTransitionAge": 1.0,
        # F1 changed in failing builds 2, 5 and 6 of the 4 (2, 3, 5, 6), and
        # in flip builds 2 and 5 of the 3; F2 only in builds 3 and 4
        "MaxTestFileFailRate": 3 / 4,
        "MaxTestFileTransitionRate": 2 / 3,
    }
    assert {name: rec(m, T, name) for name in expected} == expected


def test_rec_age_example():
    # first executed at build 3, current build 10 -> Age 7
    specs = [({F1}, []) for _ in range(2)]
    specs += [({F1}, [(T, P, 1.0)]) for _ in range(7)]
    specs.append(({F1}, [(T, P, 1.0)]))
    history = make_history(specs)
    ex = FeatureExtractor(history, default_sources())
    assert rec(ex.matrix(10), T, "Age") == 7.0


def test_new_test_defaults():
    history = make_history([({F1}, [(T, P, 5.0)])])
    ex = FeatureExtractor(history, default_sources())
    m = ex.matrix(1)  # no prior executions
    assert rec(m, T, "Age") == 0.0
    assert rec(m, T, "LastFailAge") == -1.0
    assert rec(m, T, "LastTransitionAge") == -1.0
    assert rec(m, T, "TotalFailRate") == 0.0
    assert rec(m, T, "LastExeTime") == 0.0
    assert rec(m, T, "MaxTestFileFailRate") == -1.0


def test_recent_equals_total_when_window_covers_all():
    specs = [({F1}, [(T, v, float(i + 1))]) for i, v in enumerate((P, A, P))]
    specs.append(({F1}, [(T, P, 1.0)]))
    history = make_history(specs)
    ex = FeatureExtractor(history, default_sources(), recent_window=10)
    m = ex.matrix(4)
    for stat in ("AvgExeTime", "MaxExeTime", "FailRate", "AssertRate", "ExcRate", "TransitionRate"):
        assert rec(m, T, f"Recent{stat}") == rec(m, T, f"Total{stat}")


def _scrambled(build: Build) -> Build:
    """``build`` with every verdict flipped and every duration moved."""
    records = tuple(
        ExecutionRecord(
            r.build,
            r.test,
            Verdict.PASSED if r.verdict is not Verdict.PASSED else Verdict.EXCEPTION_FAILURE,
            r.duration_ms + 123.0,
        )
        for r in build.records
    )
    return Build.from_records(id=build.id, commits=build.commits, records=records,
                              wall_clock=build.wall_clock)


def test_anti_leakage_mutating_current_verdicts():
    cfg = SynthConfig(n_files=20, n_tests=10, n_builds=8, files_per_build=4)
    history, sources = generate_synthetic_history(cfg, seed=5)
    k = history.builds[len(history.builds) // 2].id
    base = FeatureExtractor(history, sources).matrix(k)

    # build k's verdicts and durations scrambled
    mutated = BuildHistory(
        [_scrambled(b) if b.id == k else b for b in history.builds], history.commits
    )
    other = FeatureExtractor(mutated, sources).matrix(k)
    assert np.array_equal(base.values, other.values)
    assert base.tests == other.tests

    # and every later build gone, with the commits only those builds reference
    kept = [_scrambled(b) if b.id == k else b for b in history.builds if b.id <= k]
    later = {c for b in history.builds if b.id > k for c in b.commits}
    later -= {c for b in kept for c in b.commits}
    assert later  # the cut drops commits
    cut = BuildHistory(kept, {c: v for c, v in history.commits.items() if c not in later})
    other = FeatureExtractor(cut, sources).matrix(k)
    assert other.values.tobytes() == base.values.tobytes()
    assert base.tests == other.tests


def rec_reference(history: BuildHistory, test: str, k: int, window: int) -> np.ndarray:
    """The REC row of ``test`` at build ``k``, computed one test at a time
    from the records of the builds before k."""
    runs = [
        (b.id, r.verdict, r.duration_ms)
        for b in history.builds
        if b.id < k
        for r in b.records
        if r.test == test
    ]
    row = np.zeros(len(REC_FEATURES))
    if not runs:
        row[[1, 2, 17, 18]] = -1.0  # LastFailAge, LastTransitionAge, MaxTestFile*Rate
        return row
    ids, verdicts, durations = zip(*runs)
    failed = [v is not P for v in verdicts]
    fails = [b for b, f in zip(ids, failed) if f]
    flips = [ids[i] for i in range(1, len(ids)) if failed[i] != failed[i - 1]]
    row[:5] = (
        k - ids[0],
        k - fails[-1] - 1 if fails else -1.0,
        k - flips[-1] - 1 if flips else -1.0,
        float(failed[-1]),
        durations[-1],
    )
    for col, a in ((5, max(0, len(runs) - window)), (11, 0)):
        d, v, n = np.asarray(durations[a:]), verdicts[a:], len(runs) - a
        n_flips = sum(b > ids[a] for b in flips)
        row[col : col + 6] = (
            d.mean(),
            d.max(),
            (n - v.count(P)) / n,
            v.count(A) / n,
            v.count(E) / n,
            n_flips / (n - 1) if n > 1 else 0.0,
        )
    changed = history.changed_files(k)
    for col, events in ((17, fails), (18, flips)):
        rates = (
            sum(f in history.changed_files(b) for b in events) / len(events)
            for f in changed
        )
        row[col] = max(rates, default=0.0) if events else -1.0
    return row


# sevenths fill the mantissa, so a sum taken in another order shows; np.mean
# sums 8 or more values pairwise, hence histories of up to 12 builds
_DURATIONS = (
    st.sampled_from([-0.0, 0.0])
    | st.floats(0.0, 1e6)
    | st.integers(1, 10**12).map(lambda i: i / 7)
)
_BUILD_SPECS = st.lists(
    st.tuples(
        st.frozensets(st.sampled_from([F1, F2, "src/app/F3.java"])),
        st.dictionaries(
            st.sampled_from([T, "src/test/UTest.java", "src/test/VTest.java"]),
            st.tuples(st.sampled_from(list(Verdict)), _DURATIONS),
        ),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(specs=_BUILD_SPECS, window=st.integers(1, 7))
def test_rec_matches_per_test_reference(specs, window):
    # all four verdicts, -0.0 durations, tests that first run mid-history or
    # skip builds, and files changed in some failing builds; the block is
    # accumulated into zeros, so a -0.0 duration reads 0.0
    history = make_history(
        [(changed, [(t, v, d) for t, (v, d) in recs.items()]) for changed, recs in specs]
    )
    ex = FeatureExtractor(history, default_sources(), recent_window=window)
    for b in history.builds:
        m = ex.matrix(b.id)
        want = np.zeros((len(m.tests), len(REC_FEATURES)))
        for i, t in enumerate(m.tests):
            want[i] += rec_reference(history, t, b.id, window)
        assert m.values[:, CATALOG.group_slice(FeatureGroup.REC)].tobytes() == want.tobytes()


def _visible_commits(history: BuildHistory, cut: int) -> list[Commit]:
    """The commits that the snapshot of build ``cut`` sees, in order."""
    referenced = {c for b in history.builds for c in b.commits}
    seen = {c for b in history.builds if b.id <= cut for c in b.commits}
    return [c for c in history.commit_sequence if c.id in seen or c.id not in referenced]


def covered_weights(
    history: BuildHistory, graph, test: str, k: int, cut: int, depth: int
) -> list[list[tuple[str, float]]]:
    """The covered changed and the covered impacted files of ``test`` at
    build ``k``, each half in path order with its weights:
    confidence(f -> test) over the commits visible at build ``cut``,
    normalised over the half, and uniform when all are 0."""
    visible = _visible_commits(history, cut)
    chn = history.changed_files(k)
    covered = graph.covered_files(test) if test in graph.deps else frozenset()
    halves = []
    for half in (covered & chn, covered & graph.impacted_files(chn, depth)):
        files = sorted(half)
        confidence = []  # of f -> test: the share of the commits changing f that change test
        for f in files:
            with_f = [c for c in visible if f in c.changed_files]
            hits = sum(test in c.changed_files for c in with_f)
            confidence.append(hits / len(with_f) if with_f else 0.0)
        total = 0.0
        for x in confidence:
            total += x
        weights = [x / total if total else 1.0 / len(files) for x in confidence]
        halves.append(list(zip(files, weights)))
    return halves


def cov_reference(
    history: BuildHistory, graph, test: str, k: int, cut: int, depth: int
) -> np.ndarray:
    """The F_COV and DET_COV cells of ``test`` at build ``k``, mined from the
    commits visible at build ``cut``, one test and one file at a time:
    (CovCCount, CovICount, SumCovCScore, SumCovIScore, WSumCovCFaults,
    WSumCovIFaults)."""
    visible = _visible_commits(history, cut)
    row = np.zeros(6)
    for h, pairs in enumerate(covered_weights(history, graph, test, k, cut, depth)):
        row[h] = len(pairs)
        for f, w in pairs:
            fixes = sum(f in c.changed_files and is_defect_fix_keyword(c.message) for c in visible)
            row[2 + h] += w
            row[4 + h] += w * fixes
    return row


def com_reference(
    history: BuildHistory, graph, sources: dict[str, str], test: str, k: int, cut: int,
    depth: int,
) -> np.ndarray:
    """The TES_COM and COD_COV_COM cells of ``test`` at build ``k``, one
    file at a time: the ``analyze_file`` metrics of the test's own file,
    then the weighted sums of those of its covered changed files and of its
    covered impacted files (weights as of build ``cut``).  A file without
    source has all-zero metrics."""
    width = len(COMPLEXITY_METRICS)

    def metrics(path: str) -> np.ndarray:
        if path not in sources:
            return np.zeros(width)
        return np.array(analyze_file(sources[path]), dtype=np.float64)

    row = np.zeros(3 * width)
    row[:width] += metrics(test)
    for h, pairs in enumerate(covered_weights(history, graph, test, k, cut, depth), start=1):
        for f, w in pairs:
            row[h * width : (h + 1) * width] += w * metrics(f)
    return row


_SUT = ("src/app/F1.java", "src/app/F2.java", "src/app/F3.java", "src/app/F4.java")
_COV_TESTS = (T, "src/test/UTest.java", "src/test/VTest.java")  # VTest has no source
_COMMITS = st.lists(
    st.tuples(st.frozensets(st.sampled_from(_SUT + _COV_TESTS), min_size=1), st.booleans()),
    max_size=2,
)
_COV_SPECS = st.tuples(
    # the SUT files each source imports
    st.tuples(*(st.frozensets(st.sampled_from(_SUT)) for _ in _SUT + _COV_TESTS[:2])),
    _COMMITS,  # commits before the first build
    st.lists(st.tuples(_COMMITS, st.frozensets(st.sampled_from(_COV_TESTS))), min_size=1, max_size=6),
)


def _cov_history(specs) -> tuple[BuildHistory, dict[str, str]]:
    imports, before, builds = specs

    def name(path: str) -> str:
        return path.rsplit("/", 1)[1].removesuffix(".java")

    sources = {
        p: "".join(f"import app.{name(f)};\n" for f in sorted(fs)) + f"public class {name(p)} {{ }}\n"
        for p, fs in zip(_SUT + _COV_TESTS, imports)
    }
    commits: dict[str, Commit] = {}

    def add(files, fix) -> str:
        cid = f"{len(commits):040x}"
        changes = tuple(FileChange(p, 1, 0) for p in sorted(files))
        commits[cid] = Commit(cid, TS, "dev", "fix a bug" if fix else "update", changes)
        return cid

    for files, fix in before:
        add(files, fix)
    history = [
        Build.from_records(
            id=k,
            commits=tuple(add(files, fix) for files, fix in build_commits),
            records=tuple(ExecutionRecord(k, t, P, 1.0) for t in sorted(tests)),
        )
        for k, (build_commits, tests) in enumerate(builds, start=1)
    ]
    return BuildHistory(history, commits), sources


@settings(max_examples=100, deadline=None)
@given(specs=_COV_SPECS)
def test_cov_and_det_match_per_test_reference(specs):
    # live matrices and stale snapshots at impact depths 0-2, on the rows of
    # the tests each snapshot knows (the others are imputed)
    history, sources = _cov_history(specs)
    graph = build_dependency_graph_from_sources(sources)
    first = {}
    for b in history.builds:
        for t in b.tests:
            first.setdefault(t, b.id)
    cols = [*CATALOG.group_indices(FeatureGroup.F_COV), *CATALOG.group_indices(FeatureGroup.DET_COV)]
    for depth in range(3):
        ex = FeatureExtractor(history, sources, impact_depth=depth)
        for b in history.builds:
            for cut in range(1, b.id + 1):
                m = ex.matrix(b.id) if cut == b.id else ex.matrix(b.id, ex.snapshot(cut))
                known = [i for i, t in enumerate(m.tests) if first[t] <= cut]
                want = np.array([cov_reference(history, graph, m.tests[i], b.id, cut, depth) for i in known])
                assert m.values[np.ix_(known, cols)].tobytes() == want.reshape(len(known), 6).tobytes()


# class bodies whose methods, branches, loops, fields, inner classes and
# comments move every complexity metric
_BODY_PIECES = st.sampled_from([
    "    int f(int x) {\n        if (x > 0) { return 1; }\n        return 0;\n    }\n",
    "    protected static int k() { return 0; }\n",
    "    class In { private int z; }\n",
    "    // a note\n",
    "    /* a block\n       comment */\n",
    "    private static int n = 1;\n",
    "    private int count = 2;\n",
    "    private void reset() { count = 0; }\n",
    "\n",
    "    void g(int a, int b, int c) {\n        for (int i = 0; i < a; i++) {\n"
    "            while (i > b && i < c || a == 0) { if (i == 2) { break; } continue; }\n"
    "        }\n    }\n",
    "    public int h(int a) {\n        switch (a) {\n            case 1: return a > 2 ? 1 : 0;\n"
    "            case 2: return 2;\n        }\n        try { a++; } catch (E e) { a--; }\n"
    "        return a;\n    }\n",
])
_JAVA_BODIES = st.lists(_BODY_PIECES, max_size=5).map("".join)


@settings(max_examples=40, deadline=None)
@given(specs=_COV_SPECS, bodies=st.lists(_JAVA_BODIES, min_size=12, max_size=12))
def test_com_matches_per_test_reference_on_loaded_sources(specs, bodies):
    # TES_COM and COD_COV_COM of live matrices and stale snapshots at impact
    # depths 0-2, on sources that load_sources computes (a table miss),
    # then reads from the table (a hit), then after every file was edited:
    # a row keyed by path, or one served stale, would not follow the edit
    history, plain = _cov_history(specs)
    first = {}
    for b in history.builds:
        for t in b.tests:
            first.setdefault(t, b.id)
    cols = [*CATALOG.group_indices(FeatureGroup.TES_COM),
            *CATALOG.group_indices(FeatureGroup.COD_COV_COM)]
    rounds = (bodies[:6], bodies[:6], [body + "    // edited\n" for body in bodies[6:]])
    with tempfile.TemporaryDirectory() as tmp:
        layout = write_dataset(history, Path(tmp) / "ds")
        for half in rounds:
            sources = {p: text.replace(" { }\n", " {\n" + body + "}\n")
                       for (p, text), body in zip(plain.items(), half)}
            for path, text in sources.items():
                (layout.root / path).parent.mkdir(parents=True, exist_ok=True)
                (layout.root / path).write_text(text, encoding="utf-8")
            loaded = load_sources(layout)
            assert loaded == sources and layout.source_table.is_file()
            graph = build_dependency_graph_from_sources(sources)
            for depth in range(3):
                ex = FeatureExtractor(history, loaded, impact_depth=depth)
                for b in history.builds:
                    for cut in range(1, b.id + 1):
                        m = ex.matrix(b.id) if cut == b.id else ex.matrix(b.id, ex.snapshot(cut))
                        known = [i for i, t in enumerate(m.tests) if first[t] <= cut]
                        want = [com_reference(history, graph, sources, m.tests[i], b.id, cut, depth)
                                for i in known]
                        got = m.values[np.ix_(known, cols)]
                        assert got.tobytes() == np.reshape(want, got.shape).tobytes()


# two A.java in different packages (the stem A names no file), a file that
# imports itself, tests by /test/ directory and by Test*.java or *Test.java
# name, and a test with no source
_GRAPH_FILES = (
    "src/app/A.java", "src/lib/A.java", "src/app/B.java", "src/app/Self.java",
    "src/test/ATest.java", "src/test/Helper.java", "src/it/TestB.java", "src/it/BTest.java",
)
_GRAPH_LINES = st.sampled_from([
    "import app.A;", "import lib.A;", "import app.B;", "import app.Self;", "import app.*;",
    "import static app.B.run;", "import static lib.A.*;", "import static app.*;",
    "import test.Helper;", "import it.TestB;",
    "A a;", "B b;", "Self s;", "ATest t;", "Helper h;", "TestB x;", "BTest y;",
])


@settings(max_examples=60, deadline=None)
@given(lines=st.dictionaries(st.sampled_from(_GRAPH_FILES), st.lists(_GRAPH_LINES, max_size=6),
                             min_size=1))
def test_covers_table_matches_each_nodes_covered_files(lines):
    # the bulk table against graph.covered_files node by node, in _node x
    # _sut order, and an all-False last row for the test with no source
    sources = {
        p: "\n".join(ls) + f"\nclass {p.rsplit('/', 1)[1].removesuffix('.java')} {{ }}\n"
        for p, ls in lines.items()
    }
    ran = sorted(p for p in sources if is_test_file(p)) + ["src/test/GoneTest.java"]
    ex = FeatureExtractor(make_history([(set(), [(t, P, 1.0) for t in ran])]), sources)
    graph = ex._graph
    assert graph.tests == {p for p in sources if is_test_file(p)}
    assert ex._sut == sorted(p for p in sources if not is_test_file(p))
    assert list(ex._node) == list(sources)
    want = [[f in graph.covered_files(p) for f in ex._sut] for p in ex._node]
    want.append([False] * len(ex._sut))
    assert ex._covers.tolist() == want
    assert ex._node.get("src/test/GoneTest.java", -1) == -1


def test_sum_cov_score_is_one_iff_covered_changed():
    history = make_history(
        [({F1}, [(T, P, 1.0)]), ({"src/app/Other.java"}, [(T, P, 1.0)])]
    )
    sources = default_sources()
    sources["src/app/Other.java"] = "public class Other { }\n"
    ex = FeatureExtractor(history, sources)
    m1 = ex.matrix(1)  # F1 changed and covered
    assert rec(m1, T, "SumCovCScore") == 1.0
    assert rec(m1, T, "CovCCount") == 1.0
    m2 = ex.matrix(2)  # Other changed but not covered by T
    assert rec(m2, T, "SumCovCScore") == 0.0
    assert rec(m2, T, "CovCCount") == 0.0


def test_weighted_metric_sum_example():
    # confidences in ratio 1:3 -> normalized weights 0.25/0.75;
    # CountLine 100 and 50 -> weighted sum 62.5
    f1_src = "public class F1 {\n" + "    // filler\n" * 97 + "}\n"  # 99 lines
    f2_src = "public class F2 {\n" + "    // filler\n" * 47 + "}\n"  # 49 lines
    sources = default_sources()
    sources[F1] = "x\n" + f1_src  # pad to exactly 100 lines
    sources[F2] = "x\n" + f2_src  # 50 lines
    specs = []
    specs += [({F1, T} if i == 0 else {F1}, [(T, P, 1.0)]) for i in range(5)]
    specs += [({F2, T} if i < 3 else {F2}, [(T, P, 1.0)]) for i in range(5)]
    specs.append(({F1, F2}, [(T, P, 1.0)]))
    history = make_history(specs)
    ex = FeatureExtractor(history, sources)
    m = ex.matrix(11)
    count_line = {
        p: analyze_file(sources[p]).CountLine for p in (F1, F2)
    }
    assert count_line == {F1: 100, F2: 50}
    assert rec(m, T, "SumCovCScore") == pytest.approx(1.0)
    assert rec(m, T, "C_CountLine") == pytest.approx(62.5)


def test_identical_tests_get_identical_rows():
    t2 = "src/test/UTest.java"
    sources = default_sources()
    sources[t2] = sources[T].replace("TTest", "UTest")
    specs = [({F1}, [(T, P, 3.0), (t2, P, 3.0)]) for _ in range(3)]
    history = make_history(specs)
    ex = FeatureExtractor(history, sources)
    m = ex.matrix(3)
    i, j = m.tests.index(T), m.tests.index(t2)
    assert np.array_equal(m.values[i], m.values[j])


def test_feature_matrix_shape_and_nan():
    FeatureMatrix(1, ("t",), np.zeros((1, 150)))
    with pytest.raises(ValueError):
        FeatureMatrix(1, ("t",), np.zeros((1, 10)))
    bad = np.zeros((1, 150))
    bad[0, 3] = np.nan
    with pytest.raises(ValueError):
        FeatureMatrix(1, ("t",), bad)


def test_stale_snapshot_keeps_a_sourceless_test_that_ran_before_it():
    u = "src/test/UTest.java"  # no source file, run since build 1
    specs = [({F1, F2}, [(T, P, 1.0), (u, P, 3.0)]) for _ in range(3)]
    ex = FeatureExtractor(make_history(specs), default_sources())
    stale = ex.matrix(3, ex.snapshot(1))
    assert rec(stale, u, "CovCCount") == 0.0  # known to the snapshot: not imputed
    assert rec(stale, u, "CountLine") == 0.0

    live = ex.matrix(3)  # the live path imputes nothing
    assert rec(live, u, "CovCCount") == 0.0
    assert rec(live, u, "CountLine") == 0.0


def test_stale_snapshot_imputes_tests_first_run_after_it():
    v, w = "src/test/VTest.java", "src/test/WTest.java"  # w first runs in build 2
    sources = default_sources()
    sources[v] = "import app.F1;\npublic class VTest { }\n"
    sources[w] = "import app.F2;\n\npublic class WTest {\n}\n"
    runs = [(T, P, 1.0), (v, A, 2.0)]
    specs = [({F1, F2}, runs)] + [({F1, F2}, runs + [(w, P, 3.0)]) for _ in range(2)]
    ex = FeatureExtractor(make_history(specs), sources)
    stale = ex.matrix(3, ex.snapshot(1))
    known = [stale.tests.index(T), stale.tests.index(v)]
    cols = [i for g in SNAPSHOT_GROUPS for i in CATALOG.group_indices(g)]
    row = stale.values[stale.tests.index(w)]
    assert np.array_equal(row[cols], stale.values[known][:, cols].mean(axis=0))
    assert rec(stale, w, "CovCCount") == 1.5  # T covers 2 changed files, v covers 1
    assert rec(stale, w, "CountLine") == 2.5  # T has 3 lines, v has 2
    assert rec(stale, w, "Age") == 1.0  # execution-record columns stay the test's own

    live = ex.matrix(3)  # the live path imputes nothing
    assert rec(live, w, "CovCCount") == 1.0
    assert rec(live, w, "CountLine") == 4.0


def test_timing_tes_chn_preprocessing_zero():
    history = make_history([({F1}, [(T, P, 1.0)])])
    ex = FeatureExtractor(history, default_sources())
    ex.matrix(1)
    rows = {g: (p, m, t) for g, p, m, t in ex.timings.rows()}
    assert rows["TES_CHN"][0] == 0.0
    # the source rows and the graph are the coverage groups' P; TES_COM
    # only looks a file's metrics up in its row
    assert rows["TES_COM"][0] == 0.0
    for g, (p, m, t) in rows.items():
        assert t == p + m


def test_write_csv_reads_back_a_test_path_with_a_carriage_return(tmp_path):
    tests = ("a\rb.java", "c.java")
    FeatureMatrix(1, tests, np.zeros((2, len(CATALOG)))).write_csv(tmp_path / "m.csv")
    with open(tmp_path / "m.csv", newline="", encoding="utf-8") as f:
        records = list(csv.reader(f))
    assert [r[:2] for r in records[1:]] == [["1", t] for t in tests]
    assert records[2] == ["1", "c.java", *["0.0"] * len(CATALOG)]


def _csv_digest(matrices, tmp_path) -> str:
    h = hashlib.sha256()
    for m in matrices:
        path = tmp_path / f"build_{m.build}.csv"
        m.write_csv(path)
        h.update(path.read_bytes())
    return h.hexdigest()


def test_feature_bytes_golden(tmp_path):
    # Any change to these digests changes the feature CSVs: a refactor of
    # the extractor must keep them; a deliberate feature change updates them.
    history, sources = generate_synthetic_history(SynthConfig(), seed=7)
    ex = FeatureExtractor(history, sources)
    live = _csv_digest((ex.matrix(b.id) for b in history.builds), tmp_path)
    assert live == "02462f3cd143f570c907e42ea0fb75a0769cc686655991712a02968e95848d75"

    history, sources = generate_synthetic_history(DRIFT_CFG, seed=1)
    ex = FeatureExtractor(history, sources)
    anchor = history.failed_builds[0].id
    snap = ex.snapshot(anchor)
    matrices = [ex.matrix(b.id) for b in history.builds]
    matrices += [ex.matrix(b.id, snap) for b in history.builds if b.id > anchor]
    assert _csv_digest(matrices, tmp_path) == (
        "a1669572e926ad05b1258005390c269752d2e8d922da44ee87852180ff7fabbb"
    )
