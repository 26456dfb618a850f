import hashlib
from datetime import datetime, timezone

import numpy as np
import pytest

from tcpci.catalog import CATALOG
from tcpci.features import SNAPSHOT_GROUPS, FeatureExtractor, RecWindow
from tcpci.matrix import FeatureMatrix
from tcpci.model import (
    Build,
    BuildHistory,
    ChangeSet,
    Commit,
    ExecutionRecord,
    FileChange,
    Verdict,
)
from tcpci.synth import SynthConfig, generate_synthetic_history
from test_acceptance import DRIFT_CFG

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)

T = "src/test/TTest.java"
F1 = "src/app/F1.java"
F2 = "src/app/F2.java"

P, A, E = Verdict.PASSED, Verdict.ASSERTION_FAILURE, Verdict.EXCEPTION_FAILURE


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
            Build(
                id=k,
                change_set=ChangeSet(k, (cid,), frozenset(changed)),
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
    ex = FeatureExtractor(history, default_sources(), rec_window=RecWindow(10))
    m = ex.matrix(4)
    for stat in ("AvgExeTime", "MaxExeTime", "FailRate", "AssertRate", "ExcRate", "TransitionRate"):
        assert rec(m, T, f"Recent{stat}") == rec(m, T, f"Total{stat}")


def test_anti_leakage_mutating_current_verdicts():
    cfg = SynthConfig(n_files=20, n_tests=10, n_builds=8, files_per_build=4)
    history, sources, _ = generate_synthetic_history(cfg, seed=5)
    k = history.builds[-1].id
    base = FeatureExtractor(history, sources).matrix(k)

    mutated_builds = []
    for b in history.builds:
        if b.id == k:
            flipped = tuple(
                ExecutionRecord(
                    r.build,
                    r.test,
                    Verdict.PASSED if r.verdict is not Verdict.PASSED else Verdict.EXCEPTION_FAILURE,
                    r.duration_ms + 123.0,
                )
                for r in b.records
            )
            b = Build(id=b.id, change_set=b.change_set, records=flipped, wall_clock=b.wall_clock)
        mutated_builds.append(b)
    mutated = BuildHistory(mutated_builds, history.commits)
    other = FeatureExtractor(mutated, sources).matrix(k)
    assert np.array_equal(base.values, other.values)
    assert base.tests == other.tests


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
        p: ex._complexity[p].CountLine for p in (F1, F2)
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


def test_matrix_csv_round_trip(tmp_path):
    history = make_history([({F1}, [(T, P, 1.0), (F2, P, 2.0)])])
    ex = FeatureExtractor(history, default_sources())
    m = ex.matrix(1)
    path = tmp_path / "features" / "build_1.csv"
    m.write_csv(path)
    again = FeatureMatrix.read_csv(path)
    assert again.build == 1
    assert again.tests == m.tests
    assert np.array_equal(again.values, m.values)


def test_feature_matrix_shape_and_nan():
    FeatureMatrix(1, ("t",), np.zeros((1, 150)))
    with pytest.raises(ValueError):
        FeatureMatrix(1, ("t",), np.zeros((1, 10)))
    bad = np.zeros((1, 150))
    bad[0, 3] = np.nan
    with pytest.raises(ValueError):
        FeatureMatrix(1, ("t",), bad)


def test_stale_snapshot_imputes_tests_without_source():
    v, u = "src/test/VTest.java", "src/test/UTest.java"  # u has no source file
    sources = default_sources()
    sources[v] = "import app.F1;\npublic class VTest { }\n"
    specs = [({F1, F2}, [(T, P, 1.0), (v, A, 2.0), (u, P, 3.0)]) for _ in range(3)]
    ex = FeatureExtractor(make_history(specs), sources)
    stale = ex.matrix(3, ex.snapshot(1))
    known = [stale.tests.index(T), stale.tests.index(v)]
    cols = [i for g in SNAPSHOT_GROUPS for i in CATALOG.group_indices(g)]
    row = stale.values[stale.tests.index(u)]
    assert np.array_equal(row[cols], stale.values[known][:, cols].mean(axis=0))
    assert rec(stale, u, "CovCCount") == 1.5  # T covers 2 changed files, v covers 1
    assert rec(stale, u, "CountLine") == 2.5  # T has 3 lines, v has 2
    assert rec(stale, u, "Age") == 2.0  # execution-record columns stay the test's own

    live = ex.matrix(3)  # the live path imputes nothing
    assert rec(live, u, "CovCCount") == 0.0
    assert rec(live, u, "CountLine") == 0.0


def test_timing_tes_chn_preprocessing_zero():
    history = make_history([({F1}, [(T, P, 1.0)])])
    ex = FeatureExtractor(history, default_sources())
    ex.matrix(1)
    rows = {g: (p, m, t) for g, p, m, t in ex.timings.rows()}
    assert rows["TES_CHN"][0] == 0.0
    for g, (p, m, t) in rows.items():
        assert t == p + m


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
    history, sources, _ = generate_synthetic_history(SynthConfig(), seed=7)
    ex = FeatureExtractor(history, sources)
    live = _csv_digest((ex.matrix(b.id) for b in history.builds), tmp_path)
    assert live == "02462f3cd143f570c907e42ea0fb75a0769cc686655991712a02968e95848d75"

    history, sources, _ = generate_synthetic_history(DRIFT_CFG, seed=1)
    ex = FeatureExtractor(history, sources)
    anchor = history.failed_builds[0].id
    snap = ex.snapshot(anchor)
    matrices = [ex.matrix(b.id) for b in history.builds]
    matrices += [ex.matrix(b.id, snap) for b in history.builds if b.id > anchor]
    assert _csv_digest(matrices, tmp_path) == (
        "a1669572e926ad05b1258005390c269752d2e8d922da44ee87852180ff7fabbb"
    )
