import hashlib
import itertools
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcpci import derived, ingest, synth
from tcpci.errors import InsufficientHistoryError, NoFailuresError
from tcpci.evaluation import (
    DecayCurve,
    apfdc,
    apfdc_of_build,
    decay_experiment,
    optimal_ordering,
    random_baseline_apfdc,
    remove_frequent_failers,
    run_pipeline_eval,
)
from tcpci.ingest import DatasetLayout
from tcpci.model import (
    Build,
    BuildHistory,
    Commit,
    ExecutionRecord,
    FileChange,
    Verdict,
)
from tcpci.ranker import Hyperparams
from tcpci.synth import (
    SynthConfig,
    generate_synthetic_history,
    load_sources,
    write_synthetic_dataset,
)

from test_acceptance import DRIFT_CFG

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)
SMALL_HP = Hyperparams(n_bags=8, trees_per_bag=3, max_leaves=16)


def build_of(records, build_id=1):
    cid = f"{build_id:040x}"
    return (
        Build.from_records(
            id=build_id,
            commits=(cid,),
            records=tuple(
                ExecutionRecord(build_id, t, v, d) for t, v, d in sorted(records)
            ),
        ),
        Commit(cid, TS, "dev", "update", (FileChange("src/app/F.java", 1, 0),)),
    )


F, P = Verdict.ASSERTION_FAILURE, Verdict.PASSED


def test_single_failing_test_is_half():
    b, _ = build_of([("t", F, 7.0)])
    assert apfdc_of_build(b, ["t"]) == 0.5


def test_two_test_example():
    # durations (2, 1), first fails -> 2/3
    assert apfdc(["a", "b"], {"a": True, "b": False}, {"a": 2.0, "b": 1.0}) == pytest.approx(2 / 3)


def test_optimal_example():
    b, _ = build_of([("A", F, 5.0), ("B", P, 1.0), ("C", F, 2.0)])
    assert optimal_ordering(b) == ["C", "A", "B"]


def test_no_failures_raises():
    b, _ = build_of([("t", P, 1.0)])
    with pytest.raises(NoFailuresError):
        apfdc_of_build(b, ["t"])


def test_ordering_must_match_tests():
    with pytest.raises(ValueError):
        apfdc(["a"], {"a": True, "b": False}, {"a": 1.0, "b": 1.0})


@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(0.1, 100.0)), min_size=1, max_size=8
    ).filter(lambda rows: any(f for f, _ in rows)),
    st.floats(0.5, 10.0),
)
def test_duration_scaling_invariance(rows, scale):
    names = [f"t{i}" for i in range(len(rows))]
    verdicts = {n: f for n, (f, _) in zip(names, rows)}
    durations = {n: d for n, (_, d) in zip(names, rows)}
    scaled = {n: d * scale for n, d in durations.items()}
    assert apfdc(names, verdicts, durations) == pytest.approx(
        apfdc(names, verdicts, scaled), rel=1e-9
    )


@given(st.lists(st.booleans(), min_size=1, max_size=8).filter(any))
def test_zero_durations_score_as_apfd(failed):
    # a build with no cost to weigh gets APFD_C's limit as all costs become
    # equal: APFD = 1 - sum(TF_i) / (n m) + 1 / (2 n)
    names = [f"t{i}" for i in range(len(failed))]
    verdicts = dict(zip(names, failed))
    n, m = len(failed), sum(failed)
    apfd = 1 - sum(i + 1 for i, f in enumerate(failed) if f) / (n * m) + 1 / (2 * n)
    zero = apfdc(names, verdicts, dict.fromkeys(names, 0.0))
    assert zero == pytest.approx(apfd, rel=1e-12)
    assert zero == pytest.approx(apfdc(names, verdicts, dict.fromkeys(names, 3.0)), rel=1e-12)


@given(st.lists(st.tuples(st.booleans(), st.floats(0.1, 50.0)), min_size=1, max_size=5))
def test_optimal_is_maximal_over_all_permutations(rows):
    if not any(f for f, _ in rows):
        return
    records = [(f"t{i}", F if f else P, d) for i, (f, d) in enumerate(rows)]
    b, _ = build_of(records)
    best = apfdc_of_build(b, optimal_ordering(b))
    tests = sorted(b.tests)
    for perm in itertools.permutations(tests):
        assert apfdc_of_build(b, list(perm)) <= best + 1e-12


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.just(0.0) | st.floats(0.1, 50.0)), min_size=1, max_size=6
    ).filter(lambda rows: any(f for f, _ in rows))
)
@example([(True, 0.0)])
@example([(True, 0.0), (False, 0.0), (True, 0.0), (False, 0.0)])
def test_random_baseline_is_the_mean_over_all_orderings(rows):
    records = [(f"t{i}", F if f else P, d) for i, (f, d) in enumerate(rows)]
    b, _ = build_of(records)
    values = [apfdc_of_build(b, list(perm)) for perm in itertools.permutations(b.tests)]
    assert abs(float(np.mean(values)) - 0.5) <= 1e-12
    assert random_baseline_apfdc(b) == 0.5


def test_random_baseline_needs_a_failure():
    b, _ = build_of([("a", P, 1.0), ("b", P, 0.0)])
    with pytest.raises(NoFailuresError):
        random_baseline_apfdc(b)


# --- frequent-failer removal -------------------------------------------


def history_with_counts(fail_counts: dict[str, int], n_builds: int):
    builds, commits = [], {}
    for k in range(1, n_builds + 1):
        records = [
            (t, F if fail_counts[t] >= k else P, 1.0) for t in sorted(fail_counts)
        ]
        b, c = build_of(records, build_id=k)
        builds.append(b)
        commits[c.id] = c
    return BuildHistory(builds, commits)


def test_three_sigma_removes_single_outlier():
    # 49 tests fail once, one fails in all 50 builds; threshold ~ 22.8
    counts = {f"t{i:03d}": 1 for i in range(49)}
    counts["hot"] = 50
    history = history_with_counts(counts, 50)
    kept, removed = remove_frequent_failers(history)
    assert removed == ["hot"]
    assert all("hot" not in b.tests for b in kept.builds)
    assert len(kept.builds) == len(history.builds)


def test_three_sigma_uniform_counts_removes_nothing():
    counts = {f"t{i:03d}": 3 for i in range(30)}
    history = history_with_counts(counts, 10)
    kept, removed = remove_frequent_failers(history)
    assert removed == []
    assert kept is history


def test_three_sigma_reflags_builds_without_other_failures():
    counts = {f"t{i:02d}": 0 for i in range(40)}
    counts["hot"] = 10
    history = history_with_counts(counts, 10)
    kept, removed = remove_frequent_failers(history)
    assert removed == ["hot"]
    assert all(not b.failed for b in kept.builds)


# --- pipeline ----------------------------------------------------------


@pytest.fixture(scope="module")
def synth_small():
    cfg = SynthConfig(n_files=30, n_tests=15, n_builds=20, files_per_build=4)
    return generate_synthetic_history(cfg, seed=11)


def test_run_pipeline_row_accounting(synth_small):
    history, sources = synth_small
    report = run_pipeline_eval(
        history, sources, hyperparams=SMALL_HP, seed=0, max_builds=5
    )
    builds = {b for b, _, _ in report.apfdc_rows}
    assert 1 <= len(builds) <= 5
    strategies = {s for _, s, _ in report.apfdc_rows}
    assert strategies == {"full", "heuristic", "random", "optimal"}
    assert len(report.apfdc_rows) == 4 * len(builds)
    for _, _, v in report.apfdc_rows:
        assert 0.0 <= v <= 1.0
    summary = report.summary()
    for build_id in builds:
        per = {s: v for b, s, v in report.apfdc_rows if b == build_id}
        assert per["optimal"] >= per["full"] - 1e-12
        assert per["random"] == 0.5
    assert set(summary) == strategies


def test_report_write_and_determinism(synth_small, tmp_path):
    history, sources = synth_small
    kwargs = dict(hyperparams=SMALL_HP, seed=4, max_builds=3)
    r1 = run_pipeline_eval(history, sources, **kwargs)
    r2 = run_pipeline_eval(history, sources, **kwargs)
    assert r1.apfdc_rows == r2.apfdc_rows
    r1.write(tmp_path)
    assert (tmp_path / "apfdc.csv").exists()
    assert (tmp_path / "timing.csv").exists()
    assert (tmp_path / "report.json").exists()
    header = (tmp_path / "apfdc.csv").read_text().splitlines()[0]
    assert header == "build_id,strategy,apfdc"


def test_insufficient_history_raises():
    counts = {"a": 0, "b": 0}
    history = history_with_counts(counts, 3)  # no failed builds
    with pytest.raises(InsufficientHistoryError):
        run_pipeline_eval(history, hyperparams=SMALL_HP)
    with pytest.raises(InsufficientHistoryError):
        decay_experiment(history, hyperparams=SMALL_HP)


def test_decay_rw_zero_matches_standard_eval(synth_small):
    history, sources = synth_small
    report = run_pipeline_eval(
        history, sources, hyperparams=SMALL_HP, seed=2, max_builds=4
    )
    curve = decay_experiment(
        history, sources, hyperparams=SMALL_HP, seed=2, max_builds=4, max_rw=3
    )
    full = {b: v for b, s, v in report.apfdc_rows if s == "full"}
    rw0_pairs = [(a, v) for a, t, rw, v in curve.pairs if rw == 0]
    assert rw0_pairs
    # every RW=0 pair reproduces the standard full-model value exactly
    for anchor, value in rw0_pairs:
        assert value == full[anchor]


def test_decay_curve_slope_and_write(tmp_path):
    curve = DecayCurve(rows=[(0, 0.9, 3), (1, 0.8, 3), (2, 0.7, 2)])
    assert curve.slope() == pytest.approx(-0.1)
    path = tmp_path / "out" / "decay.csv"
    curve.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rw,mean_apfdc,n_pairs"
    assert len(lines) == 4


# --- byte goldens ------------------------------------------------------


def _tree_digest(root, derived=False) -> str:
    """sha256 of the files under ``root`` outside every ``derived/``
    directory, or with ``derived`` of only the files inside one."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        if ("derived" in rel.parts[:-1]) == derived:
            h.update(str(rel).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_dataset_and_evaluation_bytes_golden(synth_small, tmp_path):
    # Pins the synthetic datasets and the evaluation outputs byte for byte:
    # a refactor of the build model, the generator or the evaluation loop
    # must keep these digests; a deliberate change of either updates them.
    cold = SynthConfig(n_files=600, n_tests=300, n_builds=80, files_per_build=12)
    digests = {}
    configs = (("default", SynthConfig(), 7), ("cold", cold, 7), ("drift", DRIFT_CFG, 1))
    for name, cfg, seed in configs:
        write_synthetic_dataset(tmp_path / name, cfg, seed)
        digests[name] = _tree_digest(tmp_path / name)
    # the tables of derived/ apart, so that the digests above pin the
    # dataset files alone
    digests["derived"] = _tree_digest(tmp_path, derived=True)
    # the payload of the cold dataset's source table: its frame's rules key
    # moves with every edit to source_rows.py, and the rows must not
    layout = DatasetLayout(tmp_path / "cold")
    load_sources(layout)
    payload = derived.read(layout.source_table, synth._SOURCE_MAGIC, synth._rules_digest())
    digests["sources.bin payload"] = hashlib.sha256(payload).hexdigest()
    # and of its commit table, which the "derived" digest holds as well
    key = derived.file_key(layout.commits_jsonl)
    payload = derived.read(layout.commit_table, ingest._COMMIT_MAGIC, key)
    digests["commits.bin payload"] = hashlib.sha256(payload).hexdigest()

    history, sources = synth_small
    report = run_pipeline_eval(history, sources, hyperparams=SMALL_HP, seed=2, max_builds=4)
    report.write(tmp_path / "eval")
    for name in ("apfdc.csv", "report.json"):
        digests[name] = hashlib.sha256((tmp_path / "eval" / name).read_bytes()).hexdigest()
    curve = decay_experiment(history, sources, hyperparams=SMALL_HP, seed=2, max_builds=4, max_rw=3)
    curve.write(tmp_path / "decay.csv")
    digests["decay.csv"] = hashlib.sha256((tmp_path / "decay.csv").read_bytes()).hexdigest()
    digests["pairs"] = hashlib.sha256(repr(curve.pairs).encode()).hexdigest()

    assert digests == {
        "default": "b893dc4be9d554017280409e61d5cf979f3314d7e015e388e3f264f20c57d29f",
        "cold": "822d68a7a3e8db1189d27f6127420a73278da350e688326d35595da3bab096b1",
        "drift": "1938bf2451069d1edb8d014a1628b584dc95552ee9456837a52f52093044a8f6",
        "derived": "016860a724f433fc3c3a177e3a6a322b6358b452d519a9027cc7a5502623b5f9",
        "sources.bin payload": "c501d9c8861ec46029aab9eb4af4251e5cc5825d26e84867c1b6f0bfcb102e3d",
        "commits.bin payload": "1483ab2fcef11a458fdf19b9f8ede04968f977361ceb9f78e22a3358c38a4517",
        "apfdc.csv": "03c1bbec0396b0e025100f6b32fbbf9357ea6fb7033290054db5e55984645692",
        "report.json": "c9e3c599c92e2ead2f649b992af71827fe8905b76eb5f0201dca8a920ea14c2a",
        "decay.csv": "9411d4c533828b35fc357dbac4032b201648a1664ab2ac48f0facc638bce27de",
        "pairs": "32c4b0f557b5eb72fe1ead9a388b1a608ee287059a34aa57237eeedb5cf901de",
    }
