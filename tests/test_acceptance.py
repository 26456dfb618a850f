"""End-to-end acceptance checks, one per external guarantee.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line so the whole
gate can be read at a glance from the pytest output (run with ``-s``).
"""

import itertools
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from tcpci.catalog import CATALOG
from tcpci.coverage import AssociationMiner
from tcpci.commit_classifier import cross_validate
from tcpci.evaluation import (
    apfdc,
    apfdc_of_build,
    decay_experiment,
    optimal_ordering,
    remove_frequent_failers,
    run_pipeline_eval,
)
from tcpci.features import FeatureExtractor
from tcpci.model import (
    Build,
    BuildHistory,
    ChangeSet,
    Commit,
    ExecutionRecord,
    FileChange,
    Verdict,
)
from tcpci.ranker import Hyperparams, train_ranker
from tcpci.synth import SynthConfig, generate_synthetic_history

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)


def verdict_line(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {number}. {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


def random_build(rng: np.random.Generator, build_id: int) -> Build:
    n = int(rng.integers(1, 7))
    verdicts = rng.random(n) < 0.5
    if not verdicts.any():
        verdicts[int(rng.integers(0, n))] = True
    records = tuple(
        ExecutionRecord(
            build=build_id,
            test=f"t{i}.java",
            verdict=Verdict.ASSERTION_FAILURE if verdicts[i] else Verdict.PASSED,
            duration_ms=float(rng.uniform(0.1, 50.0)),
        )
        for i in range(n)
    )
    cid = f"{build_id:040x}"
    return Build(
        id=build_id,
        change_set=ChangeSet(build_id, (cid,), frozenset({"f.java"})),
        records=records,
    )


def apfdc_reference(order, verdicts, durations):
    """Straight transliteration of the cost-cognizant formula, all loops."""
    n = len(order)
    m = sum(1 for t in order if verdicts[t])
    total = sum(durations[t] for t in order)
    acc = 0.0
    for pos, t in enumerate(order, start=1):
        if verdicts[t]:
            tail = sum(durations[order[j]] for j in range(pos - 1, n))
            acc += tail - durations[t] / 2.0
    return acc / (total * m)


def test_1_apfdc_oracle():
    rng = np.random.default_rng(20240601)
    t0 = time.time()
    ok = True
    for k in range(500):
        b = random_build(rng, k + 1)
        tests = sorted(b.tests)
        verdicts = {r.test: r.verdict is not Verdict.PASSED for r in b.records}
        durations = {r.test: r.duration_ms for r in b.records}
        order = [tests[i] for i in rng.permutation(len(tests))]
        got = apfdc(order, verdicts, durations)
        want = apfdc_reference(order, verdicts, durations)
        if abs(got - want) > 1e-12:
            ok = False
            break
        best = apfdc_of_build(b, optimal_ordering(b))
        exhaustive = max(
            apfdc(list(p), verdicts, durations) for p in itertools.permutations(tests)
        )
        if not (best >= exhaustive - 1e-12):
            ok = False
            break
    elapsed = time.time() - t0
    verdict_line(1, "APFD_C formula + optimal-ordering oracle", ok and elapsed < 30,
                 f"500 builds in {elapsed:.1f}s")


def test_2_association_oracle():
    def commits_of(change_sets):
        return [
            Commit(f"{i:040x}", TS, "dev", "msg",
                   tuple(FileChange(p, 1, 0) for p in sorted(fs)))
            for i, fs in enumerate(change_sets)
        ]

    t0 = time.time()
    s = AssociationMiner(
        commits_of([{"f1", "f2", "f3"}, {"f1", "f3"}, {"f2"}, {"f1", "f2", "f3", "f4"}])
    ).scores("f1", "f3")
    ok = s.support == 0.75 and s.confidence == 1.0 and abs(s.lift - 1 / 3) < 1e-15

    rng = np.random.default_rng(7)
    universe = [f"f{i}" for i in range(6)]
    for _ in range(200):
        n = int(rng.integers(1, 10))
        sets = [
            {universe[j] for j in rng.choice(6, size=int(rng.integers(1, 5)), replace=False)}
            for _ in range(n)
        ]
        f, g = (universe[i] for i in rng.choice(6, size=2, replace=False))
        s = AssociationMiner(commits_of(sets)).scores(f, g)
        p = sum(1 for cs in sets if f in cs and g in cs)
        cf = sum(1 for cs in sets if f in cs)
        cg = sum(1 for cs in sets if g in cs)
        ok = ok and s.support == pytest.approx(p / n)
        ok = ok and s.confidence == pytest.approx(p / cf if cf else 0.0)
        ok = ok and s.lift == pytest.approx(p / (cf * cg) if cf and cg else 0.0)
    elapsed = time.time() - t0
    verdict_line(2, "association mining oracle", ok and elapsed < 10,
                 f"worked example + 200 random histories in {elapsed:.1f}s")


def test_3_catalog_and_anti_leakage():
    cfg = SynthConfig(n_files=40, n_tests=20, n_builds=52, files_per_build=5)
    history, sources, _ = generate_synthetic_history(cfg, seed=31)
    base = FeatureExtractor(history, sources)
    build_ids = [b.id for b in history.builds[1:51]]
    ok = True
    for k in build_ids:
        matrix = base.matrix(k)
        if matrix.values.shape[1] != 150:
            ok = False
            break
        mutated_builds = []
        for b in history.builds:
            if b.id == k:
                flipped = tuple(
                    ExecutionRecord(
                        r.build, r.test,
                        Verdict.PASSED if r.verdict is not Verdict.PASSED
                        else Verdict.EXCEPTION_FAILURE,
                        r.duration_ms * 3.0 + 1.0,
                    )
                    for r in b.records
                )
                b = Build(id=b.id, change_set=b.change_set, records=flipped,
                          wall_clock=b.wall_clock)
            mutated_builds.append(b)
        other = FeatureExtractor(
            BuildHistory(mutated_builds, history.commits), sources
        ).matrix(k)
        if not np.array_equal(matrix.values, other.values):
            ok = False
            break
    names_ok = len(CATALOG) == 150 and CATALOG.fingerprint == CATALOG.fingerprint
    verdict_line(3, "150-column catalog + anti-leakage on 50 builds", ok and names_ok)


def test_4_end_to_end_learning_signal():
    t0 = time.time()
    history, sources, _ = generate_synthetic_history(SynthConfig(), seed=2024)
    history, _ = remove_frequent_failers(history)
    report = run_pipeline_eval(
        history,
        sources,
        hyperparams=Hyperparams(n_bags=30, trees_per_bag=5, max_leaves=64),
        seed=0,
        max_builds=15,
    )
    summary = report.summary()
    full, _ = summary["full"]
    rand, _ = summary["random"]
    heuristic, _ = summary["heuristic"]
    elapsed = time.time() - t0
    ok = full >= rand + 0.10 and full >= 0.70 and elapsed < 300
    verdict_line(
        4, "end-to-end learning signal", ok,
        f"full {full:.3f}, random {rand:.3f}, heuristic {heuristic:.3f}, {elapsed:.0f}s",
    )


def _history_with_fail_counts(fail_counts):
    commits = {}
    n_builds = max(fail_counts.values() or [1])
    out = []
    for k in range(1, n_builds + 1):
        cid = f"{k:040x}"
        commits[cid] = Commit(cid, TS, "dev", "update",
                              (FileChange("src/app/F.java", 1, 0),))
        records = tuple(
            ExecutionRecord(
                k, t,
                Verdict.ASSERTION_FAILURE if fail_counts[t] >= k else Verdict.PASSED,
                1.0,
            )
            for t in sorted(fail_counts)
        )
        out.append(Build(id=k, change_set=ChangeSet(k, (cid,), frozenset({"src/app/F.java"})),
                         records=records))
    return BuildHistory(out, commits)


def test_5_three_sigma_removal():
    counts = {f"t{i:03d}": 1 for i in range(49)}
    counts["hot"] = 50
    kept, removed = remove_frequent_failers(_history_with_fail_counts(counts))
    ok = removed == ["hot"] and all("hot" not in b.tests for b in kept.builds)

    uniform = {f"t{i:03d}": 3 for i in range(30)}
    _, removed_uniform = remove_frequent_failers(_history_with_fail_counts(uniform))
    ok = ok and removed_uniform == []
    verdict_line(5, "three-sigma frequent-failer removal", ok,
                 "threshold ~22.8 removes the 50-count outlier only")


DRIFT_CFG = SynthConfig(
    n_files=40,
    n_tests=30,
    n_builds=36,
    files_per_build=10,
    pool_size=5,
    coverage_size=5,
    drift_period=18,
    risky_count=10,
    failure_weight=4.0,
    base_failure=0.005,
    co_change_prob=0.3,
    flaky_count=0,
    fix_message_prob=0.02,
    risky_fix_prob=0.95,
)
DRIFT_HP = Hyperparams(n_bags=60, trees_per_bag=3, max_leaves=4, feature_rate=0.8)


def test_6_decay_slope_and_rw0_match():
    history, sources, _ = generate_synthetic_history(DRIFT_CFG, seed=1)
    curve = decay_experiment(
        history, sources, hyperparams=DRIFT_HP, seed=0, max_builds=23, max_rw=11
    )
    slope = curve.slope()
    report = run_pipeline_eval(
        history, sources, hyperparams=DRIFT_HP, seed=0, max_builds=23
    )
    full = {b: v for b, s, v in report.apfdc_rows if s == "full"}
    rw0_pairs = [(a, v) for a, t, rw, v in curve.pairs if rw == 0]
    bitmatch = bool(rw0_pairs) and all(v == full[a] for a, v in rw0_pairs)
    ok = slope < 0 and bitmatch
    verdict_line(6, "retraining-decay slope < 0 with exact RW=0 agreement", ok,
                 f"slope {slope:+.5f} over RW 0..11")


def test_7_ranker_sanity():
    rng = np.random.default_rng(0)
    X = rng.random((200, 150))
    y = (X[:, 0] > 0.5).astype(float)
    hp = Hyperparams(n_bags=20, trees_per_bag=3, max_leaves=32)
    a = train_ranker(X, y, hp, seed=0)
    b = train_ranker(X, y, hp, seed=0)
    deterministic = a.to_json() == b.to_json()

    scores = a.predict(X)
    auc_one = scores[y == 1].min() > scores[y == 0].max()

    usage_hp = Hyperparams(n_bags=30, trees_per_bag=3, max_leaves=2)
    wins = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        Xs = r.random((200, 150))
        ys = (Xs[:, 0] > 0.5).astype(float)
        usage = train_ranker(Xs, ys, usage_hp, seed=seed).feature_usage()
        wins += int(usage[0] > usage[1:].max())
    ok = deterministic and auc_one and wins >= 95
    verdict_line(7, "ranker determinism, separable AUC, feature usage", ok,
                 f"informative feature ranked first in {wins}/100 runs")


def test_8_classifier_accuracy():
    rng = np.random.default_rng(42)
    fix_words = ["fix", "bug", "defect", "resolve", "crash", "npe"]
    other_words = ["add", "feature", "refactor", "docs", "update", "cleanup"]
    noise = ["module", "service", "api", "handler"]
    msgs, labels = [], []
    for i in range(500):
        is_fix = i % 2 == 0
        pool = fix_words if is_fix else other_words
        words = rng.choice(pool, size=4).tolist() + rng.choice(noise, size=2).tolist()
        msgs.append(" ".join(words))
        labels.append(is_fix)
    acc = cross_validate(msgs, labels, k=5, seed=0)
    verdict_line(8, "commit classifier five-fold accuracy >= 0.95", acc >= 0.95,
                 f"accuracy {acc:.3f}")


def test_9_timing_structure():
    cfg = SynthConfig(n_files=20, n_tests=10, n_builds=6, files_per_build=4)
    history, sources, _ = generate_synthetic_history(cfg, seed=3)
    extractor = FeatureExtractor(history, sources)
    for b in history.builds:
        extractor.matrix(b.id)
    rows = {g: (p, m, t) for g, p, m, t in extractor.timings.rows()}
    ok = all(t == p + m for p, m, t in rows.values()) and rows["TES_CHN"][0] == 0.0
    verdict_line(9, "timing table T = P + M with zero change-metric preprocessing", ok)
