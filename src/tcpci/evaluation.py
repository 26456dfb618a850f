"""Cost-cognizant evaluation: APFD_C, outlier removal, decay, timing.

APFD_C for an ordering with durations t_1..t_n (in executed order) and m
failing tests at positions TF_1..TF_m:

    APFD_C = sum_i ( sum_{j=TF_i}^{n} t_j  -  t_{TF_i}/2 )
             -----------------------------------------------
                     ( sum_{j=1}^{n} t_j ) * m

Each failing test counts as a distinct fault.  The optimal ordering runs
failing tests first, each tier sorted by duration ascending.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientHistoryError, InvalidConfigError, NoFailuresError
from .features import FeatureExtractor, RecWindow, Snapshot
from .matrix import FeatureMatrix, stack_matrices
from .model import Build, BuildHistory, is_failed
from .ranker import Hyperparams, RankModel, heuristic_key, heuristic_rank, rank_tests, train_ranker

log = logging.getLogger(__name__)

DEFAULT_HEURISTIC = "F_FailRate_Total:desc"


def optimal_ordering(build: Build) -> list[str]:
    """Failed tests first by duration ascending, then passed likewise."""
    return [
        r.test
        for r in sorted(
            build.records,
            key=lambda r: (0 if is_failed(r.verdict) else 1, r.duration_ms, r.test),
        )
    ]


def apfdc(ordering: list[str], verdicts: dict[str, bool], durations: dict[str, float]) -> float:
    """Evaluate the formula above; ``verdicts[t]`` is True for a failure."""
    if sorted(ordering) != sorted(verdicts) or set(ordering) != set(durations):
        raise ValueError("ordering must cover exactly the build's tests")
    t = np.array([durations[x] for x in ordering], dtype=np.float64)
    failed = np.array([verdicts[x] for x in ordering], dtype=bool)
    m = int(failed.sum())
    if m == 0:
        raise NoFailuresError("APFD_C is undefined for a build with no failures")
    total = float(t.sum())
    # suffix[j] = sum of t_j..t_n (1-based position j -> index j-1)
    suffix = np.cumsum(t[::-1])[::-1]
    numerator = float((suffix[failed] - t[failed] / 2.0).sum())
    return numerator / (total * m)


def apfdc_of_build(build: Build, ordering: list[str]) -> float:
    verdicts = {r.test: is_failed(r.verdict) for r in build.records}
    durations = {r.test: r.duration_ms for r in build.records}
    return apfdc(ordering, verdicts, durations)


def random_baseline_apfdc(build: Build, seed: int, samples: int = 20) -> float:
    """Expected APFD_C of a uniformly random ordering, by seeded sampling."""
    rng = np.random.default_rng([seed, build.id])
    tests = sorted(build.tests)
    values = []
    for _ in range(samples):
        perm = [tests[i] for i in rng.permutation(len(tests))]
        values.append(apfdc_of_build(build, perm))
    return float(np.mean(values))


def remove_frequent_failers(history: BuildHistory) -> tuple[BuildHistory, list[str]]:
    """Drop three-sigma outlier tests by failure count; single pass.

    Counts builds in which each test failed, over tests with at least one
    execution; a test whose count exceeds mean + 3 * sample standard
    deviation is removed from every build.  Builds failing only through
    removed tests become passing (the failed flag is derived from records).
    """
    counts: dict[str, int] = {}
    for b in history.builds:
        for r in b.records:
            counts.setdefault(r.test, 0)
            if is_failed(r.verdict):
                counts[r.test] += 1
    if len(counts) < 2:
        return history, []
    values = list(counts.values())
    mean = statistics.fmean(values)
    sd = statistics.stdev(values)
    threshold = mean + 3.0 * sd
    removed = sorted(t for t, c in counts.items() if c > threshold)
    if not removed:
        return history, []
    removed_set = set(removed)
    builds = [
        Build(
            id=b.id,
            change_set=b.change_set,
            records=tuple(r for r in b.records if r.test not in removed_set),
            wall_clock=b.wall_clock,
        )
        for b in history.builds
    ]
    return BuildHistory(builds, history.commits), removed


@dataclass
class EvaluationReport:
    """Per-build APFD_C rows per strategy, plus the timing table."""

    apfdc_rows: list[tuple[int, str, float]] = field(default_factory=list)
    timing_rows: list[tuple[str, float, float, float]] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def summary(self) -> dict[str, tuple[float, float]]:
        """strategy -> (mean, sample sd) of APFD_C."""
        per: dict[str, list[float]] = {}
        for _, strategy, value in self.apfdc_rows:
            per.setdefault(strategy, []).append(value)
        return {
            s: (statistics.fmean(v), statistics.stdev(v) if len(v) > 1 else 0.0)
            for s, v in sorted(per.items())
        }

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "apfdc.csv", "w", encoding="utf-8") as f:
            f.write("build_id,strategy,apfdc\n")
            for build_id, strategy, value in self.apfdc_rows:
                f.write(f"{build_id},{strategy},{value!r}\n")
        with open(out_dir / "timing.csv", "w", encoding="utf-8") as f:
            f.write("group,P,M,T\n")
            for group, p, m, t in self.timing_rows:
                f.write(f"{group},{p!r},{m!r},{t!r}\n")
        payload = {
            "config": self.config,
            "summary": {
                s: {"mean": mu, "sd": sd} for s, (mu, sd) in self.summary().items()
            },
            "builds_evaluated": sorted({b for b, _, _ in self.apfdc_rows}),
        }
        with open(out_dir / "report.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)


def _evaluable_failed_builds(history: BuildHistory, cap: int) -> list[Build]:
    """Latest (up to cap) failed builds that have >= 1 prior failed build."""
    if not isinstance(cap, int) or cap < 1:
        raise InvalidConfigError(f"max_builds must be an integer >= 1, got {cap!r}")
    failed = list(history.failed_builds)
    candidates = failed[1:]  # the first failed build has no training data
    return candidates[-cap:]


class PipelineEvaluator:
    """Shared plumbing for the standard evaluation and the decay run."""

    def __init__(
        self,
        history: BuildHistory,
        sources: dict[str, str] | None = None,
        hyperparams: Hyperparams = Hyperparams(),
        seed: int = 0,
        rec_window: RecWindow = RecWindow(),
        impact_depth: int = 1,
        classify=None,
    ):
        self.history = history
        self.hyperparams = hyperparams
        self.seed = seed
        self.extractor = FeatureExtractor(
            history,
            sources,
            classify=classify,
            rec_window=rec_window,
            impact_depth=impact_depth,
        )
        self._matrix_cache: dict[int, FeatureMatrix] = {}

    def matrix(self, build_id: int, snapshot: Snapshot | None = None) -> FeatureMatrix:
        if snapshot is not None:
            return self.extractor.matrix(build_id, snapshot)
        m = self._matrix_cache.get(build_id)
        if m is None:
            m = self.extractor.matrix(build_id)
            self._matrix_cache[build_id] = m
        return m

    def model_for(self, build_id: int) -> RankModel:
        """Model trained on all failed builds strictly before ``build_id``."""
        train = [b for b in self.history.failed_builds if b.id < build_id]
        if not train:
            raise InsufficientHistoryError(f"no failed builds before {build_id}")
        X, y = stack_matrices([self.matrix(b.id) for b in train])
        return train_ranker(X, y, self.hyperparams, seed=self.seed)


def run_pipeline_eval(
    history: BuildHistory,
    sources: dict[str, str] | None = None,
    hyperparams: Hyperparams = Hyperparams(),
    seed: int = 0,
    max_builds: int = 50,
    heuristic: str = DEFAULT_HEURISTIC,
    random_samples: int = 20,
    **extractor_kwargs,
) -> EvaluationReport:
    """Train-on-prior evaluation over the latest failed builds.

    For each evaluated build: the full learned model, the single-feature
    heuristic, a sampled random baseline, and the optimal ordering each
    get one APFD_C row.
    """
    heuristic_key(heuristic)  # a bad heuristic fails before any feature work
    if len(history.failed_builds) < 2:
        raise InsufficientHistoryError("need at least 2 failed builds to evaluate")
    evaluable = _evaluable_failed_builds(history, max_builds)
    ev = PipelineEvaluator(history, sources, hyperparams, seed, **extractor_kwargs)
    report = EvaluationReport(
        config={
            "seed": seed,
            "max_builds": max_builds,
            "heuristic": heuristic,
            "random_samples": random_samples,
            "hyperparams": dataclasses.asdict(hyperparams),
        }
    )
    for build in evaluable:
        model = ev.model_for(build.id)
        matrix = ev.matrix(build.id)
        report.apfdc_rows.append(
            (build.id, "full", apfdc_of_build(build, rank_tests(model, matrix)))
        )
        report.apfdc_rows.append(
            (build.id, "heuristic", apfdc_of_build(build, heuristic_rank(matrix, heuristic)))
        )
        report.apfdc_rows.append(
            (build.id, "random", random_baseline_apfdc(build, seed, random_samples))
        )
        report.apfdc_rows.append(
            (build.id, "optimal", apfdc_of_build(build, optimal_ordering(build)))
        )
    report.timing_rows = ev.extractor.timings.rows()
    return report


@dataclass
class DecayCurve:
    """Mean APFD_C per retraining window (RW)."""

    rows: list[tuple[int, float, int]]  # (rw, mean_apfdc, n_pairs)
    pairs: list[tuple[int, int, int, float]] = field(default_factory=list)
    # (anchor_build, target_build, rw, apfdc)

    def slope(self) -> float:
        """Least-squares slope of mean APFD_C over RW."""
        x = np.array([r[0] for r in self.rows], dtype=np.float64)
        y = np.array([r[1] for r in self.rows], dtype=np.float64)
        return float(np.polyfit(x, y, 1)[0])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("rw,mean_apfdc,n_pairs\n")
            for rw, mean, n in self.rows:
                f.write(f"{rw},{mean!r},{n}\n")


def decay_experiment(
    history: BuildHistory,
    sources: dict[str, str] | None = None,
    hyperparams: Hyperparams = Hyperparams(),
    seed: int = 0,
    max_builds: int = 50,
    max_rw: int = 11,
    **extractor_kwargs,
) -> DecayCurve:
    """Evaluate stale models on later builds against their frozen snapshots.

    Each evaluated failed build k yields a model m_k; m_k then prioritizes
    every failed build up to ``max_rw`` positions later in the failed-build
    sequence, with mining-backed features computed against build k's
    snapshot (execution-record features stay live).  RW counts positions
    in the failed-build sequence, so the curve's domain is contiguous;
    RW = 0 reproduces the standard evaluation exactly.

    Anchors without the full window (fewer than ``max_rw`` later failed
    builds) are dropped when possible, so every RW cell averages over the
    same anchor set and the slope is not confounded by which anchors can
    reach which windows.
    """
    if len(history.failed_builds) < 2:
        raise InsufficientHistoryError("need at least 2 failed builds to evaluate")
    if not isinstance(max_rw, int) or max_rw < 0:
        raise InvalidConfigError(f"max_rw must be an integer >= 0, got {max_rw!r}")
    evaluable = _evaluable_failed_builds(history, max_builds)
    ev = PipelineEvaluator(history, sources, hyperparams, seed, **extractor_kwargs)
    positions = {b.id: i for i, b in enumerate(history.failed_builds)}
    last_position = len(history.failed_builds) - 1
    full_window = [a for a in evaluable if positions[a.id] + max_rw <= last_position]
    anchors = full_window or evaluable
    by_rw: dict[int, list[float]] = {}
    pairs: list[tuple[int, int, int, float]] = []
    for anchor in anchors:
        model = ev.model_for(anchor.id)
        snapshot = ev.extractor.snapshot(anchor.id)
        for target in history.failed_builds:
            rw = positions[target.id] - positions[anchor.id]
            if rw < 0 or rw > max_rw:
                continue
            matrix = ev.matrix(target.id, snapshot if rw > 0 else None)
            value = apfdc_of_build(target, rank_tests(model, matrix))
            by_rw.setdefault(rw, []).append(value)
            pairs.append((anchor.id, target.id, rw, value))
    rows = [(rw, float(np.mean(vals)), len(vals)) for rw, vals in sorted(by_rw.items())]
    return DecayCurve(rows, pairs)
