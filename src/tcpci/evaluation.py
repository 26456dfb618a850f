"""Cost-cognizant evaluation: APFD_C, outlier removal, decay, timing.

APFD_C for an ordering with durations t_1..t_n (in executed order) and m
failing tests at positions TF_1..TF_m:

    APFD_C = sum_i ( sum_{j=TF_i}^{n} t_j  -  t_{TF_i}/2 )
             -----------------------------------------------
                     ( sum_{j=1}^{n} t_j ) * m

Each failing test counts as a distinct fault.  The optimal ordering runs
failing tests first, each tier sorted by duration ascending.

Zero is a valid duration.  A build whose durations are all 0 has no cost
to weigh, so it is scored with unit costs: APFD_C's limit as all costs
become equal, which is APFD.

The random baseline is exact, not sampled.  With T the total cost, every
other test runs after a failing test f with probability 1/2 under a
uniformly random ordering, so f's expected suffix cost is
t_f + (T - t_f)/2, and less t_f/2 that is T/2.  The expected APFD_C of a
random ordering is therefore 1/2 for any costs and any failures, and the
unit-cost rule gives 1/2 as well.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import statistics
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientHistoryError, NoFailuresError, check_option
from .features import FeatureExtractor
from .ingest import csv_bytes
from .matrix import FeatureMatrix, stack_matrices
from .model import Build, BuildHistory, Verdict
from .ranker import Hyperparams, RankModel, heuristic_key, heuristic_rank, rank_tests, train_ranker

log = logging.getLogger(__name__)

DEFAULT_HEURISTIC = "F_FailRate_Total:desc"
#: How many of the latest failed builds evaluation and the decay run replay.
DEFAULT_MAX_BUILDS = 50


def optimal_ordering(build: Build) -> list[str]:
    """Failed tests first by duration ascending, then passed likewise."""
    passed = (build.verdicts == Verdict.PASSED).tolist()
    return [t for _, _, t in sorted(zip(passed, build.durations.tolist(), build.tests))]


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
    if total == 0.0:  # no cost to weigh: unit costs, i.e. APFD
        t = np.ones_like(t)
        total = float(len(t))
    # suffix[j] = sum of t_j..t_n (1-based position j -> index j-1)
    suffix = np.cumsum(t[::-1])[::-1]
    numerator = float((suffix[failed] - t[failed] / 2.0).sum())
    return numerator / (total * m)


def apfdc_of_build(build: Build, ordering: list[str]) -> float:
    verdicts = dict(zip(build.tests, (build.verdicts != Verdict.PASSED).tolist()))
    durations = dict(zip(build.tests, build.durations.tolist()))
    return apfdc(ordering, verdicts, durations)


def random_baseline_apfdc(build: Build) -> float:
    """Expected APFD_C of a uniformly random ordering: exactly 1/2."""
    if not build.failed:
        raise NoFailuresError("APFD_C is undefined for a build with no failures")
    return 0.5


def remove_frequent_failers(history: BuildHistory) -> tuple[BuildHistory, list[str]]:
    """Drop three-sigma outlier tests by failure count; single pass.

    Counts builds in which each test failed, over tests with at least one
    execution; a test whose count exceeds mean + 3 * sample standard
    deviation is removed from every build.  Builds failing only through
    removed tests become passing (the failed flag is derived from records).
    """
    counts: dict[str, int] = {}
    for b in history.builds:
        for test, failed in zip(b.tests, (b.verdicts != Verdict.PASSED).tolist()):
            counts[test] = counts.get(test, 0) + failed
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
    builds = []
    for b in history.builds:
        keep = np.array([t not in removed_set for t in b.tests], dtype=bool)
        tests = tuple(t for t, k in zip(b.tests, keep.tolist()) if k)
        builds.append(
            Build(b.id, b.commits, tests, b.verdicts[keep], b.durations[keep], b.wall_clock)
        )
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
        (out_dir / "apfdc.csv").write_bytes(
            csv_bytes(("build_id", "strategy", "apfdc"), lambda: self.apfdc_rows)
        )
        (out_dir / "timing.csv").write_bytes(
            csv_bytes(("group", "P", "M", "T"), lambda: self.timing_rows)
        )
        payload = {
            "config": self.config,
            "summary": {
                s: {"mean": mu, "sd": sd} for s, (mu, sd) in self.summary().items()
            },
            "builds_evaluated": sorted({b for b, _, _ in self.apfdc_rows}),
        }
        with open(out_dir / "report.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)


def _anchors(history: BuildHistory, max_builds: int, max_rw: int) -> tuple[Build, ...]:
    """The latest (up to ``max_builds``) failed builds with a prior failed
    build to train on, keeping only those followed by ``max_rw`` failed
    builds when any is."""
    check_option("max_builds", max_builds, int, 1)
    failed = history.failed_builds
    if len(failed) < 2:
        raise InsufficientHistoryError("need at least 2 failed builds to evaluate")
    first = max(1, len(failed) - max_builds)  # the first failed build has no training data
    end = len(failed) - max_rw  # anchors before it have the full window
    return failed[first:end] if end > first else failed[first:]


class PipelineEvaluator:
    """Shared plumbing for training, the standard evaluation and the decay
    run; ``extractor_kwargs`` go to :class:`FeatureExtractor`."""

    def __init__(
        self,
        history: BuildHistory,
        sources: dict[str, str] | None = None,
        hyperparams: Hyperparams = Hyperparams(),
        seed: int = 0,
        **extractor_kwargs,
    ):
        self.history = history
        self.hyperparams = hyperparams
        self.seed = seed
        self.extractor = FeatureExtractor(history, sources, **extractor_kwargs)
        self._matrix_cache: dict[int, FeatureMatrix] = {}

    def matrix(self, build_id: int) -> FeatureMatrix:
        """The live matrix of a build, computed once."""
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

    def replay(
        self, anchors: tuple[Build, ...], max_rw: int
    ) -> Iterator[tuple[Build, Build, int, RankModel, FeatureMatrix]]:
        """``(anchor, target, rw, model, matrix)`` for each anchor's model
        and each failed build ``rw`` <= ``max_rw`` positions later in the
        failed-build sequence; at RW > 0 the mining-backed features are
        computed against the anchor's snapshot."""
        failed = self.history.failed_builds
        position = {b.id: i for i, b in enumerate(failed)}
        for anchor in anchors:
            model = self.model_for(anchor.id)
            snapshot = self.extractor.snapshot(anchor.id)
            i = position[anchor.id]
            for rw, target in enumerate(failed[i : i + max_rw + 1]):
                if rw == 0:
                    matrix = self.matrix(target.id)
                else:
                    matrix = self.extractor.matrix(target.id, snapshot)
                yield anchor, target, rw, model, matrix


def run_pipeline_eval(
    history: BuildHistory,
    sources: dict[str, str] | None = None,
    hyperparams: Hyperparams = Hyperparams(),
    seed: int = 0,
    max_builds: int = DEFAULT_MAX_BUILDS,
    heuristic: str = DEFAULT_HEURISTIC,
    **extractor_kwargs,
) -> EvaluationReport:
    """Train-on-prior evaluation over the latest failed builds.

    For each evaluated build: the full learned model, the single-feature
    heuristic, the random baseline (exactly 1/2, see the module docstring)
    and the optimal ordering each get one APFD_C row.  The builds and
    models are the RW 0 cells of :meth:`PipelineEvaluator.replay`, so the
    full rows equal :func:`decay_experiment`'s RW 0 pairs.
    """
    heuristic_key(heuristic)  # a bad heuristic fails before any feature work
    anchors = _anchors(history, max_builds, 0)
    ev = PipelineEvaluator(history, sources, hyperparams, seed, **extractor_kwargs)
    report = EvaluationReport(
        config={
            "seed": seed,
            "max_builds": max_builds,
            "heuristic": heuristic,
            "hyperparams": dataclasses.asdict(hyperparams),
        }
    )
    for build, _, _, model, matrix in ev.replay(anchors, 0):
        report.apfdc_rows += [
            (build.id, "full", apfdc_of_build(build, rank_tests(model, matrix))),
            (build.id, "heuristic", apfdc_of_build(build, heuristic_rank(matrix, heuristic))),
            (build.id, "random", random_baseline_apfdc(build)),
            (build.id, "optimal", apfdc_of_build(build, optimal_ordering(build))),
        ]
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
        path.write_bytes(csv_bytes(("rw", "mean_apfdc", "n_pairs"), lambda: self.rows))


def decay_experiment(
    history: BuildHistory,
    sources: dict[str, str] | None = None,
    hyperparams: Hyperparams = Hyperparams(),
    seed: int = 0,
    max_builds: int = DEFAULT_MAX_BUILDS,
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
    reach which windows.  A slope needs a cell past RW 0 (``max_rw`` >= 1).
    """
    check_option("max_rw", max_rw, int, 1)
    anchors = _anchors(history, max_builds, max_rw)
    if anchors[0] is history.failed_builds[-1]:
        raise InsufficientHistoryError("no failed build follows the evaluated ones: RW 0 only")
    ev = PipelineEvaluator(history, sources, hyperparams, seed, **extractor_kwargs)
    by_rw: dict[int, list[float]] = {}
    pairs: list[tuple[int, int, int, float]] = []
    for anchor, target, rw, model, matrix in ev.replay(anchors, max_rw):
        value = apfdc_of_build(target, rank_tests(model, matrix))
        by_rw.setdefault(rw, []).append(value)
        pairs.append((anchor.id, target.id, rw, value))
    rows = [(rw, float(np.mean(vals)), len(vals)) for rw, vals in sorted(by_rw.items())]
    return DecayCurve(rows, pairs)
