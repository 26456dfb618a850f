"""The benchmark's workloads: generated inputs, timed operations, output checks.

Every workload is a closed loop with one caller, as in a CI job that runs
``tcpci`` and waits for it.  Each operation goes through ``tcpci.cli.main``
in process (stdout captured) or, for training, through the same library
calls the ``train`` subcommand makes.  Only the program call is timed; the
checks that follow it are not.

* ``evaluate-replay``: ``tcpci evaluate`` on the default synthetic repository
  with the ensemble shape of acceptance test 4 (30 bags x 5 trees x 64
  leaves) over the latest failed builds.  Tree fitting carries the time.
* ``prioritize-cold``: one default-shape training on the 3 failed builds
  before a window of the latest builds, then ``tcpci prioritize`` replayed
  cold, build after build, on a larger repository.  No training per call.
* ``decay-drift``: ``tcpci decay`` on the acceptance drift configuration
  with its 4-leaf ensemble: shallow trees, stale-snapshot matrices and many
  scorings against a dozen models.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import calibrate
from tcpci import cli, evaluation, features, ingest, matrix, ranker, synth
from tcpci.ranker import Hyperparams
from tcpci.synth import SynthConfig

#: The acceptance suite's drift configuration and ensemble (test 6).
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
DECAY_MAX_RW = 11

#: Failed builds the prioritize-cold model trains on, before its window.
TRAIN_BUILDS = 3


def _hp_flags(hp: Hyperparams) -> list[str]:
    return [
        "--bags", str(hp.n_bags),
        "--trees-per-bag", str(hp.trees_per_bag),
        "--max-leaves", str(hp.max_leaves),
        "--feature-rate", repr(hp.feature_rate),
    ]


class CheckFailure(Exception):
    """An output check failed; the operation counts as failed."""


@dataclass
class Run:
    """State of one benchmark run: inputs, samples, checks and the recorder."""

    dataset: Path
    work: Path
    speed: calibrate.Speed = field(default_factory=calibrate.Speed)
    recorder: object | None = None  # spans.Recorder in the traced mode
    inject_fault: bool = False  # corrupt the first ordering checked
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    # (start, end, raw seconds) of operations, per kind and in order, and of
    # the calls timed inside them
    op_intervals: dict[str, list[tuple]] = field(default_factory=dict)
    timeline: list[tuple] = field(default_factory=list)
    train: list[tuple] = field(default_factory=list)
    prioritize: list[tuple] = field(default_factory=list)  # (pass, interval)
    pass_no: int = 0  # the pass in progress, for the tail per pass
    last_op: tuple = (0.0, 0.0, 0.0)
    notes: list[str] = field(default_factory=list)
    apfdc_full: dict[object, tuple[float, int]] = field(default_factory=dict)
    _op_failures: list[str] = field(default_factory=list)

    # -- timing ------------------------------------------------------------

    @contextlib.contextmanager
    def timed(self, kind: str):
        """Time one program call; in the traced mode it is a root span."""
        start = self.speed.now()
        with self.recorder.span(f"bench.{kind}") if self.recorder else contextlib.nullcontext():
            yield
        self.last_op = self.speed.interval(start)
        self.op_intervals.setdefault(kind, []).append(self.last_op)
        self.timeline.append(self.last_op)

    def checking(self):
        """Benchmark-side work that the recorder must not attribute to a layer."""
        return self.recorder.paused() if self.recorder else contextlib.nullcontext()

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self._op_failures.append(what)

    def check_ordering(self, ordering: list[str], tests) -> None:
        if self.inject_fault:
            self.inject_fault = False
            ordering = ordering[:-1]
        self.check(
            len(ordering) == len(set(ordering)) and sorted(ordering) == sorted(tests),
            "an ordering is not a permutation of its build's tests",
        )

    def check_apfdc(self, value: float) -> None:
        self.check(0.0 <= value <= 1.0, f"APFD_C {value!r} outside [0, 1]")

    def record_apfdc(self, key, value: float, weight: int = 1) -> None:
        """Learned-model APFD_C; a repeat of the same key must reproduce it."""
        self.check_apfdc(value)
        if key in self.apfdc_full:
            self.check(self.apfdc_full[key][0] == value, f"APFD_C of {key} changed on a repeat")
        self.apfdc_full[key] = (value, weight)

    def apfdc_mean(self) -> float:
        """Weighted mean of the learned model's APFD_C values."""
        total = sum(w for _, w in self.apfdc_full.values())
        return math.fsum(v * w for v, w in self.apfdc_full.values()) / total if total else math.nan

    def operation(self, fn: Callable[[], None]) -> None:
        """Run one operation with its checks; a failure is counted, not raised."""
        self._op_failures = []
        try:
            fn()
        except Exception as exc:  # the benchmark reports it and goes on
            self._op_failures.append(f"{type(exc).__name__}: {exc}")
        self.attempted += 1
        if self._op_failures:
            self.failed += 1
            self.messages.extend(self._op_failures)

    # -- program calls -----------------------------------------------------

    def cli(self, kind: str, argv: list[str]) -> str:
        """``tcpci <argv>`` in process; returns its stdout."""
        out, err = io.StringIO(), io.StringIO()
        with self.timed(kind), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailure(f"tcpci {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()


@contextlib.contextmanager
def probes(run: Run) -> Iterator[None]:
    """Time training and scoring inside ``evaluation`` and check its outputs.

    The wrappers replace the names ``evaluation`` calls; they add two clock
    reads and a permutation or range check per call.
    """
    orig = {
        name: getattr(evaluation, name)
        for name in ("train_ranker", "rank_tests", "heuristic_rank", "apfdc_of_build")
    }

    def train_ranker(*args, **kwargs):
        start = run.speed.now()
        model = orig["train_ranker"](*args, **kwargs)
        run.train.append(run.speed.interval(start))
        return model

    def rank_tests(model, m, *args, **kwargs):
        with run.speed.quiet():
            start = run.speed.now()
            ordering = orig["rank_tests"](model, m, *args, **kwargs)
            run.prioritize.append((run.pass_no, run.speed.interval(start)))
        run.check_ordering(ordering, m.tests)
        return ordering

    def heuristic_rank(m, *args, **kwargs):
        ordering = orig["heuristic_rank"](m, *args, **kwargs)
        run.check_ordering(ordering, m.tests)
        return ordering

    def apfdc_of_build(build, ordering):
        value = orig["apfdc_of_build"](build, ordering)
        run.check_apfdc(value)
        return value

    wrappers = {
        "train_ranker": train_ranker,
        "rank_tests": rank_tests,
        "heuristic_rank": heuristic_rank,
        "apfdc_of_build": apfdc_of_build,
    }
    for name, fn in wrappers.items():
        setattr(evaluation, name, fn)
    try:
        yield
    finally:
        for name, fn in orig.items():
            setattr(evaluation, name, fn)


@dataclass(frozen=True)
class Workload:
    """A generated input, the operations run on it, and one pass's shape.

    ``per_pass`` maps each operation kind to how many of them one pass
    holds; ``wall_s`` is the median pass built from the medians per kind.
    """

    name: str
    config: SynthConfig
    tiny_config: SynthConfig
    per_pass: dict[str, int]
    operations: Callable[[Run, bool], Iterator[tuple[str, Callable[[], None]]]]


# -- evaluate-replay --------------------------------------------------------

EVAL_HP = Hyperparams(n_bags=30, trees_per_bag=5, max_leaves=64)
EVAL_MAX_BUILDS = 2


def _evaluate_ops(run: Run, tiny: bool):
    hp = Hyperparams(n_bags=3, trees_per_bag=2, max_leaves=8) if tiny else EVAL_HP
    out = run.work / "reports"
    argv = ["evaluate", str(run.dataset), "--out", str(out),
            "--max-builds", str(EVAL_MAX_BUILDS), *_hp_flags(hp)]

    def op():
        run.pass_no += 1
        run.cli("evaluate", argv)
        with run.checking():
            with open(out / "apfdc.csv", newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            run.check(len(rows) == 4 * EVAL_MAX_BUILDS, f"expected {4 * EVAL_MAX_BUILDS} APFD_C rows")
            for r in rows:
                value = float(r["apfdc"])
                if r["strategy"] == "full":
                    run.record_apfdc(int(r["build_id"]), value)
                else:
                    run.check_apfdc(value)

    while True:
        yield "evaluate", op


# -- prioritize-cold --------------------------------------------------------

COLD_CFG = SynthConfig(n_files=600, n_tests=300, n_builds=80, files_per_build=12)
COLD_WINDOW = 8


def _prioritize_ops(run: Run, tiny: bool):
    hp = Hyperparams(n_bags=3, trees_per_bag=2, max_leaves=8) if tiny else Hyperparams()
    model_path = run.work / "model.json"
    state = {}
    warm: dict[int, list[str]] = {}  # warm-path ordering per window build

    def train():
        # what ``tcpci train`` does, restricted to the builds before the window
        with run.timed("train"):
            layout = ingest.DatasetLayout(run.dataset)
            history = ingest.ingest_exec_records(layout)
            sources = synth.load_sources(layout)
            extractor = features.FeatureExtractor(history, sources)
            window = history.builds[-COLD_WINDOW:]
            prior = [b for b in history.failed_builds if b.id < window[0].id][-TRAIN_BUILDS:]
            if len(prior) < TRAIN_BUILDS:
                raise CheckFailure(f"only {len(prior)} failed builds before the window")
            X, y = matrix.stack_matrices([extractor.matrix(b.id) for b in prior])
            start = run.speed.now()
            model = ranker.train_ranker(X, y, hp, seed=0)
            run.train.append(run.speed.interval(start))
            model_path.write_text(model.to_json(), encoding="utf-8")
        with run.checking():
            # the warm path: a long-lived extractor and the in-memory model
            warm = features.FeatureExtractor(history, sources)
        state.update(warm=warm, model=model, window=window)
        run.check(any(b.failed for b in window), "no failed build in the window")

    def prioritize(build, sweep: int):
        def op():
            run.pass_no = sweep
            argv = ["prioritize", str(run.dataset), "--build", str(build.id),
                    "--model", str(model_path)]
            cold = run.cli("prioritize", argv).splitlines()
            run.prioritize.append((run.pass_no, run.last_op))
            with run.checking():
                run.check_ordering(cold, build.tests)
                if build.id not in warm:
                    warm[build.id] = ranker.rank_tests(
                        state["model"], state["warm"].matrix(build.id)
                    )
                run.check(cold == warm[build.id], f"cold ordering of build {build.id} differs from warm")
                if build.failed:
                    run.record_apfdc(build.id, evaluation.apfdc_of_build(build, cold))
        return op

    yield "train", train
    # nothing to replay when training failed
    for i, build in enumerate(itertools.cycle(state.get("window", ()))):
        yield "prioritize", prioritize(build, i // COLD_WINDOW)


# -- decay-drift ------------------------------------------------------------


def _decay_ops(run: Run, tiny: bool):
    hp = Hyperparams(n_bags=3, trees_per_bag=2, max_leaves=4, feature_rate=0.8) if tiny else DRIFT_HP
    max_rw = 3 if tiny else DECAY_MAX_RW
    out = run.work / "decay.csv"
    argv = ["decay", str(run.dataset), "--out", str(out), "--max-builds", "23",
            "--max-rw", str(max_rw), *_hp_flags(hp)]

    def op():
        run.pass_no += 1
        run.cli("decay", argv)
        with run.checking():
            with open(out, newline="", encoding="utf-8") as f:
                rows = [(int(r["rw"]), float(r["mean_apfdc"]), int(r["n_pairs"]))
                        for r in csv.DictReader(f)]
            run.check([r[0] for r in rows] == list(range(max_rw + 1)),
                      f"decay curve does not cover RW 0..{max_rw}")
            for rw, mean, n in rows:
                run.record_apfdc(rw, mean, n)

    while True:
        yield "decay", op


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate-replay",
            SynthConfig(),
            SynthConfig(n_files=30, n_tests=15, n_builds=12, files_per_build=4),
            {"evaluate": 1},
            _evaluate_ops,
        ),
        Workload(
            "prioritize-cold",
            COLD_CFG,
            SynthConfig(n_files=40, n_tests=20, n_builds=16, files_per_build=5),
            {"train": 1, "prioritize": COLD_WINDOW},
            _prioritize_ops,
        ),
        Workload(
            "decay-drift",
            DRIFT_CFG,
            DRIFT_CFG,
            {"decay": 1},
            _decay_ops,
        ),
    )
}
