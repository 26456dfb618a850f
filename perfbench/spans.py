"""In-memory span recorder for the traced benchmark mode.

The recorder wraps callables of the ``tcpci`` modules from outside the
package: it replaces module and class attributes at run time and never
edits a source file.  Each call made while the recorder is active stores one
span ``[name, start, end, parent]``; a parent is the index of the enclosing
span, or -1 for a root.  Spans stay in memory until :meth:`Recorder.dump`
writes them out at the end of a run.

A layer is a module of ``src/tcpci``.  Its self time is the duration of its
spans minus the time their child spans cover.  The benchmark's own root
spans (one per timed operation) keep the time no layer span covers: the
benchmark's glue around the call and the wrappers' own bookkeeping.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

#: The benchmark's own spans (one per timed operation) use this layer name.
BENCH = "bench"

#: Layers on a measured path and the callables traced in each, as
#: ``(module, attribute)``; ``Class.method`` names a method.  ``catalog``,
#: ``stemming`` and ``commit_classifier`` are on no pipeline path and
#: ``synth`` is traced only for ``load_sources``.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "ingest": ("ingest_exec_records",),
    "synth": ("load_sources",),
    "code_analysis": (
        "analyze_file",
        "compute_change_metrics",
        "ProcessHistory.__init__",
        "ProcessHistory.metrics",
    ),
    "coverage": (
        "DependencyGraph.__init__",
        "DependencyGraph.impacted_files",
        "AssociationMiner.__init__",
        "AssociationMiner.cov_score",
        "PdfIndex.__init__",
    ),
    "features": (
        "FeatureExtractor.__init__",
        "FeatureExtractor.matrix",
        "FeatureExtractor.snapshot",
    ),
    "matrix": ("stack_matrices",),
    "trees": ("RegressionTree.fit", "RegressionTree.predict"),
    "ranker": (
        "train_ranker",
        "rank_tests",
        "heuristic_rank",
        "RankModel.predict",
        "RankModel.to_json",
        "RankModel.from_json",
    ),
    "evaluation": (
        "run_pipeline_eval",
        "decay_experiment",
        "remove_frequent_failers",
        "apfdc",
        "random_baseline_apfdc",
        "PipelineEvaluator.model_for",
        "EvaluationReport.write",
        "DecayCurve.write",
    ),
}

LAYERS = (*TARGETS, BENCH)

#: ``observer(recorder, seconds, args, kwargs, result)`` runs after a traced
#: call returns; it adds counts the span alone does not carry.
Observer = Callable[["Recorder", float, tuple, dict, object], None]


class Recorder:
    """Spans and counters of one run; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counters: dict[tuple[int, str], float] = {}
        self.objects: dict[str, list[tuple[int, object]]] = {}
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def paused(self):
        """Run benchmark-side work (output checks) without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextmanager
    def span(self, name: str):
        """Record ``[name, start, end, parent]``; yields the span (None if inactive)."""
        if not self.active:
            yield None
            return
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def root(self) -> int:
        """Index of the root span of the call in progress (-1 outside one)."""
        return self._stack[0] if self._stack else -1

    def add(self, key: str, n: float = 1) -> None:
        """Count ``n`` for ``key`` under the root span in progress."""
        k = (self.root(), key)
        self.counters[k] = self.counters.get(k, 0) + n

    def keep(self, key: str, value) -> None:
        """Keep a value for reading after the run, under the current root."""
        self.objects.setdefault(key, []).append((self.root(), value))

    # -- installation ----------------------------------------------------

    def wrap(self, name: str, fn: Callable, observer: Observer | None = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            with rec.span(name) as span:
                result = fn(*args, **kwargs)
            if observer is not None:
                t0 = time.perf_counter()
                observer(rec, span[2] - span[1], args, kwargs, result)
                rec.add("trace.observer_s", time.perf_counter() - t0)
            return result

        return traced

    def install(self, observers: dict[str, Observer]) -> None:
        """Wrap every target; every module attribute bound to it is rebound."""
        modules = [importlib.import_module(f"tcpci.{m}") for m in TARGETS]
        for layer, attrs in TARGETS.items():
            home = importlib.import_module(f"tcpci.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr}"
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, observers.get(name)))
                    else:
                        new = self.wrap(name, raw, observers.get(name))
                    setattr(cls, meth, new)
                    continue
                original = getattr(home, attr)
                new = self.wrap(name, original, observers.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, new)

    # -- analysis --------------------------------------------------------

    @staticmethod
    def span_cost(calls: int = 5000, rounds: int = 5) -> float:
        """Seconds a traced call costs over a plain one, without an observer.

        Times a no-op plain and wrapped, in alternating rounds, on a
        throwaway recorder; the median difference per call.
        """
        rec = Recorder()
        rec.active = True

        def noop():
            pass

        traced = rec.wrap("noop", noop)
        diffs = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            rec.spans.clear()
            diffs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(diffs)

    def rows(self) -> list[tuple[str, float, float, int]]:
        """Per span: (name, duration, self time, index of its root span).

        Self time is the duration minus the time of the direct children;
        calls are synchronous, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, end - start, end - start - child[i], root[i])
            for i, (name, start, end, _) in enumerate(self.spans)
        ]

    def dump(self, path: Path) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans
                    ],
                    "counters": [[r, k, v] for (r, k), v in self.counters.items()],
                },
                f,
                separators=(",", ":"),
            )
