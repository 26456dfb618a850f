"""Per-layer metrics of a traced run.

Every figure is per pass of the workload (see ``Workload.per_pass``): a
value recorded under a root operation of kind ``k`` is weighted by
``per_pass[k] / (traced operations of kind k)``.  Units follow the name:
``_s`` is seconds per pass, ``_ms`` is milliseconds per call (mean, or
median for ``_p50``), ``_calls`` and other counts are per pass, ``_share``
and ratios have unit 1.  ``self.<layer>_s`` is the layer's self time;
``trace.self_sum_s`` sums it over the layers of ``src/tcpci``, so the
benchmark's own share (``self.bench_s``) is what it leaves of
``trace.wall_s``.  ``trace.overhead_s`` is the layer spans per pass times
the measured cost of one traced call, plus the time the observers took.
As a cross-check, ``trace.overhead_measured_s`` is a traced pass minus the
mean of the untraced passes on either side, at the reference speed, and
``trace.overhead_noise_s`` is the difference of those two; the measured
figure is unresolved where it does not exceed the noise.
``percall.*`` covers only the cold ``tcpci prioritize`` calls (0 on
workloads without them).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tcpci.catalog import FeatureGroup

from spans import BENCH, LAYERS, Recorder

PERCALL_ROOT = f"{BENCH}.prioritize"
PERCALL_LAYERS = ("cli", "ingest", "synth", "code_analysis", "coverage",
                  "features", "matrix", "trees", "ranker")


def observers():
    """Counts taken from the arguments and results of traced calls."""

    def ingest(rec, dt, args, kwargs, result):
        rec.add("ingest.records", sum(len(b.records) for b in result.builds))

    def extractor(rec, dt, args, kwargs, result):
        # the timings only: keeping each extractor alive would slow the
        # garbage collector in later calls and inflate the traced times
        rec.keep("timings", args[0].timings)

    def matrix(rec, dt, args, kwargs, result):
        snapshot = args[2] if len(args) > 2 else kwargs.get("snapshot")
        kind = "live" if snapshot is None else "snapshot"
        rec.add(f"features.matrix_{kind}_calls")
        rec.add(f"features.matrix_{kind}_s", dt)
        rec.keep("matrix_key", (args[1], None if snapshot is None else snapshot.build))

    def stack(rec, dt, args, kwargs, result):
        rec.add("matrix.rows_stacked", len(result[1]))

    def fit(rec, dt, args, kwargs, result):
        rec.add("trees.leaves_total", result.n_leaves)
        rec.add("trees.leaf_budget", kwargs["max_leaves"] if "max_leaves" in kwargs else args[3])

    def predict(rec, dt, args, kwargs, result):
        rec.add("trees.predict_rows", len(args[1]))

    def train(rec, dt, args, kwargs, result):
        rec.add("ranker.nodes", sum(len(t.feature) for bag in result.bags for t in bag.trees))

    def to_json(rec, dt, args, kwargs, result):
        rec.add("ranker.model_bytes", len(result.encode("utf-8")))

    def outliers(rec, dt, args, kwargs, result):
        rec.add("evaluation.removed_tests", len(result[1]))

    return {
        "ingest.ingest_exec_records": ingest,
        "features.FeatureExtractor.__init__": extractor,
        "features.FeatureExtractor.matrix": matrix,
        "matrix.stack_matrices": stack,
        "trees.RegressionTree.fit": fit,
        "trees.RegressionTree.predict": predict,
        "ranker.train_ranker": train,
        "ranker.RankModel.to_json": to_json,
        "evaluation.remove_frequent_failers": outliers,
    }


def overhead(passes: list[tuple[bool, float]]) -> tuple[float, float]:
    """(overhead, noise) in seconds per pass, from alternating passes.

    Each traced pass is compared with the mean of the untraced passes on
    either side; the difference of those two is the noise of the estimate.
    Both are medians over the traced passes.
    """
    diffs, noise = [], []
    for i in range(1, len(passes) - 1):
        if passes[i][0]:
            before, after = passes[i - 1][1], passes[i + 1][1]
            diffs.append(passes[i][1] - (before + after) / 2)
            noise.append(abs(before - after))
    return statistics.median(diffs), statistics.median(noise)


def verdict(m: dict) -> str:
    """One line: how much of the traced time the layers account for."""
    wall, self_sum = m["trace.wall_s"][0], m["trace.self_sum_s"][0]
    over, noise = m["trace.overhead_measured_s"][0], m["trace.overhead_noise_s"][0]
    # one pair of untraced passes is a rough gauge of the drift, so a
    # difference above it is only "above the noise", never a measurement
    measured = "above the noise" if over > noise else "unresolved"
    return (f"trace: layer self times {self_sum:.6g} s of traced wall {wall:.6g} s "
            f"per pass, {wall - self_sum:.4g} s outside the layers; tracing overhead "
            f"{m['trace.overhead_s'][0]:.4g} s per pass from the span count; traced minus "
            f"untraced passes {over:+.4g} s, noise {noise:.3g} s ({measured})")


def per_layer(rec: Recorder, workload, passes: list[tuple[bool, float]],
              span_cost: float) -> dict:
    """Per-layer figures.

    ``passes`` is (traced, seconds) per pass, in order; ``span_cost`` is
    what one traced call adds, in seconds (``Recorder.span_cost``).
    """
    kind = {i: s[0].split(".", 1)[1] for i, s in enumerate(rec.spans) if s[3] < 0}
    n_kind = Counter(kind.values())
    weight = {i: workload.per_pass[k] / n_kind[k] for i, k in kind.items()}

    self_s = dict.fromkeys(LAYERS, 0.0)
    incl: dict[str, float] = defaultdict(float)  # seconds per pass
    calls: dict[str, float] = defaultdict(float)  # calls per pass
    fit_ms = []
    percall = dict.fromkeys(PERCALL_LAYERS, 0.0)
    percall_s = percall_n = percall_fit = 0.0
    for name, dur, self_t, root in rec.rows():
        w = weight[root]
        layer = name.split(".", 1)[0]
        self_s[layer] += w * self_t
        incl[name] += w * dur
        calls[name] += w
        if name == "trees.RegressionTree.fit":
            fit_ms.append(dur * 1e3)
        if rec.spans[root][0] == PERCALL_ROOT:
            if layer in percall:
                percall[layer] += self_t
            if name == PERCALL_ROOT:
                percall_s += dur
                percall_n += 1
            if name == "trees.RegressionTree.fit":
                percall_fit += dur
    count: dict[str, float] = defaultdict(float)
    for (root, key), value in rec.counters.items():
        count[key] += weight[root] * value

    def mean_ms(name: str) -> float:
        return 1e3 * incl[name] / calls[name] if calls[name] else 0.0

    wall = sum(incl[f"{BENCH}.{k}"] for k in workload.per_pass)
    over, noise = overhead(passes)
    m: dict[str, tuple[float, str]] = {
        "trace.wall_s": (wall, "s"),
        # over the layers of src/tcpci only, so time no layer covers shows
        "trace.self_sum_s": (sum(self_s[layer] for layer in LAYERS if layer != BENCH), "s"),
        # layer spans per pass at the measured cost each, plus the observers
        "trace.overhead_s": (
            sum(calls[n] for n in calls if not n.startswith(f"{BENCH}.")) * span_cost
            + count["trace.observer_s"], "s"),
        "trace.overhead_measured_s": (over, "s"),
        "trace.overhead_noise_s": (noise, "s"),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (self_s[layer], "s")

    m["ingest.read_ms"] = (mean_ms("ingest.ingest_exec_records"), "ms")
    m["ingest.records"] = (count["ingest.records"], "count")
    m["synth.load_sources_ms"] = (mean_ms("synth.load_sources"), "ms")

    m["features.init_s"] = (incl["features.FeatureExtractor.__init__"], "s")
    p = dict.fromkeys(FeatureGroup, 0.0)
    mm = dict.fromkeys(FeatureGroup, 0.0)
    for root, timings in rec.objects.get("timings", []):
        for g in FeatureGroup:
            p[g] += weight[root] * timings.p[g]
            mm[g] += weight[root] * timings.m[g]
    for g in FeatureGroup:
        m[f"features.P.{g.value}"] = (p[g], "s")
    for g in FeatureGroup:
        m[f"features.M.{g.value}"] = (mm[g], "s")

    m["code_analysis.analyze_file_s"] = (incl["code_analysis.analyze_file"], "s")
    m["code_analysis.analyze_file_calls"] = (calls["code_analysis.analyze_file"], "count")
    m["code_analysis.process_history_s"] = (incl["code_analysis.ProcessHistory.__init__"], "s")
    m["coverage.graph_s"] = (incl["coverage.DependencyGraph.__init__"], "s")
    m["coverage.miner_s"] = (incl["coverage.AssociationMiner.__init__"], "s")
    m["coverage.pdf_s"] = (incl["coverage.PdfIndex.__init__"], "s")

    for k in ("live", "snapshot"):
        n = count[f"features.matrix_{k}_calls"]
        m[f"features.matrix_{k}_ms"] = (1e3 * count[f"features.matrix_{k}_s"] / n if n else 0.0, "ms")
        m[f"features.matrix_{k}_calls"] = (n, "count")
    keys = [(root, key) for root, key in rec.objects.get("matrix_key", [])]
    m["features.matrix_calls_per_distinct"] = (len(keys) / len(set(keys)) if keys else 0.0, "1")
    m["coverage.cov_score_calls"] = (calls["coverage.AssociationMiner.cov_score"], "count")
    m["coverage.cov_score_s"] = (incl["coverage.AssociationMiner.cov_score"], "s")

    m["matrix.stack_s"] = (incl["matrix.stack_matrices"], "s")
    m["matrix.rows_stacked"] = (count["matrix.rows_stacked"], "count")
    fit_s = incl["trees.RegressionTree.fit"]
    m["trees.fit_calls"] = (calls["trees.RegressionTree.fit"], "count")
    m["trees.fit_s"] = (fit_s, "s")
    m["trees.fit_ms_p50"] = (statistics.median(fit_ms) if fit_ms else 0.0, "ms")
    m["trees.leaves_total"] = (count["trees.leaves_total"], "count")
    budget = count["trees.leaf_budget"]
    m["trees.leaves_per_budget"] = (count["trees.leaves_total"] / budget if budget else 0.0, "1")
    m["trees.fit_share"] = (fit_s / wall, "1")
    m["ranker.train_s"] = (incl["ranker.train_ranker"], "s")
    m["ranker.nodes"] = (count["ranker.nodes"], "count")

    m["trees.predict_calls"] = (calls["trees.RegressionTree.predict"], "count")
    m["trees.predict_rows"] = (count["trees.predict_rows"], "count")
    m["trees.predict_s"] = (incl["trees.RegressionTree.predict"], "s")
    m["ranker.predict_s"] = (incl["ranker.RankModel.predict"], "s")
    m["ranker.rank_tests_ms"] = (mean_ms("ranker.rank_tests"), "ms")
    m["ranker.from_json_ms"] = (mean_ms("ranker.RankModel.from_json"), "ms")
    m["ranker.to_json_s"] = (incl["ranker.RankModel.to_json"], "s")
    m["ranker.model_bytes"] = (count["ranker.model_bytes"], "B")

    m["evaluation.apfdc_s"] = (incl["evaluation.apfdc"], "s")
    m["evaluation.random_baseline_s"] = (incl["evaluation.random_baseline_apfdc"], "s")
    m["evaluation.outlier_filter_s"] = (incl["evaluation.remove_frequent_failers"], "s")
    m["evaluation.removed_tests"] = (count["evaluation.removed_tests"], "count")

    m["percall.ms"] = (1e3 * percall_s / percall_n if percall_n else 0.0, "ms")
    m["percall.fit_share"] = (percall_fit / percall_s if percall_s else 0.0, "1")
    for layer in PERCALL_LAYERS:
        m[f"percall.{layer}_ms"] = (1e3 * percall[layer] / percall_n if percall_n else 0.0, "ms")
    return m
