"""tcpci benchmark: one workload per invocation, checked, metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload evaluate-replay --seed 7 --seconds 30 --trace 0

The seed drives the synthetic generator; the program sees only the dataset
written to disk.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced passes with passes
that record spans around the calls into every layer, and prints the
per-layer metrics.  The last line of stdout is the result object; in the
untraced mode the line before it, ``raw:``, holds the end-to-end times
without the host-speed correction.  The exit code is 0 only when every
output check passed; a failed operation is counted and the run goes on.
A run where the program used threads or child processes is refused (exit
3, no result), because the speed correction is not valid for it.  Inputs,
reports and span dumps go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the reference host has two cores and the
# benchmark is a single caller.  Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5
SETUP_MAX = 40
MIN_TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small generator configs and ensembles (smoke test)")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the first ordering checked, to show the checks fail the run")
    return p.parse_args(argv)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples above it.

    With 10 or fewer samples there is no such percentile and the maximum
    stands in, reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= MIN_TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - MIN_TAIL_BEYOND) / n, xs[n - MIN_TAIL_BEYOND - 1]


class SetUp:
    """Dataset generation and write, repeated for a steady median time.

    The first copy is the run's input; further copies are written and
    removed, at least ``SETUP_REPEATS`` in all and more while they take
    less than ``SETUP_SECONDS`` together.  The garbage collector runs
    before each repeat, outside the timed part.  A set-up kernel brackets
    each repeat, and the repeat's time is scaled to the kernel's
    reference speed.
    """

    def __init__(self, workloads, workload, speed, seed: int, tiny: bool):
        self.base = OUT / f"{workload.name}-{seed}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.dataset = self.base / "data"
        write = functools.partial(
            workloads.synth.write_synthetic_dataset,
            config=workload.tiny_config if tiny else workload.config,
            seed=seed,
        )
        kernel_dir = self.base / "kernel"
        self.raw: list[float] = []
        self.times: list[float] = []  # at the reference speed
        while len(self.raw) < SETUP_REPEATS or (
            not tiny and len(self.raw) < SETUP_MAX and sum(self.raw) < SETUP_SECONDS
        ):
            target = self.dataset if not self.raw else self.base / "setup-copy"
            gc.collect()
            with speed.quiet():
                before = calibrate.setup_kernel(kernel_dir)
            start = speed.now()
            write(target)
            raw = speed.interval(start)[2]
            with speed.quiet():
                after = calibrate.setup_kernel(kernel_dir)
            self.raw.append(raw)
            self.times.append(raw * calibrate.SETUP_REFERENCE_S / ((before + after) / 2))
            if target != self.dataset:
                shutil.rmtree(target)


def measure(run, workload, seconds: float, tiny: bool) -> None:
    """Closed loop over the workload's operations for about ``seconds``.

    At least one pass always runs.  After that, an operation starts only if
    the median of its kind still fits in the time left, so a run overshoots
    by little.  A failed operation is counted and the loop goes on, so
    ``success_rate`` is the share of operations that passed.
    """
    pass_ops = sum(workload.per_pass.values())
    t0 = time.perf_counter()
    for done, (kind, op) in enumerate(workload.operations(run, tiny)):
        past = run.op_intervals.get(kind)
        if done >= pass_ops and (
            not past or time.perf_counter() - t0 + statistics.median(iv[2] for iv in past) > seconds
        ):
            break
        run.speed.sample()
        run.operation(op)
    run.speed.sample()


def measure_traced(run, workload, seconds: float, tiny: bool) -> list[tuple[bool, float]]:
    """Whole passes, alternately untraced and traced; returns (traced, seconds) per pass.

    Each pass starts the workload afresh.  The passes run untraced, traced,
    untraced at least, and one more traced and untraced pair while two
    passes still fit in ``seconds``.  Each traced pass has an untraced one
    on either side, which gives a measured tracing overhead.  Pass times
    are at the reference speed, from kernel samples before and after each
    operation.
    """
    pass_ops = sum(workload.per_pass.values())
    t0 = time.perf_counter()
    passes: list[tuple[bool, float]] = []
    while len(passes) < 3 or (
        not passes[-1][0]
        and time.perf_counter() - t0 + 2 * statistics.median(t for _, t in passes) <= seconds
    ):
        traced = len(passes) % 2 == 1
        first = len(run.timeline)
        run.recorder.active = traced
        for kind, op in itertools.islice(workload.operations(run, tiny), pass_ops):
            run.speed.sample()
            run.operation(op)
        run.recorder.active = False
        run.speed.sample()
        passes.append((traced, sum(run.speed.corrected(iv) for iv in run.timeline[first:])))
    return passes


def pass_seconds(workload, seconds: dict[str, list[float]]) -> float:
    """One pass: per kind, operations per pass times the median operation."""
    return sum(n * statistics.median(seconds[k]) for k, n in workload.per_pass.items())


def end_to_end(run, workload, setup: SetUp) -> tuple[dict[str, tuple[float, str]], dict]:
    """The end-to-end metrics, times at the reference host speed, and raw times.

    The second value holds the same times uncorrected, in seconds or
    milliseconds as their metric.
    """
    per_pass: dict[int, list[int]] = {}  # pass -> indices into run.prioritize
    for i, (p, _) in enumerate(run.prioritize):
        per_pass.setdefault(p, []).append(i)
    full = max(len(v) for v in per_pass.values())
    # The tail is taken per pass, over passes with the full sample count, so
    # its percentile does not depend on how many passes fit in the run.
    passes = [v for v in per_pass.values() if len(v) == full]

    def times(seconds) -> dict[str, float]:
        ms = [1e3 * seconds(iv) for _, iv in run.prioritize]
        tails = [tail([ms[i] for i in v]) for v in passes]
        return {
            "wall_s": pass_seconds(workload, {
                k: [seconds(iv) for iv in ivs] for k, ivs in run.op_intervals.items()
            }),
            "train_s": statistics.median(seconds(iv) for iv in run.train),
            "prioritize_p50_ms": statistics.median(ms),
            "prioritize_tail_ms": statistics.median(v for _, v in tails),
        }

    fixed = times(run.speed.corrected)
    raw = {"setup_s": statistics.median(setup.raw), **times(lambda iv: iv[2])}
    run.notes.append(
        f"samples: setup {len(setup.times)}, train {len(run.train)}, "
        f"prioritize {len(run.prioritize)} (tail is the median over {len(passes)} passes "
        f"of p{tail([0.0] * full)[0]:.1f} of {full}), "
        f"speed kernel {len(run.speed.samples)}; median speed factor "
        f"{run.speed.median_factor():.4f}"
    )
    return {
        "setup_s": (statistics.median(setup.times), "s"),
        "wall_s": (fixed["wall_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_s": (fixed["train_s"], "s"),
        "prioritize_p50_ms": (fixed["prioritize_p50_ms"], "ms"),
        "prioritize_tail_ms": (fixed["prioritize_tail_ms"], "ms"),
        "apfdc_full_mean": (run.apfdc_mean(), "1"),
        "success_rate": ((run.attempted - run.failed) / run.attempted, "1"),
    }, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tcpci" / "__init__.py").is_file():
        print(f"error: no tcpci sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tcpci

    if not Path(tcpci.__file__).resolve().is_relative_to(SRC):
        print(f"error: tcpci imported from {tcpci.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    speed = calibrate.Speed()
    if not args.trace:
        speed.start()
    try:
        setup = SetUp(workloads, workload, speed, args.seed, args.tiny)
        recorder = None
        if args.trace:
            recorder = spans.Recorder()
            recorder.install(layers.observers())
        run = workloads.Run(setup.dataset, setup.base, speed, recorder,
                            inject_fault=args.inject_fault)
        with workloads.probes(run):
            if args.trace:
                passes = measure_traced(run, workload, args.seconds, args.tiny)
            else:
                measure(run, workload, args.seconds, args.tiny)
    finally:
        speed.stop()

    if speed.concurrency:
        print(f"error: the program ran {speed.concurrency[0]} beside the speed kernel "
              f"(in {len(speed.concurrency)} of {len(speed.samples)} samples); the speed "
              "correction in calibrate.py is not valid for it and must be recalibrated",
              file=sys.stderr)
        return 3
    ok = run.failed == 0
    metrics, raw = {}, None
    try:
        if args.trace:
            metrics = layers.per_layer(recorder, workload, passes, spans.Recorder.span_cost())
            recorder.dump(setup.base / "spans.json")
        else:
            metrics, raw = end_to_end(run, workload, setup)
    except (statistics.StatisticsError, ValueError) as exc:
        if ok:
            raise
        print(f"no metrics: failed operations left too few samples ({exc})", file=sys.stderr)
    for msg in run.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for note in run.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    if args.trace and metrics:
        print(layers.verdict(metrics))
    print(f"operations: {run.attempted} attempted, {run.failed} failed "
          f"(error_rate {run.failed / max(run.attempted, 1):.6g})")
    if raw is not None:
        print("raw: " + json.dumps(raw))
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
