"""Host-speed normalisation of the end-to-end times.

On the 2-vCPU reference host, identical code drifted by up to ~40% between
back-to-back runs, and CPU time tracked wall time.  The drift is the host's
speed, so it moves the program and a fixed piece of work alike.  A kernel
of about 10 ms does the same mix of work as the pipeline: interpreted loops,
dict and string building, a column argsort with prefix sums and small
masked numpy ops.  It is timed on the benchmark's own thread before every
operation and every ``INTERVAL_S`` (from a ``SIGALRM`` handler), also in
the middle of a call into the program.  A kernel sample taken on another core did not track
the drift; one taken on the same thread, next to the work, did.

A timed interval's raw time excludes the kernel runs inside it.  It is
reported as

    raw * REFERENCE_S / mean(kernel samples taken from start to end)

which is the time on the host at its reference speed.  The kernel belongs
to the benchmark, so a change to the program moves the raw times and not
the kernel.  Each run prints its median speed factor and the raw times.

The correction holds only while the program runs on the kernel's thread
alone.  A program that ran threads or child processes beside it would slow
the kernel and be credited with speed it did not gain.  Every sample
therefore checks that the process has one thread and no child process,
and a run where that fails is refused (``Speed.concurrency``).
A change that adds parallelism has to recalibrate this module first.
What the correction does not remove: the kernel's runs inside a call evict
part of the program's cache, a cost that depends on the program's working
set and stays in the corrected time.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import shutil
import signal
import statistics
import threading
import time
from pathlib import Path

import numpy as np

#: Median kernel times on the reference host (2 vCPU Xeon, numpy 2.4.6,
#: Python 3.11).
REFERENCE_S = 0.012
SETUP_REFERENCE_S = 0.025
INTERVAL_S = 0.25

_A = np.random.default_rng(12345).random((1500, 45))
_IDX = np.arange(64)


def kernel() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    d: dict[str, int] = {}
    for i in range(4_000):
        d[f"src/File{i}.java"] = i
    order = np.argsort(_A, axis=0, kind="stable")
    np.cumsum(np.take_along_axis(_A, order, axis=0), axis=0)
    for j in range(200):
        mask = _A[_IDX, j % 45] <= 0.5
        acc += int(_IDX[mask].size)


_SOURCE = "class A {\n  void f(int x) {\n    if (x > 0) { g(x); }\n  }\n}\n" * 8


def _others() -> str | None:
    """What runs beside the calling thread, or None if nothing does."""
    if threading.active_count() > 1:
        return f"{threading.active_count()} Python threads"
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:  # no procfs: only Python threads are visible
        return None
    if len(tasks) > 1:
        return f"{len(tasks)} threads"
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as f:
                children = f.read().split()
        except OSError:
            continue
        if children:
            return f"child processes {' '.join(children)}"
    return None


def setup_kernel(scratch: Path) -> float:
    """Seconds for :func:`kernel` plus writing 40 small source files.

    Set-up is about half generation and half file writing, and the file
    system's speed drifts apart from the CPU's: in back-to-back processes
    the set-up time grew 2.4-fold while its ratio to this kernel stayed
    within ±12%.
    """
    t0 = time.perf_counter()
    kernel()
    scratch.mkdir(parents=True, exist_ok=True)
    for i in range(40):
        (scratch / f"F{i}.java").write_text(_SOURCE, encoding="utf-8")
    seconds = time.perf_counter() - t0
    shutil.rmtree(scratch)
    return seconds


class Speed:
    """Kernel samples over a run, and corrected times from them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.in_kernel = 0.0  # total seconds spent in kernel runs
        self.concurrency: list[str] = []  # what ran beside the kernel, per sample

    def sample(self) -> None:
        others = _others()
        if others is not None:
            self.concurrency.append(others)
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.in_kernel += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` until :meth:`stop`."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    @contextlib.contextmanager
    def quiet(self):
        """Hold samples back during a call of a few milliseconds.

        A kernel run inside it would be excluded from its time but would
        still leave it slower, with a cold cache, and distort the tail.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def now(self) -> tuple[float, float]:
        """A start mark for :meth:`interval`."""
        return time.perf_counter(), self.in_kernel

    def interval(self, start: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, raw seconds without the kernel runs in between)."""
        t1 = time.perf_counter()
        return start[0], t1, (t1 - start[0]) - (self.in_kernel - start[1])

    def corrected(self, iv: tuple[float, float, float]) -> float:
        return iv[2] * self.factor(iv[0], iv[1])

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time of samples in [t0, t1]."""
        times = [s[0] for s in self.samples]
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        inside = [d for _, d in self.samples[lo:hi]]
        if not inside:  # no sample in range: the nearest two
            inside = [d for _, d in self.samples[max(0, lo - 1): lo + 1]]
        return REFERENCE_S / statistics.fmean(inside)

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(d for _, d in self.samples)
