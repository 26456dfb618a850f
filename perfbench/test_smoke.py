"""Smoke test of the benchmark on tiny configurations.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
Every workload must print every metric named in ``BENCHMARK.json`` in both
modes, and a run whose output check is forced to fail must exit non-zero
and report the failure in ``success_rate``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1", "--tiny", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_every_metric(workload, trace, section):
    code, result = bench("--workload", workload, "--trace", trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failed_check_fails_the_run(workload):
    code, result = bench("--workload", workload, "--trace", "0", "--seconds", "5",
                         "--inject-fault")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    # the run goes on after the failure, so the rate reflects it
    assert result["attempted"] > result["failed"]
    rate = result["metrics"]["success_rate"]["value"]
    assert rate == (result["attempted"] - result["failed"]) / result["attempted"] < 1



# Run in a fresh interpreter with BLAS pinned to one thread, as run.py does;
# this test process may hold BLAS threads of its own.
SPEED_PROBE = """
import subprocess, sys, threading
import calibrate
speed = calibrate.Speed()
speed.sample()
assert speed.concurrency == [], speed.concurrency
stop = threading.Event()
worker = threading.Thread(target=stop.wait)
worker.start()
speed.sample()
stop.set()
worker.join()
assert "threads" in speed.concurrency[-1], speed.concurrency
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
speed.sample()
child.kill()
child.wait()
assert "child" in speed.concurrency[-1], speed.concurrency
"""


def test_speed_sample_sees_threads_and_children():
    env = {**os.environ, "PYTHONPATH": str(HERE),
           **{v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    proc = subprocess.run([sys.executable, "-c", SPEED_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
