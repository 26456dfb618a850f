"""Run the benchmark over several seeds and record the figures in a file.

    python3 perfbench/collect.py --label seed-baseline

For every workload of ``BENCHMARK.json`` this runs ``run.py`` once per seed
1-10 (untraced), then once traced on seed 7.  The setting is fixed, so
every results file is comparable with every other.  It writes
``perfbench/results/<label>.json``, which holds every value, the median and
quartiles, and the spread (quartile distance over median) of each
end-to-end metric, the same for the uncorrected times of the ``raw:``
line, and the traced run's per-layer figures.  A later change compares its
own file against this one, not against prose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 7


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    result["notes"] = [line for line in lines[:-1] if line.startswith(("samples:", "trace:"))]
    result["raw"] = next((json.loads(line[5:]) for line in lines if line.startswith("raw: ")), {})
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the results file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {
        "label": args.label,
        "run_seconds": spec["run_seconds"],
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0))},
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            r = bench(name, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, **r})
            print(f"{name} seed {seed}: {r['elapsed_s']:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
        entry = {
            "seeds": SEEDS,
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"],
                            **summary([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]
            },
            "raw": {k: summary([r["raw"][k] for r in runs]) for k in runs[0]["raw"]},
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "notes": [r["notes"] for r in runs],
        }
        t = bench(name, TRACE_SEED, spec["run_seconds"], 1)
        entry["traced"] = {"seed": TRACE_SEED, "notes": t["notes"],
                           "per_layer": {k: v["value"] for k, v in t["metrics"].items()}}
        out["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:20s} median {s['median']:.5g}  spread {s['spread']:.4f}"
                  f"  (bound {s['bound']})", flush=True)
    dest = HERE / "results" / f"{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(dest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
