"""Walkthrough: train the ranker and score it with cost-cognizant APFD.

Runs the train-on-prior evaluation loop on a coverage-driven synthetic
dataset: for each failed build the model is trained on all earlier failed
builds, ranks that build's tests, and the ordering is scored against the
random/heuristic/optimal baselines.
"""

from tcpci.evaluation import remove_frequent_failers, run_pipeline_eval
from tcpci.ranker import Hyperparams
from tcpci.synth import SynthConfig, generate_synthetic_history

cfg = SynthConfig(n_files=80, n_tests=40, n_builds=40)
history, sources = generate_synthetic_history(cfg, seed=9)

history, removed = remove_frequent_failers(history)
print(f"{len(history.builds)} builds, {len(history.failed_builds)} failed; "
      f"outlier filter removed {len(removed)} tests")

report = run_pipeline_eval(
    history,
    sources,
    hyperparams=Hyperparams(n_bags=30, trees_per_bag=5, max_leaves=64),
    seed=0,
    max_builds=12,
)

print("\nmean APFD_C per strategy (higher is better):")
for strategy, (mean, sd) in report.summary().items():
    print(f"  {strategy:10s} {mean:.4f}  (sd {sd:.4f})")

print("\nper-build values for the learned model vs the optimal ordering:")
full = {b: v for b, s, v in report.apfdc_rows if s == "full"}
optimal = {b: v for b, s, v in report.apfdc_rows if s == "optimal"}
for b in sorted(full):
    print(f"  build {b:3d}:  full {full[b]:.3f}   optimal {optimal[b]:.3f}")

print("\nfeature computation cost per group (seconds):")
print(f"  {'group':14s}{'preprocess':>12s}{'measure':>12s}{'total':>12s}")
for group, p, m, t in report.timing_rows:
    print(f"  {group:14s}{p:12.3f}{m:12.3f}{t:12.3f}")
