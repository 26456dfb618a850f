"""Walkthrough: how a stale model loses ground as the project drifts.

The drifting generator rotates which files are defect-prone midway through
the history.  Each failed build's model is then reused on later failed
builds with its mining state frozen at training time; grouping the scores
by how far ahead the model was pushed (the retraining window, RW) shows
the gradual loss of ordering quality that periodic retraining repairs.
"""

from tcpci.evaluation import decay_experiment
from tcpci.ranker import Hyperparams
from tcpci.synth import SynthConfig, generate_synthetic_history

cfg = SynthConfig(
    n_files=40,
    n_tests=30,
    n_builds=36,
    files_per_build=10,
    drift_period=18,
    risky_count=10,
    failure_weight=4.0,
    base_failure=0.005,
    flaky_count=0,
    fix_message_prob=0.02,
)
history, sources = generate_synthetic_history(cfg, seed=1)
print(f"{len(history.failed_builds)} failed builds; defect-prone files rotate "
      f"every {cfg.drift_period} builds")

curve = decay_experiment(
    history,
    sources,
    hyperparams=Hyperparams(n_bags=60, trees_per_bag=3, max_leaves=4, feature_rate=0.8),
    seed=0,
    max_builds=23,
    max_rw=11,
)

print("\nmean APFD_C by retraining window:")
print(f"  {'RW':>3s} {'mean':>8s} {'pairs':>6s}  ")
base = curve.rows[0][1]
for rw, mean, n in curve.rows:
    bar = "#" * int(60 * mean)
    print(f"  {rw:3d} {mean:8.4f} {n:6d}  {bar}")

print(f"\nleast-squares slope: {curve.slope():+.5f} per window")
print("a fresh model (RW=0) reproduces the standard evaluation exactly;")
print("older models rank with increasingly outdated fault associations")
