"""Walkthrough: from a commit history to a per-build feature matrix.

Generates a small synthetic CI history, then shows the three ingredients
the prioritizer feeds on: change association scores mined from commits,
the import-based dependency graph, and the assembled 150-column feature
matrix for one build.
"""

import numpy as np

from tcpci.catalog import CATALOG
from tcpci.coverage import AssociationMiner, build_dependency_graph_from_sources
from tcpci.features import FeatureExtractor
from tcpci.synth import SynthConfig, generate_synthetic_history

cfg = SynthConfig(n_files=30, n_tests=12, n_builds=25, files_per_build=5)
history, sources = generate_synthetic_history(cfg, seed=4)
print(f"synthetic history: {len(history.builds)} builds, "
      f"{len(history.commits)} commits, {len(sources)} source files")
graph = build_dependency_graph_from_sources(sources)
some_test = sorted(graph.tests)[0]
covered = sorted(graph.covered_files(some_test))

# --- association mining -------------------------------------------------
miner = AssociationMiner(history.commit_sequence)
print(f"\nco-change confidence of {some_test} with its imported files:")
n = len(history.commit_sequence)
for f in covered:
    s = miner.scores(f, some_test, n)
    print(f"  {f:24s} support {s.support:.3f}  confidence {s.confidence:.3f}  "
          f"lift {s.lift:.3f}")

# --- dependency graph ---------------------------------------------------
print(f"\n{some_test} statically covers {len(covered)} files:")
for f in covered:
    print(f"  {f}")

# --- feature matrix -----------------------------------------------------
extractor = FeatureExtractor(history, sources)
build = history.builds[-1]
matrix = extractor.matrix(build.id)
print(f"\nfeature matrix for build {build.id}: {matrix.values.shape[0]} tests "
      f"x {matrix.values.shape[1]} features")

show = ["Age", "RecentFailRate", "TotalFailRate", "CovCCount", "SumCovCScore",
        "C_CountLine", "WSumCovCFaults"]
header = "test".ljust(26) + "".join(name.rjust(16) for name in show)
print(header)
for i, t in enumerate(matrix.tests):
    row = "".join(f"{matrix.values[i, CATALOG.index(n)]:16.3f}" for n in show)
    print(t.ljust(26) + row)

failed = [r.test for r in build.records if r.verdict.value != 0]
print(f"\nthis build actually failed: {failed or 'nothing'}")
print("highest CovCCount rows should line up with the changed-coverage tests")

col = matrix.values[:, CATALOG.index("CovCCount")]
order = np.argsort(-col)
print("top-3 by CovCCount:", [matrix.tests[i] for i in order[:3]])
