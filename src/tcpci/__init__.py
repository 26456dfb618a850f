"""Test-case prioritization for continuous integration.

Mines build histories and version-control metadata, extracts a fixed
150-feature representation of every (build, test) pair, trains a bagged
boosted-tree ranker, and evaluates orderings with cost-cognizant APFD.
"""

__version__ = "0.1.0"

from .catalog import CATALOG, FeatureCatalog, FeatureGroup
from .model import (
    AssociationScores,
    Build,
    BuildHistory,
    Commit,
    ExecutionRecord,
    FileChange,
    Verdict,
)

__all__ = [
    "CATALOG",
    "FeatureCatalog",
    "FeatureGroup",
    "AssociationScores",
    "Build",
    "BuildHistory",
    "Commit",
    "ExecutionRecord",
    "FileChange",
    "Verdict",
]
