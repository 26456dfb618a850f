"""The canonical 150-feature catalog.

The catalog fixes the order, group membership, and names of every feature
the pipeline produces.  The code generates it: :data:`CATALOG` is what
:func:`build_catalog` returns.  ``data/feature_catalog.csv`` is a committed
copy for readers and other tools; :func:`load_committed_catalog` reads it,
and the test suite asserts that it matches the generated catalog.
"""

from __future__ import annotations

import csv
import enum
import hashlib
from dataclasses import dataclass
from importlib import resources


class FeatureGroup(str, enum.Enum):
    REC = "REC"
    TES_COM = "TES_COM"
    TES_PRO = "TES_PRO"
    TES_CHN = "TES_CHN"
    F_COV = "F_COV"
    COD_COV_COM = "COD_COV_COM"
    COD_COV_PRO = "COD_COV_PRO"
    COD_COV_CHN = "COD_COV_CHN"
    DET_COV = "DET_COV"


#: Complexity metrics of one source file (31).
COMPLEXITY_METRICS = (
    "CountDeclFunction",
    "CountLine",
    "CountLineBlank",
    "CountLineCode",
    "CountLineCodeDecl",
    "CountLineCodeExe",
    "CountLineComment",
    "CountStmt",
    "CountStmtDecl",
    "CountStmtExe",
    "RatioCommentToCode",
    "MaxCyclomatic",
    "MaxCyclomaticModified",
    "MaxCyclomaticStrict",
    "MaxEssential",
    "MaxNesting",
    "SumCyclomatic",
    "SumCyclomaticModified",
    "SumCyclomaticStrict",
    "SumEssential",
    "CountDeclClass",
    "CountDeclClassMethod",
    "CountDeclClassVariable",
    "CountDeclExecutableUnit",
    "CountDeclInstanceMethod",
    "CountDeclInstanceVariable",
    "CountDeclMethod",
    "CountDeclMethodDefault",
    "CountDeclMethodPrivate",
    "CountDeclMethodProtected",
    "CountDeclMethodPublic",
)

#: Process metrics of one source file (6).
PROCESS_METRICS = (
    "CommitCount",
    "DistinctDevCount",
    "OwnersContribution",
    "MinorContributorCount",
    "OwnersExperience",
    "AllCommitersExperience",
)

#: Change metrics of one source file within one build (7).
CHANGE_METRICS = (
    "LinesAdded",
    "LinesDeleted",
    "AddedChangeScattering",
    "DeletedChangeScattering",
    "DMMUnitSize",
    "DMMUnitComplexity",
    "DMMUnitInterfacing",
)

#: Execution-record features (19).
REC_FEATURES = (
    "Age",
    "LastFailAge",
    "LastTransitionAge",
    "LastVerdict",
    "LastExeTime",
    "RecentAvgExeTime",
    "RecentMaxExeTime",
    "RecentFailRate",
    "RecentAssertRate",
    "RecentExcRate",
    "RecentTransitionRate",
    "TotalAvgExeTime",
    "TotalMaxExeTime",
    "TotalFailRate",
    "TotalAssertRate",
    "TotalExcRate",
    "TotalTransitionRate",
    "MaxTestFileFailRate",
    "MaxTestFileTransitionRate",
)

F_COV_FEATURES = ("CovCCount", "CovICount", "SumCovCScore", "SumCovIScore")

DET_COV_FEATURES = ("WSumCovCFaults", "WSumCovIFaults")


@dataclass(frozen=True)
class CatalogEntry:
    group: FeatureGroup
    name: str


class FeatureCatalog:
    """Ordered list of (group, name) pairs with index lookup."""

    def __init__(self, entries: list[CatalogEntry]):
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in catalog")
        self.entries: tuple[CatalogEntry, ...] = tuple(entries)
        self._index = {e.name: i for i, e in enumerate(self.entries)}
        blob = ";".join(f"{e.group.value}:{e.name}" for e in self.entries)
        self._fingerprint = hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.entries)

    def index(self, name: str) -> int:
        return self._index[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def group_indices(self, group: FeatureGroup) -> list[int]:
        return [i for i, e in enumerate(self.entries) if e.group is group]

    def group_slice(self, group: FeatureGroup) -> slice:
        idx = self.group_indices(group)
        if idx != list(range(idx[0], idx[-1] + 1)):
            raise AssertionError(f"group {group} not contiguous")
        return slice(idx[0], idx[-1] + 1)

    def fingerprint(self) -> str:
        """Stable identifier of the catalog layout, stored in model files;
        computed once, as ``entries`` is a tuple."""
        return self._fingerprint

    def resolve(self, name: str) -> str:
        """Resolve a feature name, accepting F_-prefixed spellings.

        Accepts catalog names ("TotalFailRate"), the F_ prefix
        ("F_TotalFailRate"), and trailing-variant spellings such as
        "F_FailRate_Total" or "F_FailRate(Total)".
        """
        candidates = [name]
        stripped = name[2:] if name.startswith("F_") else name
        candidates.append(stripped)
        for variant in ("Total", "Recent"):
            for suffix in (f"_{variant}", f"({variant})"):
                if stripped.endswith(suffix):
                    candidates.append(variant + stripped[: -len(suffix)])
        for cand in candidates:
            if cand in self._index:
                return cand
        raise KeyError(name)


def build_catalog() -> FeatureCatalog:
    """Generate the canonical 150-feature catalog.

    Layout: REC 19, TES_COM 31, TES_PRO 6, TES_CHN 7, F_COV 4,
    COD_COV_COM 62, COD_COV_PRO 12, COD_COV_CHN 7 (changed-set only),
    DET_COV 2.
    """
    entries: list[CatalogEntry] = []
    for name in REC_FEATURES:
        entries.append(CatalogEntry(FeatureGroup.REC, name))
    for name in COMPLEXITY_METRICS:
        entries.append(CatalogEntry(FeatureGroup.TES_COM, name))
    for name in PROCESS_METRICS:
        entries.append(CatalogEntry(FeatureGroup.TES_PRO, name))
    for name in CHANGE_METRICS:
        entries.append(CatalogEntry(FeatureGroup.TES_CHN, name))
    for name in F_COV_FEATURES:
        entries.append(CatalogEntry(FeatureGroup.F_COV, name))
    for name in COMPLEXITY_METRICS:
        entries.append(CatalogEntry(FeatureGroup.COD_COV_COM, f"C_{name}"))
    for name in COMPLEXITY_METRICS:
        entries.append(CatalogEntry(FeatureGroup.COD_COV_COM, f"I_{name}"))
    for name in PROCESS_METRICS:
        entries.append(CatalogEntry(FeatureGroup.COD_COV_PRO, f"C_{name}"))
    for name in PROCESS_METRICS:
        entries.append(CatalogEntry(FeatureGroup.COD_COV_PRO, f"I_{name}"))
    for name in CHANGE_METRICS:
        entries.append(CatalogEntry(FeatureGroup.COD_COV_CHN, f"C_{name}"))
    for name in DET_COV_FEATURES:
        entries.append(CatalogEntry(FeatureGroup.DET_COV, name))
    catalog = FeatureCatalog(entries)
    assert len(catalog) == 150
    return catalog


def load_committed_catalog() -> FeatureCatalog:
    """Read the committed catalog file shipped with the package."""
    text = resources.files("tcpci").joinpath("data/feature_catalog.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    return FeatureCatalog(
        [CatalogEntry(FeatureGroup(r["group"]), r["name"]) for r in rows]
    )


CATALOG = build_catalog()
