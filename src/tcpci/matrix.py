"""Feature matrices: one row of 150 values per (build, test) pair."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import CATALOG
from .ingest import csv_bytes


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature rows for one build; tests sorted lexicographically."""

    build: int
    tests: tuple[str, ...]
    values: np.ndarray  # shape (len(tests), 150)
    labels: np.ndarray | None = None  # 1.0 where the test failed, if known

    def __post_init__(self):
        if self.values.shape != (len(self.tests), len(CATALOG)):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.tests)} tests x {len(CATALOG)} features"
            )
        if list(self.tests) != sorted(self.tests):
            raise ValueError("tests must be sorted lexicographically")
        if np.isnan(self.values).any():
            raise ValueError("NaN is not a valid feature value")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, CATALOG.index(CATALOG.resolve(name))]

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = ("build_id", "test_path", *CATALOG.names)
        rows = self.values.tolist()
        path.write_bytes(
            csv_bytes(header, lambda: ((self.build, t, *r) for t, r in zip(self.tests, rows)))
        )


def stack_matrices(matrices: list[FeatureMatrix]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate labeled matrices into one (X, y) training set."""
    xs, ys = [], []
    for m in matrices:
        if m.labels is None:
            raise ValueError(f"matrix for build {m.build} has no labels")
        xs.append(m.values)
        ys.append(m.labels)
    return np.vstack(xs), np.concatenate(ys)
