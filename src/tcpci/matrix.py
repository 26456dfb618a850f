"""Feature matrices: one row of 150 values per (build, test) pair."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import CATALOG
from .errors import SchemaError


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
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["build_id", "test_path", *CATALOG.names])
            for i, test in enumerate(self.tests):
                w.writerow([self.build, test, *(repr(v) for v in self.values[i].tolist())])

    @classmethod
    def read_csv(cls, path: Path) -> "FeatureMatrix":
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None or header[:2] != ["build_id", "test_path"] or tuple(header[2:]) != CATALOG.names:
                raise SchemaError(f"{path}: header does not match the feature catalog")
            build = None
            tests = []
            rows = []
            for row in reader:
                if build is None:
                    build = int(row[0])
                elif int(row[0]) != build:
                    raise SchemaError(f"{path}: multiple build ids in one matrix file")
                tests.append(row[1])
                rows.append([float(v) for v in row[2:]])
        values = np.array(rows, dtype=np.float64).reshape(len(tests), len(CATALOG))
        return cls(build=build if build is not None else 0, tests=tuple(tests), values=values)


def stack_matrices(matrices: list[FeatureMatrix]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate labeled matrices into one (X, y) training set."""
    xs, ys = [], []
    for m in matrices:
        if m.labels is None:
            raise ValueError(f"matrix for build {m.build} has no labels")
        xs.append(m.values)
        ys.append(m.labels)
    return np.vstack(xs), np.concatenate(ys)
