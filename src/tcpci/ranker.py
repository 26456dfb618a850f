"""Bagged boosted-tree ranking model over the 150-feature representation.

Each bag draws a bootstrap row sample and a feature subsample, then fits a
short sequence of least-squares regression trees on residuals (MART-style
boosting: :func:`trees.boost` with the identity link, squared loss).  The
ensemble score of a test is the mean of :func:`trees.score` over bags; tests
are executed in descending score order.  Labels are binary: 1 for a failing
execution, 0 otherwise.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .catalog import CATALOG
from .errors import (
    CatalogMismatchError,
    NoFailedBuildsError,
    SchemaError,
    UnknownFeatureError,
)
from .matrix import FeatureMatrix
from .trees import Grower, RegressionTree, boost, score

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperparams:
    """Ensemble shape; the defaults are the tuned operating point."""

    n_bags: int = 150
    trees_per_bag: int = 5
    max_leaves: int = 200
    shrinkage: float = 0.2
    sample_rate: float = 0.5
    feature_rate: float = 0.3

    def __post_init__(self):
        sizes = (self.n_bags, self.trees_per_bag, self.max_leaves)
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in sizes):
            raise ValueError(f"ensemble sizes must be integers >= 1, got {sizes}")
        s = self.shrinkage
        if isinstance(s, bool) or not isinstance(s, (int, float)) or not 0 < s < math.inf:
            raise ValueError(f"shrinkage must be a real number > 0, got {s!r}")
        if not (0 < self.sample_rate <= 1 and 0 < self.feature_rate <= 1):
            raise ValueError("sampling rates must lie in (0, 1]")


@dataclass
class _Bag:
    feature_idx: np.ndarray
    base: float
    trees: list[RegressionTree]


@dataclass
class RankModel:
    hyperparams: Hyperparams
    seed: int
    bags: list[_Bag]
    catalog_fingerprint: str = field(default_factory=lambda: CATALOG.fingerprint())

    def predict(self, X: np.ndarray) -> np.ndarray:
        if CATALOG.fingerprint() != self.catalog_fingerprint:
            raise CatalogMismatchError(
                f"model was trained against catalog {self.catalog_fingerprint}, "
                f"matrix uses {CATALOG.fingerprint()}"
            )
        X = np.asarray(X, dtype=np.float64)
        scores = np.zeros(len(X))
        for bag in self.bags:
            scores += score(bag.trees, X[:, bag.feature_idx], bag.base, self.hyperparams.shrinkage)
        return scores / len(self.bags)

    def feature_usage(self) -> np.ndarray:
        """Split counts per catalog feature, summed over all trees."""
        counts = np.zeros(len(CATALOG), dtype=np.int64)
        for bag in self.bags:
            for tree in bag.trees:
                np.add.at(counts, bag.feature_idx[tree.feature[tree.feature >= 0]], 1)
        return counts

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "catalog_fingerprint": self.catalog_fingerprint,
                "seed": self.seed,
                "hyperparams": asdict(self.hyperparams),
                "bags": [
                    {
                        "feature_idx": bag.feature_idx.tolist(),
                        "base": bag.base,
                        "trees": [t.to_dict() for t in bag.trees],
                    }
                    for bag in self.bags
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RankModel":
        """Parse :meth:`to_json` output; anything else raises SchemaError."""
        try:
            d = json.loads(text)
            if not isinstance(d, dict) or d.get("version") != 1:
                raise SchemaError("not a version-1 model file")
            hp = Hyperparams(**d["hyperparams"])
            bags = [
                _Bag(
                    feature_idx=np.array(b["feature_idx"], dtype=np.int64),
                    base=float(b["base"]),
                    trees=[RegressionTree.from_dict(t) for t in b["trees"]],
                )
                for b in d["bags"]
            ]
            if len(bags) != hp.n_bags:
                raise SchemaError(f"model has {len(bags)} bags, its hyperparams say {hp.n_bags}")
            return cls(
                hyperparams=hp,
                seed=int(d["seed"]),
                bags=bags,
                catalog_fingerprint=str(d["catalog_fingerprint"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed model file: {exc!r}") from exc


def train_ranker(
    X: np.ndarray,
    y: np.ndarray,
    hyperparams: Hyperparams = Hyperparams(),
    seed: int = 0,
) -> RankModel:
    """Fit the bagged ensemble; deterministic for a fixed (X, y, seed).

    All-equal labels degrade gracefully to a constant model (with a
    warning): constant targets yield single-leaf trees everywhere.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) == 0:
        raise NoFailedBuildsError("no training rows; need at least one prior failed build")
    if len(np.unique(y)) < 2:
        log.warning("all %d training labels equal %.3g; model will be constant", len(y), y[0])
    hp = hyperparams
    n, d = X.shape
    n_rows = max(1, math.ceil(hp.sample_rate * n))
    n_feats = max(1, math.ceil(hp.feature_rate * d))
    bags = []
    for b in range(hp.n_bags):
        rng = np.random.default_rng([seed, b])
        rows = rng.choice(n, size=n_rows, replace=True)
        feats = np.sort(rng.choice(d, size=n_feats, replace=False))
        yb = y[rows]
        base = float(yb.mean())
        grower = Grower(X[rows][:, feats])
        trees = boost(grower, yb, base, hp.trees_per_bag, hp.shrinkage, hp.max_leaves, lambda z: z)
        bags.append(_Bag(feature_idx=feats, base=base, trees=trees))
    return RankModel(hyperparams=hp, seed=seed, bags=bags)


def rank_tests(model: RankModel, matrix: FeatureMatrix) -> list[str]:
    """Execution order: descending score, ties by TotalAvgExeTime then id (row order)."""
    scores = model.predict(matrix.values)
    order = np.lexsort((matrix.column("TotalAvgExeTime"), -scores))
    return [matrix.tests[i] for i in order]


def heuristic_key(spec: str) -> tuple[str, float]:
    """The feature and sort sign of a heuristic, e.g. ``"F_FailRate_Total:desc"``.

    The direction suffix is ``:desc`` or ``:asc`` (default descending).
    """
    if not isinstance(spec, str):
        raise UnknownFeatureError(f"heuristic must be a string like 'TotalFailRate:desc': {spec!r}")
    name, _, direction = spec.partition(":")
    direction = direction or "desc"
    if direction not in ("asc", "desc"):
        raise UnknownFeatureError(f"bad sort direction {direction!r} in {spec!r}")
    try:
        name = CATALOG.resolve(name)
    except KeyError as exc:
        raise UnknownFeatureError(f"unknown feature {name!r}") from exc
    return name, -1.0 if direction == "desc" else 1.0


def heuristic_rank(matrix: FeatureMatrix, spec: str) -> list[str]:
    """Order by the single feature :func:`heuristic_key` reads from ``spec``.

    Ties break by test id (stable sort over rows in id order).
    """
    name, sign = heuristic_key(spec)
    order = np.argsort(sign * matrix.column(name), kind="stable")
    return [matrix.tests[i] for i in order]
