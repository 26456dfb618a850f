"""Bagged boosted-tree ranking model over the 150-feature representation.

Each bag draws a bootstrap row sample and a feature subsample, then fits a
short sequence of least-squares regression trees on residuals (MART-style
boosting: :func:`trees.boost` with the identity link, squared loss).  The
ensemble score of a test is the mean over bags of the bag's base plus its
trees' shrunk predictions; the model scores all trees at once through one
:class:`trees.Forest` node table, built when the model is.  Tests are
executed in descending score order.  Labels are binary: 1 for a failing
execution, 0 otherwise.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .catalog import CATALOG
from .errors import (
    CatalogMismatchError,
    NoFailedBuildsError,
    SchemaError,
    UnknownFeatureError,
    check_fields,
)
from .matrix import FeatureMatrix
from .trees import (
    Forest, Grower, RegressionTree, boost, index_array, node_arrays, pack_nodes, unpack_nodes,
)

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
        check_fields(self, _RANGES)


#: Range of each :class:`Hyperparams` field (``check_option``'s ``low``,
#: ``high`` and ``low_open``).
_RANGES = {
    **dict.fromkeys(("n_bags", "trees_per_bag", "max_leaves"), (1,)),
    "shrinkage": (0, math.inf, True),
    **dict.fromkeys(("sample_rate", "feature_rate"), (0, 1, True)),
}


@dataclass
class _Bag:
    feature_idx: np.ndarray
    base: float
    trees: list[RegressionTree]


@dataclass
class RankModel:
    hyperparams: Hyperparams
    seed: int
    catalog_fingerprint: str
    #: every tree of the model in one node table
    forest: Forest

    @property
    def bags(self) -> list[_Bag]:
        """Each bag's catalog columns, base and trees (views into the table)."""
        k = self.forest.trees_per_bag
        return [
            _Bag(feature_idx=c, base=float(v), trees=self.forest.trees[i * k : (i + 1) * k])
            for i, (c, v) in enumerate(zip(self.forest.columns, self.forest.base))
        ]

    def predict(self, X: np.ndarray) -> np.ndarray:
        if CATALOG.fingerprint() != self.catalog_fingerprint:
            raise CatalogMismatchError(
                f"model was trained against catalog {self.catalog_fingerprint}, "
                f"matrix uses {CATALOG.fingerprint()}"
            )
        return self.forest.predict(X)

    def feature_usage(self) -> np.ndarray:
        """Split counts per catalog feature, summed over all trees."""
        feature = self.forest.feature
        return np.bincount(feature[feature >= 0], minlength=len(CATALOG))

    def to_json(self) -> str:
        """The model file: its own fields, then its trees (:func:`trees.pack_nodes`)."""
        return json.dumps(
            {
                "catalog_fingerprint": self.catalog_fingerprint,
                "seed": self.seed,
                "hyperparams": asdict(self.hyperparams),
                "bags": [
                    {"feature_idx": c.tolist(), "base": float(v)}
                    for c, v in zip(self.forest.columns, self.forest.base)
                ],
                **pack_nodes(*self.forest.nodes),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RankModel":
        """Parse :meth:`to_json` output of a model trained against this
        catalog; anything else raises SchemaError."""
        try:
            d = json.loads(text)
            nodes = unpack_nodes(d)
            hp = Hyperparams(**d["hyperparams"])
            missing = [f.name for f in fields(Hyperparams) if f.name not in d["hyperparams"]]
            if missing:
                raise SchemaError(f"model hyperparams lack {missing}")
            seed, bags, fingerprint = d["seed"], d["bags"], d["catalog_fingerprint"]
            if type(seed) is not int:
                raise SchemaError(f"model seed must be an integer, got {seed!r}")
            if len(bags) != hp.n_bags:
                raise SchemaError(f"model has {len(bags)} bags, its hyperparams say {hp.n_bags}")
            columns = [index_array(b["feature_idx"], "feature_idx") for b in bags]
            flat = np.concatenate(columns)
            if ((flat < 0) | (flat >= len(CATALOG))).any():
                raise SchemaError(f"feature_idx must list catalog columns below {len(CATALOG)}")
            base = [b["base"] for b in bags]
            if not all(type(v) in (int, float) for v in base):
                raise SchemaError("bag base must be a number")
            k = hp.trees_per_bag
            if len(nodes[0]) != hp.n_bags * k:
                raise SchemaError(
                    f"model has {len(nodes[0])} trees, its hyperparams say {hp.n_bags} bags of {k}"
                )
            if fingerprint != CATALOG.fingerprint():
                raise SchemaError(
                    f"model was trained against catalog {fingerprint!r}, "
                    f"this one is {CATALOG.fingerprint()}"
                )
            return cls(hp, seed, fingerprint, Forest(columns, base, hp.shrinkage, *nodes))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
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
    columns, bases, trees = [], [], []
    for b in range(hp.n_bags):
        rng = np.random.default_rng([seed, b])
        rows = rng.choice(n, size=n_rows, replace=True)
        feats = np.sort(rng.choice(d, size=n_feats, replace=False))
        yb = y[rows]
        base = float(yb.mean())
        grower = Grower(X[np.ix_(rows, feats)])
        trees += boost(grower, yb, base, hp.trees_per_bag, hp.shrinkage, hp.max_leaves, lambda z: z)
        columns.append(feats)
        bases.append(base)
    forest = Forest(columns, bases, hp.shrinkage, *node_arrays(trees))
    return RankModel(hp, seed, CATALOG.fingerprint(), forest)


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
