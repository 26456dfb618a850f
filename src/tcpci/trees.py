"""Least-squares regression trees grown best-first, and boosting over them.

The tree is the weak learner of both the ranking model and the commit
classifier, and :func:`boost` and :func:`score` are the fit and scoring
loops of both: Friedman's gradient boosting (Annals of Statistics, 2001),
whose loss a link function picks.  Growth is best-first: candidate splits
across all open leaves sit in one priority queue keyed by
sum-of-squared-error reduction, and the leaf with the largest reduction is
split next until ``max_leaves`` is reached.

Split finding is exact greedy over presorted columns, as in XGBoost's
column blocks (Chen & Guestrin, KDD 2016).  A :class:`Grower` is built
once per training matrix and serves every tree grown on it: it drops the
columns that are constant in the matrix and stable-argsorts each other
column once.  A split stable-partitions each sorted index array into the
children, so every node holds its rows in the order a stable argsort of
the node alone would give, and a column constant within a node is dropped
for its subtree.  The split score is computed only at the sorted positions
where adjacent values differ.  Everything is deterministic for a fixed
input.
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Callable

import numpy as np

from .errors import SchemaError


def index_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array.

    Raises SchemaError unless ``values`` is a list of JSON integers: an
    int64 cast would truncate a float and take a bool as 0 or 1.
    """
    if not isinstance(values, list) or operator.countOf(map(type, values), int) != len(values):
        raise SchemaError(f"{what} must be a list of integers")
    return np.array(values, dtype=np.int64)


class Grower:
    """A training matrix sorted once, for growing any number of trees on it.

    ``values[k]`` is the live (non-constant) column ``features[k]`` of
    ``X`` and ``order[k]`` its rows by ascending value, NaN last, ties by
    row.  A node is ``(rows, order, slots)``: its rows ascending, and the
    sorted rows of the live columns ``slots`` that can still split it.
    """

    def __init__(self, X: np.ndarray):
        self.X = np.asarray(X, dtype=np.float64)
        # NaN never equals itself, so a column holding one stays live
        self.features = np.flatnonzero(~(self.X == self.X[:1]).all(axis=0))
        self.values = np.ascontiguousarray(self.X[:, self.features].T)
        self.order = np.argsort(self.values, axis=1, kind="stable")
        self.has_nan = bool(np.isnan(self.values).any())

    def root(self) -> tuple:
        """The node holding every row."""
        return np.arange(len(self.X)), self.order, np.arange(len(self.features))

    def best_split(self, y: np.ndarray, node: tuple):
        """(gain, feature, threshold, node) for one node, or None if unsplittable.

        Gain is the SSE reduction.  Ties resolve to the lowest
        (sorted-position, feature) pair, which is deterministic.  The
        threshold sends exactly the rows left of the chosen boundary left.
        The node comes back without the columns that cannot split it.
        """
        rows, order, slots = node
        n = len(rows)
        if n < 2 or not len(slots):
            return None
        # the node's values, column by column in sorted order
        xs = self.values.ravel()[order + (slots * len(self.X))[:, None]]
        valid = xs[:, 1:] != xs[:, :-1]
        if self.has_nan:  # NaN != NaN, but no boundary follows a NaN
            valid &= ~np.isnan(xs[:, :-1])
        live = valid.any(axis=1)
        if not live.all():
            order, slots, xs, valid = order[live], slots[live], xs[live], valid[live]
            if not len(slots):
                return None
        csum = np.cumsum(y[order], axis=1)
        total = csum[:, -1]
        k, i = np.divmod(np.flatnonzero(valid), n - 1)  # boundary after position i
        s_left = csum[k, i]
        n_left = (i + 1).astype(np.float64)
        score = s_left**2 / n_left + (total[k] - s_left) ** 2 / (n - n_left)
        best = int(np.argmax(score))
        tied = np.flatnonzero(score == score[best])
        if len(tied) > 1:  # lowest sorted position first, then lowest column
            best = tied[np.argmin(i[tied])]
        i, k = i[best], k[best]
        gain = float(score[best]) - float(total[k]) ** 2 / n
        if gain <= 1e-12:
            return None
        a, b = float(xs[k, i]), float(xs[k, i + 1])
        threshold = (a + b) / 2.0
        if not a <= threshold < b:  # rounded onto b, overflowed, or b is NaN
            threshold = a
        return gain, int(self.features[slots[k]]), threshold, (rows, order, slots)

    def children(self, node: tuple, l_rows: np.ndarray, r_rows: np.ndarray) -> tuple:
        """The nodes of a split into ``l_rows`` and ``r_rows``, columns still sorted."""
        _, order, slots = node
        goes_left = np.zeros(len(self.X), dtype=bool)
        goes_left[l_rows] = True
        goes_left = goes_left[order].ravel()
        shape = (len(slots), -1)
        return (
            (l_rows, np.compress(goes_left, order).reshape(shape), slots),
            (r_rows, np.compress(~goes_left, order).reshape(shape), slots),
        )


class RegressionTree:
    """A fitted tree; nodes stored as parallel arrays, JSON-serializable."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)

    @classmethod
    def fit(
        cls, grower: Grower, y: np.ndarray, max_leaves: int, fitted: np.ndarray
    ) -> "RegressionTree":
        """Grow a tree on the grower's matrix against targets ``y``.

        ``fitted`` receives each row's leaf value: what :meth:`predict`
        returns on the training matrix.
        """
        y = np.asarray(y, dtype=np.float64)
        if max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        feature = [-1]
        threshold = [0.0]
        left = [-1]
        right = [-1]
        value = [float(y.mean()) if len(y) else 0.0]
        fitted[:] = value[0]

        heap: list = []
        counter = 0

        def consider(node_id: int, node: tuple):
            nonlocal counter
            split = grower.best_split(y, node)
            if split is not None:
                gain, feat, thr, node = split
                heapq.heappush(heap, (-gain, counter, node_id, feat, thr, node))
                counter += 1

        consider(0, grower.root())
        n_leaves = 1
        while heap and n_leaves < max_leaves:
            _, _, node_id, feat, thr, node = heapq.heappop(heap)
            rows = node[0]
            mask = grower.X[rows, feat] <= thr
            l_rows, r_rows = rows[mask], rows[~mask]
            for child_rows in (l_rows, r_rows):
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(float(y[child_rows].mean()))
                fitted[child_rows] = value[-1]
            feature[node_id] = feat
            threshold[node_id] = thr
            left[node_id] = len(feature) - 2
            right[node_id] = len(feature) - 1
            n_leaves += 1
            if n_leaves < max_leaves:
                l_node, r_node = grower.children(node, l_rows, r_rows)
                consider(left[node_id], l_node)
                consider(right[node_id], r_node)
        return cls(feature, threshold, left, right, value)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            mask = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[mask]))
            stack.append((self.right[node], idx[~mask]))
        return out

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "RegressionTree":
        """Parse :meth:`to_dict` output of a tree over ``n_features`` columns.

        Raises SchemaError unless the node arrays are equally long, the
        split features and children are integers, and every inner node
        splits on one of the columns into two later nodes, which keeps
        :meth:`predict` in bounds and acyclic.
        """
        feature, left, right = (
            index_array(d[k], f"tree {k}") for k in ("feature", "left", "right")
        )
        tree = cls(feature, d["threshold"], left, right, d["value"])
        n = len(tree.feature)
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise SchemaError(f"tree node arrays must be nonempty and equally long, got {n} nodes")
        inner = np.flatnonzero(tree.feature >= 0)
        for child in (tree.left[inner], tree.right[inner]):
            if ((child <= inner) | (child >= n)).any():
                raise SchemaError(f"tree child indices must lie after their node and below {n}")
        if (tree.feature[inner] >= n_features).any():
            raise SchemaError(f"tree split features must lie below {n_features}")
        return tree


def boost(
    grower: Grower, y: np.ndarray, base: float, n_trees: int, shrinkage: float,
    max_leaves: int, link: Callable[[np.ndarray], np.ndarray],
) -> list[RegressionTree]:
    """Gradient boosting on the grower's matrix, starting every row at ``base``.

    Each tree fits the residual ``y - link(z)`` and ``z`` then moves by
    ``shrinkage`` times the tree's fitted values.  The identity link is
    squared loss; the sigmoid link is logistic loss.
    """
    z = np.full(len(y), base)
    step = np.empty(len(y))
    trees = []
    for _ in range(n_trees):
        trees.append(RegressionTree.fit(grower, y - link(z), max_leaves, step))
        z += shrinkage * step
    return trees


def score(trees: list[RegressionTree], X: np.ndarray, base: float, shrinkage: float) -> np.ndarray:
    """``base`` plus ``shrinkage`` times each tree's prediction, in tree order."""
    z = np.full(len(X), base)
    for tree in trees:
        z += shrinkage * tree.predict(X)
    return z
