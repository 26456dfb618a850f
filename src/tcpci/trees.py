"""Least-squares regression trees grown best-first, boosting over them, and
a flat node table that scores a whole ensemble.

The tree is the weak learner of both the ranking model and the commit
classifier, and :func:`boost` is the fit loop of both: Friedman's gradient
boosting (Annals of Statistics, 2001), whose loss a link function picks.
Growth is best-first: the open leaves sit in one priority queue keyed by
sum-of-squared-error reduction, and the leaf with the largest reduction is
split next until ``max_leaves`` is reached (Shi & Friedman's best-first
trees).  The queue is evaluated lazily, as in Minoux's accelerated greedy
algorithm (1978): a new leaf enters under an upper bound on any gain it
can have, its own SSE plus a rounding margin, and its split is searched
only when that bound reaches the top of the queue.  The exact gain then
goes back into the queue, and only an exact entry is split.  A leaf whose
targets are all equal, or whose bound is not above the gain threshold,
is never searched, and a leaf still queued under its bound when the
budget runs out never is either.  The trees are those an eager search of
every leaf grows, bit for bit.

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

Scoring stores every tree of an ensemble in one :class:`Forest` node table
and walks all (tree, row) pairs together, one numpy step per depth level
(:func:`walk`), as QuickScorer lays an ensemble out (Lucchese et al., SIGIR
2015).  :meth:`RegressionTree.predict` is the same walk over one tree.

This module alone knows how the ranker's model file holds its trees
(:func:`pack_nodes`, :func:`unpack_nodes`): each node array, every tree's
concatenated, as one base64 string of packed little-endian numbers, the
way glTF 2.0 carries binary buffers inside JSON.  :class:`Forest` checks the
node arrays, whether they were read or trained, and hands its trees out as
views into them.  The ranker checks only its own fields.
"""

from __future__ import annotations

import base64
import functools
import heapq
import math
import operator
from collections.abc import Callable
from itertools import count

import numpy as np

from .errors import SchemaError

#: The node arrays of a tree, in the order :class:`RegressionTree` takes them.
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")

#: The model-file format :func:`pack_nodes` writes, the only one
#: :func:`unpack_nodes` reads.
FORMAT_VERSION = 2

#: How a model file packs each node array: little-endian int32 split
#: columns and children, float64 thresholds and values.
PACKED_DTYPES = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4",
                 "value": "<f8"}

#: The most (tree, row) pairs one walk holds: :meth:`Forest.predict` walks
#: the rows in chunks of this many pairs, which bounds its temporaries to
#: about 1 MB.  Larger chunks were no faster on a 750-tree model.
CHUNK_PAIRS = 1 << 14


def index_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array.

    Raises SchemaError unless ``values`` is a list of JSON integers: an
    int64 cast would truncate a float and take a bool as 0 or 1.
    """
    if not isinstance(values, list) or operator.countOf(map(type, values), int) != len(values):
        raise SchemaError(f"{what} must be a list of integers")
    return np.array(values, dtype=np.int64)


#: A split must reduce the SSE by more than this.
MIN_GAIN = 1e-12


def gain_bound(yn: np.ndarray, total: float) -> float:
    """An upper bound on the gain :meth:`Grower.best_split` computes for a
    node whose targets ``yn``, two or more, sum to ``total`` (``yn.sum()``).

    In exact arithmetic no split gains more than the node's SSE,
    ``Q - S**2/n`` with ``Q = sum(y**2)`` and ``S = sum(y)``: a split into
    ``a`` rows summing to ``L`` and ``b`` rows summing to ``R`` gains
    ``(b*L - a*R)**2 / (a*b*n)``, the SSE less the children's.  The margin
    covers rounding, with ``A = sum(|y|) <= sqrt(n*Q)``, ``u = 2**-53`` and
    ``g = n*u / (1 - n*u)`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3-4):

    * best_split's prefix sums come from a sequential ``cumsum``, so ``L``
      and the column total are each off by at most ``g*A``, and ``R``, their
      difference, by at most ``3*g*A``.  That moves ``b*L - a*R`` by at most
      ``3*n*g*A``; as ``a*b*n >= n*n/2``, the square root of the gain moves
      by at most ``3*sqrt(2)*g*A < 5*g*A``;
    * its other roundings, a few on terms no larger than about ``Q``,
      multiply the gain by at most ``1 + 2*g`` and add at most ``5*g*Q``;
    * the ``Q`` and ``S`` computed here are off by at most ``g*Q`` and
      ``g*A``, so the computed SSE falls short of the exact one by less than
      ``7*g*Q``.

    The constants below are rounded up to cover this bound's own roundings.
    """
    n = len(yn)
    g = n * 2.0**-53 / (1 - n * 2.0**-53)
    q = float(yn @ yn) * (1 + 2 * g)  # at least Q
    sse = max(q - total * total / n, 0.0) + 8 * g * q
    return (1 + 8 * g) * (math.sqrt(sse) + 5 * g * math.sqrt(n * q)) ** 2 + 8 * g * q


class Grower:
    """A training matrix sorted once, for growing any number of trees on it.

    ``values[k]`` is the live (non-constant) column ``features[k]`` of
    ``X`` and ``order[k]`` its rows by ascending value, NaN last, ties by
    row.  A node is ``(rows, order, slots)``: its rows ascending, and the
    sorted rows of the live columns ``slots`` that can still split it.
    """

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        self.n_rows = len(X)
        # NaN never equals itself, so a column holding one stays live
        self.features = np.flatnonzero(~(X == X[:1]).all(axis=0))
        self.values = np.ascontiguousarray(X[:, self.features].T)
        self.order = np.argsort(self.values, axis=1, kind="stable")
        self.has_nan = bool(np.isnan(self.values).any())
        # ``values`` read flat, where each live column starts in it, and the
        # row counts left of each sorted boundary
        self.flat = self.values.ravel()
        self.offsets = np.arange(len(self.features))[:, None] * self.n_rows
        self.counts = np.arange(1.0, self.n_rows)

    def root(self) -> tuple:
        """The node holding every row."""
        return np.arange(self.n_rows), self.order, np.arange(len(self.features))

    def best_split(self, y: np.ndarray, node: tuple):
        """(gain, slot, threshold, node) for one node, or None if no split
        gains more than :data:`MIN_GAIN`.

        Gain is the SSE reduction, and the split is on live column ``slot``.
        Ties resolve to the lowest (sorted-position, column) pair, which is
        deterministic.  The threshold sends exactly the rows left of the
        chosen boundary left.  The node comes back without the columns that
        cannot split it.
        """
        rows, order, slots = node
        n = len(rows)
        if n < 2 or not len(slots):
            return None
        # the node's values, column by column in sorted order
        xs = self.flat[order + self.offsets[slots]]
        valid = xs[:, 1:] != xs[:, :-1]
        if self.has_nan:  # NaN != NaN, but no boundary follows a NaN
            valid &= ~np.isnan(xs[:, :-1])
        live = valid.any(axis=1)
        if not live.all():
            order, slots, xs, valid = order[live], slots[live], xs[live], valid[live]
            if not len(slots):
                return None
        csum = y[order].cumsum(axis=1)
        total = csum[:, -1]
        # boundary after position i of column k, listed by (i, k): the first
        # best score is the tie winner
        i, k = np.divmod(valid.T.ravel().nonzero()[0], len(slots))
        s_left = csum[k, i]
        n_left = self.counts[i]
        score = s_left**2 / n_left + (total[k] - s_left) ** 2 / (n - n_left)
        best = int(score.argmax())
        i, k = i[best], k[best]
        gain = float(score[best]) - float(total[k]) ** 2 / n
        if gain <= MIN_GAIN:
            return None
        a, b = float(xs[k, i]), float(xs[k, i + 1])
        threshold = (a + b) / 2.0
        if not a <= threshold < b:  # rounded onto b, overflowed, or b is NaN
            threshold = a
        return gain, int(slots[k]), threshold, (rows, order, slots)

    def children(self, node: tuple, l_rows: np.ndarray, r_rows: np.ndarray) -> tuple:
        """The nodes of a split into ``l_rows`` and ``r_rows``, columns still sorted."""
        _, order, slots = node
        goes_left = np.zeros(self.n_rows, dtype=bool)
        goes_left[l_rows] = True
        goes_left = goes_left[order].ravel()
        shape = (len(slots), -1)
        return (
            (l_rows, order.compress(goes_left).reshape(shape), slots),
            (r_rows, order.compress(~goes_left).reshape(shape), slots),
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
        feature, threshold, left, right, value = [], [], [], [], []
        # Entries are (-key, exact, sequence, node id, ...).  A searched leaf
        # has its gain as key, then its split.  A leaf not yet searched has
        # its gain bound as key, then ``source, side``.  Its node is
        # ``source[side]``, and the two leaves of a split share a ``source``
        # that holds the split itself, ``[node, l_rows, r_rows]``, until the
        # first of them is searched and it becomes their two nodes.  At
        # equal keys a bound pops before a gain, and otherwise the leaf
        # queued first.
        heap: list = []
        sequence = count()

        def add_leaf(rows, yn: np.ndarray, source: list | None, side: int):
            """Append a leaf holding ``rows``; queue it if ``source`` is given
            and a split of it could gain more than :data:`MIN_GAIN`."""
            n = len(yn)
            total = float(yn.sum())
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(total / n if n else 0.0)  # the bits of yn.mean()
            fitted[rows] = value[-1]
            if source is not None and n > 1 and yn.min() != yn.max():
                bound = gain_bound(yn, total)
                if bound > MIN_GAIN:
                    entry = (-bound, False, next(sequence), len(value) - 1, source, side)
                    heapq.heappush(heap, entry)

        add_leaf(slice(None), y, [grower.root()], 0)
        n_leaves = 1
        while heap and n_leaves < max_leaves:
            _, exact, seq, node_id, *entry = heapq.heappop(heap)
            if not exact:
                source, side = entry
                if len(source) == 3:
                    source[:] = grower.children(*source)
                node, source[side] = source[side], None
                split = grower.best_split(y, node)
                if split is not None:
                    heapq.heappush(heap, (-split[0], True, seq, node_id, *split[1:]))
                continue
            slot, thr, node = entry
            rows = node[0]
            mask = grower.values[slot][rows] <= thr
            l_rows, r_rows = rows[mask], rows[~mask]
            feature[node_id] = int(grower.features[slot])
            threshold[node_id] = thr
            left[node_id], right[node_id] = len(value), len(value) + 1
            n_leaves += 1
            source = [node, l_rows, r_rows] if n_leaves < max_leaves else None
            add_leaf(l_rows, y[l_rows], source, 0)
            add_leaf(r_rows, y[r_rows], source, 1)
        return cls(feature, threshold, left, right, value)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The value of the leaf each row of ``X`` reaches."""
        X = split_matrix(X, int(self.feature.max(initial=-1)) + 1)
        roots = np.zeros(1, dtype=np.int64)
        return self.value[walk(X, self.feature, self.threshold, self.left, self.right, roots)[0]]

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())


def node_arrays(trees: list[RegressionTree]) -> tuple:
    """The node counts of ``trees``, then their node arrays, each concatenated:
    the last arguments of :class:`Forest`."""
    typed = RegressionTree([], [], [], [], [])  # gives the arrays their dtypes when empty
    arrays = [np.concatenate([getattr(t, k) for t in (typed, *trees)]) for k in NODE_ARRAYS]
    return [len(t.feature) for t in trees], *arrays


def pack_nodes(sizes, feature, threshold, left, right, value) -> dict:
    """The fields of a model file that hold trees of ``sizes`` nodes with
    these node arrays, every tree's concatenated (:func:`node_arrays`).

    They are the format version and ``trees``: ``sizes`` as a list, and each
    node array packed as :data:`PACKED_DTYPES` says, base64-encoded.
    """
    packed = {
        name: base64.b64encode(np.asarray(a, dtype=PACKED_DTYPES[name]).tobytes()).decode()
        for name, a in zip(NODE_ARRAYS, (feature, threshold, left, right, value))
    }
    return {"version": FORMAT_VERSION, "trees": {"sizes": [int(n) for n in sizes], **packed}}


def unpack_nodes(d) -> tuple:
    """The node counts and node arrays of a model file's :func:`pack_nodes`
    fields: the last arguments of :class:`Forest`.

    Raises SchemaError unless ``d`` is a JSON object of format
    :data:`FORMAT_VERSION` whose ``trees`` object has a list of integers as
    ``sizes`` and base64 strings of ``sum(sizes)`` packed numbers as node
    arrays; :class:`Forest` checks the rest.
    """
    if not isinstance(d, dict):
        raise SchemaError("a model file must be a JSON object")
    version = d.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise SchemaError(
            f"model file version {version!r} cannot be read; this release reads only "
            f"version {FORMAT_VERSION}: retrain the model"
        )
    trees = d["trees"]
    if not isinstance(trees, dict):
        raise SchemaError("model trees must be a JSON object")
    sizes = index_array(trees["sizes"], "tree sizes")
    # summed as Python integers: an int64 sum could wrap round to the arrays' length
    n, arrays = sum(trees["sizes"]), []
    for name in NODE_ARRAYS:
        text, dtype = trees[name], np.dtype(PACKED_DTYPES[name])
        if type(text) is not str:
            raise SchemaError(f"node array {name} must be a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:
            raise SchemaError(f"node array {name} is not valid base64: {exc}") from exc
        if len(raw) % dtype.itemsize:
            raise SchemaError(
                f"node array {name} holds {len(raw)} bytes, not a whole number of "
                f"{dtype.itemsize}-byte items"
            )
        if len(raw) // dtype.itemsize != n:
            raise SchemaError(
                f"node array {name} holds {len(raw) // dtype.itemsize} nodes, "
                f"sizes add up to {n}"
            )
        native = np.int64 if dtype.kind == "i" else np.float64
        arrays.append(np.frombuffer(raw, dtype).astype(native))
    return sizes, *arrays


def split_matrix(X, width: int) -> np.ndarray:
    """``X`` as a C-ordered float64 matrix of at least ``width`` columns.

    :func:`walk` reads ``X`` flat, so a narrower matrix would read a split
    column from the next row: it raises IndexError instead.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < width:
        raise IndexError(f"trees split on column {width - 1}, the matrix has shape {X.shape}")
    return X


def walk(X, feature, threshold, left, right, roots) -> np.ndarray:
    """The node where each tree's walk ends for each row of ``X``, shape
    ``(len(roots), len(X))``.

    The trees are node arrays as :class:`RegressionTree` holds them, with
    the roots at ``roots``; ``X`` comes from :func:`split_matrix`.  All
    (tree, row) pairs move one level per step, a row going left where its
    value is ``<= threshold`` (so NaN goes right), and a pair leaves the
    walk at the first leaf (``feature < 0``) it reaches.
    """
    n, d = X.shape
    flat = X.ravel()
    end = np.empty(len(roots) * n, dtype=np.int64)
    pair = np.arange(len(end))
    node = np.repeat(roots, n)
    at = np.tile(np.arange(n) * d, len(roots))  # where each pair's row starts in ``flat``
    while len(node):
        col = feature[node]
        inner = col >= 0
        if not inner.all():
            leaf = ~inner
            end[pair[leaf]] = node[leaf]
            pair, node, at, col = pair[inner], node[inner], at[inner], col[inner]
        node = np.where(flat[at + col] <= threshold[node], left[node], right[node])
    return end.reshape(len(roots), n)


class Forest:
    """A bagged ensemble of boosted trees in one node table.

    Tree ``k`` is tree ``k % trees_per_bag`` of bag ``k // trees_per_bag``,
    and its root is row ``roots[k]`` of the table.  A node holds the matrix
    column it splits on (its bag's column map applied), its threshold, its
    children as table rows (a leaf names itself) and its value; ``base``
    holds each bag's starting score and ``columns`` each bag's column map.
    The values are kept as the trees hold them and multiplied by
    ``shrinkage`` once looked up, the product the trees' own loop forms, so
    the table shares them with ``trees``.
    """

    def __init__(
        self, columns, base, shrinkage: float, sizes, feature, threshold, left, right, value
    ):
        """The table of trees of ``sizes`` nodes, listed bag by bag.

        ``columns[b]`` maps bag ``b``'s column numbers to matrix columns.
        The node arrays are the trees' own (:data:`NODE_ARRAYS`),
        concatenated, as :func:`node_arrays` and :func:`unpack_nodes` give
        them; ``nodes`` keeps these arguments for :func:`pack_nodes`.
        Raises SchemaError unless every bag holds as many trees, the arrays
        are equally long, every tree is nonempty, and every inner node splits
        on one of its bag's columns into two later nodes of the same tree,
        which keeps :func:`walk` in bounds and acyclic.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        self.base = np.asarray(base, dtype=np.float64)
        self.trees_per_bag = len(sizes) // len(self.base)
        if self.trees_per_bag * len(self.base) != len(sizes):
            raise SchemaError("every bag must hold the same number of trees")
        arrays = (feature, threshold, left, right, value)
        self.nodes = (sizes, *arrays)
        n = int(sizes.sum())
        if (sizes < 1).any() or any(a.shape != (n,) for a in arrays):
            raise SchemaError("tree node arrays must be nonempty and equally long")
        self.roots = np.cumsum(sizes) - sizes
        inner = np.flatnonzero(feature >= 0)
        tree = np.searchsorted(self.roots, inner, side="right") - 1
        offset = self.roots[tree]
        position = inner - offset
        for child in (left[inner], right[inner]):
            if ((child <= position) | (child >= sizes[tree])).any():
                raise SchemaError(
                    "tree child indices must lie after their node and inside its tree"
                )
        widths = np.array([len(c) for c in columns])
        bag = tree // self.trees_per_bag
        if (feature[inner] >= widths[bag]).any():
            raise SchemaError("tree split features must lie below the tree's column count")
        # where the bag of each inner node starts in the concatenated ``columns``
        first = (np.cumsum(widths) - widths)[bag]
        # a column is only added to a row offset, never used as an index, so
        # int32 halves the array at no cost to the walk
        self.feature = np.full(n, -1, dtype=np.int32)
        self.feature[inner] = np.concatenate(columns)[first + feature[inner]]
        self.left, self.right = np.arange(n), np.arange(n)
        self.left[inner] = left[inner] + offset
        self.right[inner] = right[inner] + offset
        self.threshold, self.value, self.shrinkage = threshold, value, shrinkage
        self.width = int(self.feature.max(initial=-1)) + 1
        self.columns = columns

    @functools.cached_property
    def trees(self) -> list[RegressionTree]:
        """Each tree, as views into the node arrays; made on first use, as
        scoring reads only the table."""
        sizes, *arrays = self.nodes
        return [
            RegressionTree(*(a[i:j] for a in arrays))
            for i, j in zip(self.roots.tolist(), (self.roots + sizes).tolist())
        ]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each row's score: the mean over bags of ``base`` plus ``shrinkage``
        times every tree's leaf value.

        The sums run in the order of a loop over trees, so they give the
        same bits: each bag adds its trees in order to ``base``, and the bags
        are added in order to zero.  ``sum(axis=...)`` would add pairwise.
        """
        X = split_matrix(X, self.width)
        n_bags = len(self.base)
        scores = np.empty(len(X))
        step = max(1, CHUNK_PAIRS // max(1, len(self.roots)))
        for start in range(0, len(X), step):
            rows = X[start : start + step]
            end = walk(rows, self.feature, self.threshold, self.left, self.right, self.roots)
            value = self.shrinkage * self.value[end]
            value = value.reshape(n_bags, self.trees_per_bag, len(rows))
            acc = np.zeros((n_bags + 1, len(rows)))
            acc[1:] = self.base[:, None]
            for t in range(self.trees_per_bag):
                acc[1:] += value[:, t]
            scores[start : start + step] = np.add.accumulate(acc, axis=0)[-1]
        return scores / n_bags


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
