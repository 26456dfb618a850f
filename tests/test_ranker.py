import hashlib
import heapq
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpci.catalog import CATALOG
from tcpci.errors import CatalogMismatchError, NoFailedBuildsError, UnknownFeatureError
from tcpci.evaluation import remove_frequent_failers
from tcpci.features import FeatureExtractor
from tcpci.matrix import FeatureMatrix, stack_matrices
from tcpci.ranker import (
    Hyperparams,
    RankModel,
    grow_bags,
    heuristic_rank,
    rank_tests,
    train_ranker,
)
from tcpci.synth import SynthConfig, generate_synthetic_history
from tcpci import trees
from tcpci.trees import NODE_ARRAYS, Forest, Grower, RegressionTree, boost, gain_bound, node_arrays
from test_acceptance import DRIFT_CFG, DRIFT_HP

HP = Hyperparams(n_bags=10, trees_per_bag=3, max_leaves=16)


def toy_data(n=200, seed=0, d=150):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = (X[:, 0] > 0.5).astype(float)
    return X, y


def matrix_of(values, tests=None, build=1):
    n = len(values)
    tests = tests or [f"t{i:02d}.java" for i in range(n)]
    X = np.zeros((n, 150))
    X[:, : np.shape(values)[1] if np.ndim(values) > 1 else 1] = np.reshape(values, (n, -1))
    return FeatureMatrix(build=build, tests=tuple(sorted(tests)), values=X)


def nodes_of(tree):
    """A tree's node arrays as lists."""
    return [getattr(tree, a).tolist() for a in NODE_ARRAYS]


def test_tree_fits_simple_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    fitted = np.empty(4)
    tree = RegressionTree.fit(Grower(X), y, 4, fitted)
    assert np.allclose(tree.predict(X), y)
    assert np.array_equal(fitted, y)


def _mixed_columns(rng, n, kinds):
    cols = {
        0: lambda: np.full(n, rng.choice([1.5, 0.0, -0.0])),
        1: lambda: rng.integers(0, 3, n).astype(float),
        2: lambda: np.round(rng.normal(size=n), 1),
        3: lambda: np.where(rng.random(n) < 0.3, np.nan, rng.integers(0, 4, n)),
        4: lambda: np.full(n, np.nan),
        5: lambda: rng.random(n),
    }
    return np.column_stack([cols[k]() for k in kinds]) if kinds else np.empty((n, 0))


@given(
    st.integers(0, 60),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_grower_fitted_values_are_predictions(n, kinds, max_leaves, seed):
    # constant, tied, low-cardinality, NaN and all-NaN columns, any budget
    rng = np.random.default_rng(seed)
    X = _mixed_columns(rng, n, kinds)
    grower = Grower(X)
    for y in (rng.integers(0, 2, n).astype(float), rng.normal(size=n)):
        fitted = np.full(n, np.inf)
        tree = RegressionTree.fit(grower, y, max_leaves, fitted)
        assert fitted.tobytes() == tree.predict(X).tobytes()
        # a grower reused across targets grows what a fresh one grows
        fresh = RegressionTree.fit(Grower(X), y, max_leaves, np.empty(n))
        assert nodes_of(tree) == nodes_of(fresh)
        assert tree.n_leaves <= max_leaves


def test_split_threshold_gives_the_scored_partition():
    # next to a NaN the midpoint is NaN, and between adjacent doubles it can
    # round up to the right value: the threshold must still split as scored
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0])
    fitted = np.empty(4)
    tree = RegressionTree.fit(Grower(X), y, 2, fitted)
    assert (tree.feature[0], tree.threshold[0]) == (0, 1.0)
    assert fitted.tolist() == tree.predict(X).tolist() == y.tolist()
    # no boundary lies between two NaNs
    X = np.array([[0.0], [0.0], [np.nan], [np.nan]])
    tree = RegressionTree.fit(Grower(X), y, 2, fitted)
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.0)
    assert fitted.tolist() == tree.predict(X).tolist() == [0.0, 0.0, 0.5, 0.5]

    a = 13.332641693339541
    b = np.nextafter(a, np.inf)
    assert (a + b) / 2 == b
    X = np.array([[a], [b], [b + 1.0]])
    y = np.array([0.0, 1.0, 1.0])
    tree = RegressionTree.fit(Grower(X), y, 2, fitted[:3])
    assert tree.threshold[0] == a
    assert fitted[:3].tolist() == tree.predict(X).tolist() == y.tolist()


def test_pure_node_is_a_leaf():
    # equal targets far from zero give a rounding-level "gain" above the
    # threshold; no split of them may be made
    X = np.arange(7.0)[:, None]
    for c in (0.7, 1e8 + 0.1, 3e12 + 0.3):
        assert RegressionTree.fit(Grower(X), np.full(7, c), 8, np.empty(7)).n_leaves == 1


def eager_tree(X, y, max_leaves):
    """Best-first growth that searches every new leaf as soon as it exists,
    except a pure one: the reference :meth:`RegressionTree.fit` must match."""
    grower = Grower(X)
    nodes = [[-1, 0.0, -1, -1, float(y.mean()) if len(y) else 0.0]]
    heap, sequence = [], itertools.count()

    def consider(node_id, node):
        if len(set(y[node[0]].tolist())) > 1:
            split = grower.best_split(y, node)
            if split is not None:
                heapq.heappush(heap, (-split[0], next(sequence), node_id, split[1:]))

    consider(0, grower.root())
    while heap and len(nodes) < 2 * max_leaves - 1:  # a tree of k leaves has 2k - 1 nodes
        _, _, node_id, (slot, thr, node) = heapq.heappop(heap)
        col = int(grower.features[slot])
        rows = node[0]
        mask = X[rows, col] <= thr
        parts = rows[mask], rows[~mask]
        nodes[node_id][:4] = col, thr, len(nodes), len(nodes) + 1
        nodes += [[-1, 0.0, -1, -1, float(y[p].mean())] for p in parts]
        if len(nodes) < 2 * max_leaves - 1:
            for child_id, child in zip(nodes[node_id][2:4], grower.children(node, *parts)):
                consider(child_id, child)
    return RegressionTree(*zip(*nodes))


@settings(deadline=None)
@given(
    st.one_of(st.integers(1, 3), st.integers(4, 60)),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(1, 64),
    st.sampled_from([0.0, 1.0, -3e3, 1e8, 1e12]),
    st.sampled_from([1.0, 1e-3, 1e-9]),
    st.integers(0, 2**32 - 1),
)
def test_lazy_growth_grows_the_eager_trees(n, kinds, max_leaves, offset, spread, seed):
    # ties, NaN, constant columns and tiny matrices; targets far from zero
    # with a small spread, where the SSE cancels
    rng = np.random.default_rng(seed)
    X = _mixed_columns(rng, n, kinds)
    labels = rng.integers(0, 2, n).astype(float) if seed % 2 else rng.normal(size=n)
    y = offset + spread * labels
    base = float(y.mean()) if seed % 3 else 0.0
    best_split = Grower.best_split

    def spy(self, y, node):
        yn = y[node[0]]
        assert yn.min() != yn.max(), "a pure node was searched"
        split = best_split(self, y, node)
        if split is not None:
            assert split[0] <= gain_bound(yn, float(yn.sum()))
        return split

    with mock.patch.object(Grower, "best_split", spy):
        lazy = boost(Grower(X), y, base, 3, 0.5, max_leaves)
    z = np.full(n, base)
    for tree in lazy:
        eager = eager_tree(X, y - z, max_leaves)
        assert nodes_of(tree) == nodes_of(eager)
        z += 0.5 * eager.predict(X)


def test_grower_drops_constant_columns():
    X = np.array([[1.0, 0.0, np.nan, 4.0], [1.0, -0.0, np.nan, 4.0], [1.0, 0.0, 2.0, 4.0]])
    assert Grower(X).features.tolist() == [2]


def unique_codes(X):
    """Each column's dense ranks from ``np.unique``, one row per column."""
    return np.array(
        [np.unique(col, return_inverse=True, equal_nan=True)[1] for col in X.T], dtype=np.int64
    ).reshape(X.shape[1], len(X))


def signed_columns(rng, n, width):
    """Columns drawn from both zeros, both infinities, NaN and two numbers."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5])
    return rng.choice(pool, size=(n, width))


@given(
    st.integers(1, 60),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_rank_codes_match_np_unique(n, kinds, signed, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_mixed_columns(rng, n, kinds), signed_columns(rng, n, signed)])
    codes = trees.rank_codes(X)
    assert codes.dtype == np.uint8 and codes.shape == (X.shape[1], n)
    want = unique_codes(X)
    assert np.array_equal(codes, want)
    # the table keeps the columns with two or more codes
    columns, table = trees.rank_table(X)
    varies = np.flatnonzero(want.max(axis=1, initial=0) > 0)
    assert columns.tolist() == varies.tolist()
    assert np.array_equal(table, want[varies])
    # codes of a subset of the rows keep the values' order and equality
    rows = rng.integers(0, n, size=n)
    sub = unique_codes(X[rows])
    assert all(np.array_equal(np.unique(c[rows], return_inverse=True)[1], s)
               for c, s in zip(codes, sub))


def test_rank_codes_of_one_row_and_constant_matrices():
    one = np.array([[np.nan, -0.0, np.inf, 3.0]])
    assert trees.rank_codes(one).tolist() == [[0], [0], [0], [0]]
    assert trees.rank_table(one)[0].tolist() == []
    flat = np.column_stack([np.full(9, v) for v in (np.nan, 0.0, -np.inf, 7.0)])
    flat[::2, 1] = -0.0
    assert not trees.rank_codes(flat).any()
    columns, table = trees.rank_table(flat)
    assert columns.tolist() == [] and table.shape == (0, 9)
    assert Grower(flat).features.tolist() == []


def float_presort(X, rows, feats):
    """A bag's live columns and their stable float argsort, computed on a
    copy of the bag's matrix as the ranker once did."""
    Xb = X[np.ix_(rows, feats)]
    live = np.flatnonzero([len(np.unique(c, equal_nan=True)) > 1 for c in Xb.T])
    return live, np.argsort(Xb[:, live].T, axis=1, kind="stable")


def assert_presorted_as_floats(grower, X, rows, feats):
    live, order = float_presort(X, rows, feats)
    assert grower.features.tolist() == live.tolist()
    assert grower.columns.tolist() == feats[live].tolist()
    assert np.array_equal(grower.order, order)


@given(
    st.integers(1, 80),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(0, 3),
    st.floats(0.1, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_bag_grower_presorts_as_the_float_argsort(n, kinds, signed, rate, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_mixed_columns(rng, n, kinds), signed_columns(rng, n, signed)])
    d = X.shape[1]
    rows = rng.choice(n, size=max(1, int(rate * n)), replace=True)
    feats = np.sort(rng.choice(d, size=rng.integers(0, d + 1), replace=False))
    grower = Grower(X, rows, feats, trees.rank_table(X))
    assert_presorted_as_floats(grower, X, rows, feats)
    # a grower of the bag's own matrix sorts the same and grows the same tree
    own = Grower(X[np.ix_(rows, feats)])
    assert own.features.tolist() == grower.features.tolist()
    assert np.array_equal(own.order, grower.order)
    y, fitted = rng.normal(size=len(rows)), np.empty(len(rows))
    assert nodes_of(RegressionTree.fit(grower, y, 8, fitted)) == nodes_of(
        RegressionTree.fit(own, y, 8, fitted)
    )


def test_codes_widen_past_65536_rows():
    for n, dtype in ((256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)):
        assert trees.rank_codes(np.zeros((n, 1))).dtype == dtype
    rng = np.random.default_rng(11)
    n = 70_000
    X = np.column_stack([
        np.where(rng.random(n) < 0.01, np.nan, rng.permutation(n) - 35_000.5),
        rng.integers(-3, 4, n) * np.where(rng.random(n) < 0.5, 0.0, 1.0),
    ])
    X[rng.random(n) < 0.01, 1] = -0.0
    codes = trees.rank_codes(X)
    assert codes.dtype == np.uint32 and codes.max() > 2**16
    assert np.array_equal(codes, unique_codes(X))
    rows = rng.choice(n, size=n, replace=True)
    feats = np.arange(2)
    assert_presorted_as_floats(Grower(X, rows, feats, trees.rank_table(X)), X, rows, feats)


def test_bags_grown_in_ranges_make_the_model():
    # a bag is the same whichever range of bags it is grown in
    X, y = toy_mixed(n=90)
    X = np.column_stack([X, np.random.default_rng(2).random((90, 143))])
    hp = Hyperparams(n_bags=7, trees_per_bag=2, max_leaves=6, feature_rate=0.5)
    table = trees.rank_table(X)
    bags = [bag for r in (range(0, 3), range(3, 4), range(4, 7))
            for bag in grow_bags(X, table, y, hp, 4, r)]
    columns, bases, grown = zip(*bags)
    model = train_ranker(X, y, hp, seed=4)
    assert [c.tolist() for c in columns] == [c.tolist() for c in model.forest.columns]
    assert list(bases) == model.forest.base.tolist()
    assert [nodes_of(t) for bag in grown for t in bag] == [nodes_of(t) for t in model.forest.trees]


def test_train_is_deterministic():
    X, y = toy_data()
    a = train_ranker(X, y, HP, seed=7)
    b = train_ranker(X, y, HP, seed=7)
    assert a.to_json() == b.to_json()
    c = train_ranker(X, y, HP, seed=8)
    assert c.to_json() != a.to_json()


def test_separable_toy_auc_one():
    X, y = toy_data()
    model = train_ranker(X, y, Hyperparams(n_bags=20, trees_per_bag=3, max_leaves=32), seed=0)
    scores = model.predict(X)
    pos = scores[y == 1]
    neg = scores[y == 0]
    # AUC 1.0: every positive scores above every negative
    assert pos.min() > neg.max()


def test_constant_labels_give_constant_model():
    X, _ = toy_data(n=50)
    model = train_ranker(X, np.ones(50), HP, seed=0)
    scores = model.predict(np.random.default_rng(1).random((10, 150)))
    assert np.allclose(scores, scores[0])
    assert model.feature_usage().sum() == 0


def test_empty_training_set_rejected():
    with pytest.raises(NoFailedBuildsError):
        train_ranker(np.zeros((0, 150)), np.zeros(0), HP)


def test_feature_usage_prefers_informative_feature():
    X, y = toy_data(seed=3)
    # stumps: a bag holding the informative feature always splits on it
    model = train_ranker(X, y, Hyperparams(n_bags=30, trees_per_bag=3, max_leaves=2), seed=3)
    usage = model.feature_usage()
    assert usage[0] > usage[1:].max()
    total_splits = sum(
        int((t.feature >= 0).sum()) for bag in model.bags for t in bag.trees
    )
    assert usage.sum() == total_splits


def test_constant_column_never_splits():
    X, y = toy_data()
    X[:, 10] = 3.14
    model = train_ranker(X, y, HP, seed=0)
    assert model.feature_usage()[10] == 0


def test_model_json_round_trip():
    X, y = toy_data(n=80)
    model = train_ranker(X, y, HP, seed=1)
    again = RankModel.from_json(model.to_json())
    probe = np.random.default_rng(0).random((20, 150))
    assert np.array_equal(model.predict(probe), again.predict(probe))
    assert again.to_json() == model.to_json()


def test_catalog_mismatch_rejected():
    X, y = toy_data(n=40)
    model = train_ranker(X, y, HP, seed=0)
    model.catalog_fingerprint = "deadbeef"
    with pytest.raises(CatalogMismatchError):
        model.predict(X)


def test_predict_tie_break_prefers_faster_then_lexicographic():
    X, y = toy_data(n=40)
    model = train_ranker(X, np.ones(40), HP, seed=0)  # constant scores
    values = np.zeros((3, 150))
    idx = CATALOG.index("TotalAvgExeTime")
    values[:, idx] = [5000.0, 2000.0, 2000.0]
    m = FeatureMatrix(build=1, tests=("a.java", "b.java", "c.java"), values=values)
    assert rank_tests(model, m) == ["b.java", "c.java", "a.java"]


def test_heuristic_rank_directions():
    values = np.zeros((4, 150))
    idx = CATALOG.index("TotalFailRate")
    values[:, idx] = [0.1, 0.9, 0.0, 0.1]
    m = FeatureMatrix(build=1, tests=("a.java", "b.java", "c.java", "d.java"), values=values)
    # a and d tie: test-id order in both directions
    desc = heuristic_rank(m, "F_FailRate_Total:desc")
    assert desc == ["b.java", "a.java", "d.java", "c.java"]
    asc = heuristic_rank(m, "F_FailRate_Total:asc")
    assert asc == ["c.java", "a.java", "d.java", "b.java"]
    with pytest.raises(UnknownFeatureError):
        heuristic_rank(m, "NoSuchFeature:desc")
    with pytest.raises(UnknownFeatureError):
        heuristic_rank(m, "TotalFailRate:sideways")


def _last_training_set(history, sources):
    """Rows of every failed build before the last one, as evaluate trains."""
    ex = FeatureExtractor(history, sources)
    last = history.failed_builds[-1].id
    return stack_matrices([ex.matrix(b.id) for b in history.failed_builds if b.id < last])


def toy_mixed(n=240, seed=5):
    """Constant, tied, low-cardinality, NaN-holding and continuous columns."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, 7))
    X[:, 0] = 2.5
    X[:, 1] = rng.integers(0, 3, n)
    X[:, 2] = np.round(rng.random(n), 1)
    X[:, 3] = np.where(rng.random(n) < 0.15, np.nan, rng.random(n))
    X[:, 4] = np.nan
    X[:, 5] = rng.random(n)
    X[:, 6] = -0.0
    X[: n // 2, 6] = 0.0
    y = ((X[:, 1] == 2) | (X[:, 5] > 0.8)).astype(float)
    return X, y


@pytest.fixture(scope="module")
def golden_models():
    """The three training sets of the model golden, with the models trained on them."""
    history, sources = generate_synthetic_history(SynthConfig(), seed=7)
    history, _ = remove_frequent_failers(history)
    hp = Hyperparams(n_bags=30, trees_per_bag=5, max_leaves=64)
    sets = [(*_last_training_set(history, sources), hp, 0)]
    history, sources = generate_synthetic_history(DRIFT_CFG, seed=1)
    sets.append((*_last_training_set(history, sources), DRIFT_HP, 0))
    hp = Hyperparams(n_bags=8, trees_per_bag=4, max_leaves=12, feature_rate=0.7)
    sets.append((*toy_mixed(), hp, 3))
    return [(X, train_ranker(X, y, hp, seed=seed)) for X, y, hp, seed in sets]


def test_model_json_golden(golden_models):
    # Any change to these digests changes the trained trees: a faster
    # trainer must keep them; a deliberate change to training updates them.
    digests = [hashlib.sha256(model.to_json().encode()).hexdigest() for _, model in golden_models]
    assert digests == [
        "49fc1194ec4ce3af1152d0dae764d440a0ad31355ee62eba85b50ea0cd467807",
        "f80f36654c6a644420e109a717bbbcfb6785071fd443d51697ed68a521a3af7f",
        "4f27a5ccce452c34abe0d7c8dd01c90f2ffb1e17bf8ab5dab083dde769d83a43",
    ]


def forest_digest(forests) -> str:
    """One sha256 over the node tables of ``forests``."""
    h = hashlib.sha256()
    for f in forests:
        arrays = (f.roots, f.feature, f.threshold, f.left, f.right, f.value, f.base,
                  np.concatenate(f.columns))
        for a in arrays:
            h.update(a.tobytes())
    return h.hexdigest()


def test_forest_arrays_golden(golden_models):
    # The node tables of the golden models, also as read back from their
    # files, which a new file format must keep bit for bit.
    trained = [m.forest for _, m in golden_models]
    read = [RankModel.from_json(m.to_json()).forest for _, m in golden_models]
    assert forest_digest(trained) == forest_digest(read) == (
        "275e287269358396f34b08ac532eba8536feab46104f7158b29e4d37e76a5027"
    )


def test_scores_golden(golden_models):
    # A faster scorer must give these scores bit for bit.
    X, model = golden_models[0]
    assert hashlib.sha256(model.predict(X).tobytes()).hexdigest() == (
        "7e4a9155769c1822f34ff0d0536a2ece9de1add5f0f1b993dd4a0869d1cab909"
    )


def _stack_walk(tree, X):
    """One tree's leaf values, by a stack walk over the row subsets of each node."""
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if tree.feature[node] < 0:
            out[idx] = tree.value[node]
            continue
        mask = X[idx, tree.feature[node]] <= tree.threshold[node]
        stack.append((tree.left[node], idx[mask]))
        stack.append((tree.right[node], idx[~mask]))
    return out


def oracle_scores(model, X):
    """Each bag's base plus shrinkage times each tree's leaf value, in tree
    order; then the bags added in order and divided by their number."""
    scores = np.zeros(len(X))
    for bag in model.bags:
        Xb = X[:, bag.feature_idx]
        z = np.full(len(X), bag.base)
        for tree in bag.trees:
            z += model.hyperparams.shrinkage * _stack_walk(tree, Xb)
        scores += z
    return scores / len(model.bags)


SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])


def probes(model, X, rng):
    """Rows of ``X``, rows of NaN, ±0.0 and ±inf, and rows at the split thresholds.

    A threshold row holds, in each split column, one of that column's
    thresholds or the double just below or above it.
    """
    rows = [X, np.repeat(SPECIALS[:, None], X.shape[1], axis=1)]
    mixed = X[rng.integers(0, len(X), 40)]
    hit = rng.random(mixed.shape) < 0.3
    mixed[hit] = rng.choice(SPECIALS, hit.sum())
    rows.append(mixed)
    at = X[rng.integers(0, len(X), 60)]
    for bag in model.bags:
        for tree in bag.trees:
            inner = tree.feature >= 0
            for col, thr in zip(bag.feature_idx[tree.feature[inner]], tree.threshold[inner]):
                pick = rng.random(len(at)) < 0.5
                at[pick, col] = np.nextafter(thr, thr + rng.choice([-1.0, 0.0, 1.0], pick.sum()))
    rows.append(at)
    return np.vstack(rows)


def assert_scores_match_oracle(model, X, rng):
    probe = probes(model, X, rng)
    expected = oracle_scores(model, probe).tobytes()
    assert model.predict(probe).tobytes() == expected
    assert RankModel.from_json(model.to_json()).predict(probe).tobytes() == expected


def test_scores_match_the_stack_walk(golden_models):
    rng = np.random.default_rng(11)
    for X, model in golden_models:
        assert_scores_match_oracle(model, X, rng)
        empty = np.empty((0, X.shape[1]))
        assert model.predict(empty).tobytes() == oracle_scores(model, empty).tobytes() == b""


@given(
    st.integers(1, 40),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
)
def test_small_ensembles_score_as_the_stack_walk(n, kinds, n_bags, n_trees, max_leaves, seed):
    rng = np.random.default_rng(seed)
    X = _mixed_columns(rng, n, kinds)
    y = rng.normal(size=n) if seed % 2 else rng.integers(0, 2, n).astype(float)
    hp = Hyperparams(n_bags=n_bags, trees_per_bag=n_trees, max_leaves=max_leaves,
                     shrinkage=float(rng.choice([0.1, 0.2, 0.7])), feature_rate=0.7)
    assert_scores_match_oracle(train_ranker(X, y, hp, seed=seed % 5), X, rng)


@pytest.mark.parametrize("chunk", [1, 3, 1000, 2**40])
def test_scores_do_not_depend_on_the_chunk_size(golden_models, monkeypatch, chunk):
    monkeypatch.setattr(trees, "CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(5)
    for X, model in golden_models:
        probe = probes(model, X, rng)
        assert model.predict(probe).tobytes() == oracle_scores(model, probe).tobytes()


def chain_tree(depth, feature, thresholds):
    """A tree of ``depth`` splits on ``feature``, each with a leaf on its
    left and the next split on its right, down to a last leaf."""
    n = 2 * depth + 1
    inner = np.arange(0, n - 1, 2)
    arrays = {"feature": np.full(n, -1), "threshold": np.zeros(n),
              "left": np.full(n, -1), "right": np.full(n, -1)}
    arrays["feature"][inner] = feature
    arrays["threshold"][inner] = thresholds
    arrays["left"][inner] = inner + 1
    arrays["right"][inner] = inner + 2
    return RegressionTree(**arrays, value=np.arange(n) / 8 - 2.0)


LEAF = RegressionTree([-1], [0.0], [-1], [-1], [0.75])
STUMP = RegressionTree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, -1.5, 2.25])


def hand_built_model(columns, bags) -> RankModel:
    """A model of the ``bags`` of trees on ``columns``, scored as one forest."""
    hp = Hyperparams(n_bags=len(bags), trees_per_bag=len(bags[0]), shrinkage=0.5)
    base = np.arange(len(bags)) * 0.25 + 0.125
    forest = Forest(columns, base, hp.shrinkage, *node_arrays([t for b in bags for t in b]))
    return RankModel(hp, 0, CATALOG.fingerprint(), forest)


@pytest.mark.parametrize("chunk", [1, 3, 1000, 2**40])
def test_deep_chains_and_single_leaves_score_as_the_stack_walk(monkeypatch, chunk):
    # most pairs end at once, at the single leaf or high in the chains, and
    # a few walk 40 levels down: finished pairs must hold their leaf while
    # the others still move, and the drop must keep each pair's end
    monkeypatch.setattr(trees, "CHUNK_PAIRS", chunk)
    depth = 40
    bags = [[LEAF, chain_tree(depth, 0, np.arange(depth) * 1.0), LEAF],
            [chain_tree(depth, 1, np.arange(depth) * 0.25 - 3), STUMP, LEAF]]
    model = hand_built_model([np.array([0, 2]), np.array([2, 1])], bags)
    rng = np.random.default_rng(3)
    X = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], (60, 3))
    deep = [[39.5, 7.0, 0.0], [np.inf, np.nan, 1.0], [np.nan, np.inf, np.nan], [40.0, 6.75, 0.5]]
    X = np.vstack([X, deep])
    probe = probes(model, X, rng)
    assert model.predict(probe).tobytes() == oracle_scores(model, probe).tobytes()
    for bag in model.bags:
        for tree in bag.trees:
            Xb = probe[:, bag.feature_idx]
            assert tree.predict(Xb).tobytes() == _stack_walk(tree, Xb).tobytes()
    # the deep rows reach the chains' last leaves
    chain = model.bags[0].trees[1]
    assert (chain.predict(np.array(deep)[:3, :1]) == chain.value[-1]).all()


def test_one_column_matrix_scores_as_the_stack_walk():
    # a leaf's column is -1: the walk reads the value before its row, which
    # for the first row of a one-column matrix is the last of the matrix
    model = hand_built_model([np.array([0])], [[LEAF, STUMP, LEAF, STUMP]])
    X = np.array([[0.5], [np.nan], [-np.inf], [0.75], [np.nextafter(0.5, 1)], [0.0]])
    assert model.predict(X).tobytes() == oracle_scores(model, X).tobytes()
    assert STUMP.predict(X).tobytes() == _stack_walk(STUMP, X).tobytes()
    assert LEAF.predict(X).tobytes() == np.full(len(X), 0.75).tobytes()


def test_narrow_matrix_raises(golden_models):
    # a matrix without the largest split column raises; it is never read
    # through into the next row, so extra columns and column order change nothing
    X, model = golden_models[2]
    width = 1 + max(
        int(bag.feature_idx[t.feature[t.feature >= 0]].max(initial=-1))
        for bag in model.bags for t in bag.trees
    )
    with pytest.raises(IndexError):
        model.predict(X[:, : width - 1])
    scores = model.predict(X).tobytes()
    wide = np.hstack([X, np.full((len(X), 3), np.nan)])
    assert model.predict(wide).tobytes() == scores
    assert model.predict(np.asfortranarray(X)).tobytes() == scores
    bag, tree = next((b, t) for b in model.bags for t in b.trees if t.feature[0] >= 0)
    with pytest.raises(IndexError):
        tree.predict(X[:, bag.feature_idx][:, : tree.feature[0]])
