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
    heuristic_rank,
    rank_tests,
    train_ranker,
)
from tcpci.synth import SynthConfig, generate_synthetic_history
from tcpci.trees import NODE_ARRAYS, Grower, RegressionTree, boost, gain_bound
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


def _sigmoid(z):
    return 0.5 + 0.5 * np.tanh(z / 2)


@settings(deadline=None)
@given(
    st.one_of(st.integers(1, 3), st.integers(4, 60)),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(1, 64),
    st.sampled_from([0.0, 1.0, -3e3, 1e8, 1e12]),
    st.sampled_from([1.0, 1e-3, 1e-9]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_lazy_growth_grows_the_eager_trees(n, kinds, max_leaves, offset, spread, logistic, seed):
    # ties, NaN, constant columns and tiny matrices; targets far from zero
    # with a small spread, where the SSE cancels; both links of boost
    rng = np.random.default_rng(seed)
    X = _mixed_columns(rng, n, kinds)
    labels = rng.integers(0, 2, n).astype(float) if seed % 2 else rng.normal(size=n)
    y = offset + spread * labels
    base = float(y.mean()) if seed % 3 else 0.0
    link = _sigmoid if logistic else (lambda z: z)
    best_split = Grower.best_split

    def spy(self, y, node):
        yn = y[node[0]]
        assert yn.min() != yn.max(), "a pure node was searched"
        split = best_split(self, y, node)
        if split is not None:
            assert split[0] <= gain_bound(yn, float(yn.sum()))
        return split

    with mock.patch.object(Grower, "best_split", spy):
        lazy = boost(Grower(X), y, base, 3, 0.5, max_leaves, link)
    z = np.full(n, base)
    for tree in lazy:
        eager = eager_tree(X, y - link(z), max_leaves)
        assert nodes_of(tree) == nodes_of(eager)
        z += 0.5 * eager.predict(X)


def test_grower_drops_constant_columns():
    X = np.array([[1.0, 0.0, np.nan, 4.0], [1.0, -0.0, np.nan, 4.0], [1.0, 0.0, 2.0, 4.0]])
    assert Grower(X).features.tolist() == [2]


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
