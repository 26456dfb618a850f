import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from tcpci.trees import Grower, RegressionTree
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


def test_tree_fits_simple_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    fitted = np.empty(4)
    tree = RegressionTree.fit(Grower(X), y, 4, fitted)
    assert np.allclose(tree.predict(X), y)
    assert np.array_equal(fitted, y)


def test_tree_json_round_trip():
    X, y = toy_data(d=5)
    tree = RegressionTree.fit(Grower(X[:, :5]), y, 8, np.empty(len(y)))
    again = RegressionTree.from_dict(tree.to_dict())
    assert np.allclose(tree.predict(X[:, :5]), again.predict(X[:, :5]))


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
        assert tree.to_dict() == fresh.to_dict()
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
    assert np.allclose(model.predict(probe), again.predict(probe))


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


def _model_digest(X, y, hp, seed=0):
    return hashlib.sha256(train_ranker(X, y, hp, seed=seed).to_json().encode()).hexdigest()


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


def test_model_json_golden():
    # Any change to these digests changes the trained trees: a faster
    # trainer must keep them; a deliberate change to training updates them.
    history, sources, _ = generate_synthetic_history(SynthConfig(), seed=7)
    history, _ = remove_frequent_failers(history)
    X, y = _last_training_set(history, sources)
    assert _model_digest(X, y, Hyperparams(n_bags=30, trees_per_bag=5, max_leaves=64)) == (
        "c30db53764bf836567cca39dd93c8cc244af8096b74b38e26bfc9633d4a47e4c"
    )

    history, sources, _ = generate_synthetic_history(DRIFT_CFG, seed=1)
    X, y = _last_training_set(history, sources)
    assert _model_digest(X, y, DRIFT_HP) == (
        "1259991699aaaeb0ba2fb0c898d833ae1a2de64d2af095c743d67a6beba0c51d"
    )

    X, y = toy_mixed()
    hp = Hyperparams(n_bags=8, trees_per_bag=4, max_leaves=12, feature_rate=0.7)
    assert _model_digest(X, y, hp, seed=3) == (
        "a54b4673b2d54678066f1e73c3de3ffcd045f31e339a43185d809998e87c03e9"
    )
