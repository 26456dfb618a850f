import hashlib
import json

import numpy as np
import pytest

from tcpci.commit_classifier import (
    CommitClassifier,
    TfidfVectorizer,
    _sigmoid,
    cross_validate,
    is_defect_fix_keyword,
    preprocess_message,
    train_classifier,
)
from tcpci.errors import DegenerateCorpusError, SchemaError
from tcpci.ranker import RankModel
from tcpci.stemming import stem
from tcpci.trees import pack_nodes
from test_ranker import _stack_walk, golden_models  # noqa: F401 (a fixture)


def separable_corpus(n=500, seed=42):
    rng = np.random.default_rng(seed)
    fix_words = ["fix", "bug", "defect", "resolve", "crash", "npe"]
    other_words = ["add", "feature", "refactor", "docs", "update", "cleanup"]
    noise = ["module", "service", "api", "handler"]
    msgs, labels = [], []
    for i in range(n):
        is_fix = i % 2 == 0
        pool = fix_words if is_fix else other_words
        words = rng.choice(pool, size=4).tolist() + rng.choice(noise, size=2).tolist()
        msgs.append(" ".join(words))
        labels.append(is_fix)
    return msgs, labels


def test_preprocess_example():
    assert preprocess_message("Fixed NPE, see https://x.y/z") == ["fix", "npe", "<url>"]


def test_preprocess_idempotent_on_own_output():
    tokens = preprocess_message("Fixing the parser BUG with URLs http://a.b/c!!")
    assert preprocess_message(" ".join(t for t in tokens if t != "<url>")) == [
        t for t in tokens if t != "<url>"
    ]


def test_stemmer_known_forms():
    for word, expected in [
        ("fixed", "fix"),
        ("fixes", "fix"),
        ("bugs", "bug"),
        ("patched", "patch"),
        ("repairing", "repair"),
        ("running", "run"),
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("relational", "relat"),
    ]:
        assert stem(word) == expected


def test_keyword_fallback():
    assert is_defect_fix_keyword("Bugfix for issue 12")
    assert is_defect_fix_keyword("fix crash in parser")
    assert is_defect_fix_keyword("Patched the flaky timeout")
    assert not is_defect_fix_keyword("Add feature flags")
    assert not is_defect_fix_keyword("refactor tests")


def test_tfidf_duplicate_documents_identical():
    docs = [["a", "b"], ["a", "b"], ["c"]]
    v = TfidfVectorizer.fit(docs)
    X = v.transform(docs)
    assert (X[0] == X[1]).all()


def test_classifier_separable_cv_accuracy():
    msgs, labels = separable_corpus()
    acc = cross_validate(msgs, labels, k=5, seed=0)
    assert acc >= 0.95


def test_classifier_learns_training_labels():
    msgs, labels = separable_corpus(n=120, seed=1)
    clf = train_classifier(msgs, labels)
    assert clf.classify("fix crash in parser")
    preds = [clf.classify(m) for m in msgs[:40]]
    assert np.mean([p == l for p, l in zip(preds, labels[:40])]) >= 0.95


def test_empty_message_is_non_defect():
    msgs, labels = separable_corpus(n=60, seed=2)
    clf = train_classifier(msgs, labels)
    assert not clf.classify("")
    assert not clf.classify("the of and")  # all stop words


def test_single_class_corpus_rejected():
    with pytest.raises(DegenerateCorpusError):
        train_classifier(["fix a", "fix b"], [True, True])
    with pytest.raises(DegenerateCorpusError):
        cross_validate(["fix a", "fix b"], [True, True])


def test_model_json_round_trip():
    msgs, labels = separable_corpus(n=80, seed=3)
    clf = train_classifier(msgs, labels)
    again = CommitClassifier.from_json(clf.to_json())
    p1 = clf.predict_proba(msgs[:10])
    p2 = again.predict_proba(msgs[:10])
    assert np.array_equal(p1, p2)


def _classifier_file(**keys):
    """A one-word classifier file with one stump, with ``keys`` replaced."""
    stump = pack_nodes([3], [0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                       [0.0, -1.0, 1.0])
    return json.dumps({"vocabulary": ["fix"], "idf": [1.0], "base_score": 0.0,
                       "shrinkage": 0.2, "threshold": 0.5, **stump, **keys})


def test_hand_built_classifier_loads():
    # the malformed files below each change one thing of this one
    clf = CommitClassifier.from_json(_classifier_file())
    assert clf.classify("fix it") and not clf.classify("add docs")


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        _classifier_file(version=1),
        _classifier_file(version=True),
        "{}",
        _classifier_file(base_score="0.5"),
        _classifier_file(idf=[1.0, 2.0]),
        _classifier_file(idf=[]),
        _classifier_file(idf=["1.0"]),
        _classifier_file(trees="abc"),
        _classifier_file(shrinkage=-5.0),
        _classifier_file(shrinkage=0),
        _classifier_file(shrinkage=True),
        _classifier_file(shrinkage=10**400),
    ],
    ids=[
        "bad-json", "not-an-object", "version-1", "version-bool", "missing-keys",
        "base-score-string", "idf-too-long", "idf-too-short", "idf-string", "trees-string",
        "shrinkage-negative", "shrinkage-zero", "shrinkage-bool", "shrinkage-above-largest-double",
    ],
)
def test_malformed_classifier_file_raises_schema_error(text):
    with pytest.raises(SchemaError):
        CommitClassifier.from_json(text)


@pytest.mark.parametrize("n_trees", [0, 12])
def test_probabilities_match_the_stack_walk(n_trees):
    msgs, labels = separable_corpus(n=120, seed=9)
    msgs += ["", "the of and", "fix"]
    clf = train_classifier(msgs, labels + [False, False, True], n_trees=n_trees, max_leaves=6)
    docs = [preprocess_message(m) for m in msgs]
    X = clf.vectorizer.transform(docs)
    z = np.full(len(X), clf.forest.base[0])
    for tree in clf.forest.trees:
        z += clf.forest.shrinkage * _stack_walk(tree, X)
    expected = _sigmoid(z)
    expected[[not d for d in docs]] = 0.0
    assert clf.predict_proba(msgs).tobytes() == expected.tobytes()


def golden_classifier():
    """The classifier of the golden digests: noisy labels, so trees grow deep."""
    msgs, labels = separable_corpus(n=120, seed=9)
    msgs[:10] = [m + " see https://ci.example/x" for m in msgs[:10]]
    labels[::7] = [not v for v in labels[::7]]
    return train_classifier(msgs, labels, n_trees=12, max_leaves=6)


def test_classifier_json_golden():
    # Pins the boosted trees; a change to tree growth must keep them.
    assert hashlib.sha256(golden_classifier().to_json().encode()).hexdigest() == (
        "269f9bbb6c28768f4531fb4bc241e0549ace576eb8033a1c8bdadc2039a2bb5b"
    )


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
    # The node tables of the golden models, as trained and as read back from
    # their files: a new file format must keep them bit for bit.
    clf = golden_classifier()
    trained = [m.forest for _, m in golden_models] + [clf.forest]
    read = [RankModel.from_json(m.to_json()).forest for _, m in golden_models]
    read.append(CommitClassifier.from_json(clf.to_json()).forest)
    assert forest_digest(trained) == forest_digest(read) == (
        "a2ce6498e2da98f38838ac442e28d5b081377b7710c0eee84434cd21af29dd39"
    )
