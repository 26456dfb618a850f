import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpci.commit_classifier import (
    DEFECT_KEYWORDS,
    STOP_WORDS,
    TfidfVectorizer,
    _sigmoid,
    cross_validate,
    is_defect_fix_keyword,
    preprocess_message,
    train_classifier,
)
from tcpci.errors import DegenerateCorpusError
from tcpci.ranker import RankModel
from tcpci.stemming import stem
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
    # each keyword is its own stem
    assert {stem(k) for k in DEFECT_KEYWORDS} == DEFECT_KEYWORDS
    assert is_defect_fix_keyword("debugging the cache")
    # a URL is taken out of the message
    assert not is_defect_fix_keyword("see https://fix.example.org/bug")


def keyword_reference(message: str) -> bool:
    """The DET_COV rule on tokens: some token of :func:`preprocess_message`
    (lowercased, stop words dropped, Porter-stemmed) contains a keyword."""
    return any(k in token for token in preprocess_message(message) for k in DEFECT_KEYWORDS)


# Porter's removed and added endings, keyword fragments, stop words, case,
# separators, digits, non-ASCII letters and URLs
_MESSAGE_PARTS = st.one_of(
    st.sampled_from(sorted(DEFECT_KEYWORDS)),
    st.sampled_from(["FIX", "Bug", "DeFect", "fi", "x", "bu", "g", "defe", "ct", "pat", "ch",
                     "fau", "lt", "rep", "air", "ix", "ug", "atch", "ault", "epair"]),
    st.sampled_from(["s", "es", "ies", "sses", "ed", "ing", "eed", "y", "at", "bl", "iz",
                     "ational", "tional", "enci", "anci", "izer", "bli", "alli", "entli", "eli",
                     "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness",
                     "ousness", "aliti", "iviti", "biliti", "logi", "icate", "ative", "alize",
                     "iciti", "ical", "ful", "ness", "al", "ance", "ence", "er", "ic", "able",
                     "ible", "ant", "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
                     "ous", "ive", "ize", "e", "l", "ll", "t", "h", "r"]),
    st.sampled_from(["the", "a", "i", "off", "out", "over", "under", "about", "after"]),
    st.sampled_from([" ", "-", "_", ".", ",", "\n", "/", "2", "é", "İ", "\u212a"]),
    st.sampled_from(["https://fix.example.org/bug", "http://a.b/c", "www.patch.io", "www."]),
    st.text(max_size=3),
)


@settings(max_examples=3000, deadline=None)
@given(parts=st.lists(_MESSAGE_PARTS, max_size=8))
def test_keyword_rule_matches_the_token_rule(parts):
    # the substring rule on the lowercased message gives the token rule's
    # answer: Porter stemming neither makes nor breaks a keyword, and no
    # stop word holds one
    message = "".join(parts)
    assert is_defect_fix_keyword(message) == keyword_reference(message)


def test_no_stop_word_holds_a_keyword():
    assert not [w for w in STOP_WORDS for k in DEFECT_KEYWORDS if k in w]


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


def golden_corpus():
    """Noisy labels, so the golden classifier's trees grow deep."""
    msgs, labels = separable_corpus(n=120, seed=9)
    msgs[:10] = [m + " see https://ci.example/x" for m in msgs[:10]]
    labels[::7] = [not v for v in labels[::7]]
    return msgs, labels


def golden_classifier():
    """The classifier of the golden digests, trained on :func:`golden_corpus`."""
    return train_classifier(*golden_corpus(), n_trees=12, max_leaves=6)


def test_classifier_behaviour_golden():
    # Pins what the trained classifier computes: its vocabulary, its idf and
    # its probabilities over its own corpus.
    msgs, _ = golden_corpus()
    clf = golden_classifier()
    h = hashlib.sha256()
    h.update("\n".join(clf.vectorizer.vocabulary).encode())
    h.update(clf.vectorizer.idf.tobytes())
    h.update(clf.predict_proba(msgs).tobytes())
    assert h.hexdigest() == (
        "50058a24fe37c53b893b19f723143fd5e62b2bd4ca2a6b2d9bea6b3d0385a76a"
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
    # The node tables of the golden models and the golden classifier; the
    # rankers also as read back from their files, which a new file format
    # must keep bit for bit.
    clf = golden_classifier()
    trained = [m.forest for _, m in golden_models] + [clf.forest]
    read = [RankModel.from_json(m.to_json()).forest for _, m in golden_models] + [clf.forest]
    assert forest_digest(trained) == forest_digest(read) == (
        "a2ce6498e2da98f38838ac442e28d5b081377b7710c0eee84434cd21af29dd39"
    )
