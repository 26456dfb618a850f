"""Defect-fix commit detection from commit messages.

Two classifiers with a common preprocessing pipeline:

* a learned one — TF-IDF bag of words fed into gradient-boosted regression
  trees with logistic loss (:func:`trees.boost` with the sigmoid link);
* a keyword fallback matching stemmed defect vocabulary
  (fix, bug, defect, patch, fault, repair).

Preprocessing: lowercase, URLs collapsed to a ``<url>`` token, punctuation
stripped, stop words removed, remaining tokens Porter-stemmed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DegenerateCorpusError
from .stemming import stem
from .trees import Grower, RegressionTree, boost, score

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_URL_SENTINEL = "zqurlplaceholderqz"
URL_TOKEN = "<url>"

DEFECT_KEYWORDS = frozenset({"fix", "bug", "defect", "patch", "fault", "repair"})
_STEMMED_KEYWORDS = frozenset(stem(k) for k in DEFECT_KEYWORDS)


def _load_stopwords() -> frozenset[str]:
    text = resources.files("tcpci").joinpath("data/stopwords.txt").read_text()
    return frozenset(w for w in text.split() if w)


STOP_WORDS = _load_stopwords()


def preprocess_message(message: str) -> list[str]:
    """Tokenize one commit message.

    ``"Fixed NPE, see https://x.y/z"`` becomes ``["fix", "npe", "<url>"]``.
    """
    text = _URL_RE.sub(f" {_URL_SENTINEL} ", message).lower()
    text = re.sub(r"[^a-z0-9]+", " ", text)
    tokens = []
    for tok in text.split():
        if tok == _URL_SENTINEL:
            tokens.append(URL_TOKEN)
            continue
        if tok in STOP_WORDS:
            continue
        tokens.append(stem(tok))
    return tokens


def is_defect_fix_keyword(message: str) -> bool:
    """Keyword fallback: any token matching the defect vocabulary.

    A stemmed token equal to a keyword matches, and so do compounds that
    embed one ("bugfix", "hotfix"), at the cost of rare false positives.
    """
    for token in preprocess_message(message):
        if token in _STEMMED_KEYWORDS:
            return True
        if token != URL_TOKEN and any(k in token for k in DEFECT_KEYWORDS):
            return True
    return False


class TfidfVectorizer:
    """Bag-of-words with smoothed IDF: ln((1 + N) / (1 + df)) + 1."""

    def __init__(self, vocabulary: list[str], idf: np.ndarray):
        self.vocabulary = list(vocabulary)
        self._index = {w: i for i, w in enumerate(self.vocabulary)}
        self.idf = np.asarray(idf, dtype=np.float64)

    @classmethod
    def fit(cls, token_docs: list[list[str]]) -> "TfidfVectorizer":
        df: dict[str, int] = {}
        for doc in token_docs:
            for w in set(doc):
                df[w] = df.get(w, 0) + 1
        vocab = sorted(df)
        n = len(token_docs)
        idf = np.array([math.log((1 + n) / (1 + df[w])) + 1.0 for w in vocab])
        return cls(vocab, idf)

    def transform(self, token_docs: list[list[str]]) -> np.ndarray:
        X = np.zeros((len(token_docs), len(self.vocabulary)), dtype=np.float64)
        for i, doc in enumerate(token_docs):
            for w in doc:
                j = self._index.get(w)
                if j is not None:
                    X[i, j] += 1.0
        return X * self.idf[None, :]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


@dataclass
class CommitClassifier:
    """Boosted-tree classifier over TF-IDF message vectors.

    An empty message (no tokens after preprocessing) is always classified
    as not-a-fix regardless of the model prior.
    """

    vectorizer: TfidfVectorizer
    trees: list[RegressionTree]
    base_score: float
    shrinkage: float
    threshold: float = 0.5

    def predict_proba(self, messages: list[str]) -> np.ndarray:
        docs = [preprocess_message(m) for m in messages]
        X = self.vectorizer.transform(docs)
        proba = _sigmoid(score(self.trees, X, self.base_score, self.shrinkage))
        empty = np.array([len(d) == 0 for d in docs])
        proba[empty] = 0.0
        return proba

    def classify(self, message: str) -> bool:
        return bool(self.predict_proba([message])[0] >= self.threshold)

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "vocabulary": self.vectorizer.vocabulary,
                "idf": self.vectorizer.idf.tolist(),
                "base_score": self.base_score,
                "shrinkage": self.shrinkage,
                "threshold": self.threshold,
                "trees": [t.to_dict() for t in self.trees],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CommitClassifier":
        d = json.loads(text)
        return cls(
            vectorizer=TfidfVectorizer(d["vocabulary"], np.array(d["idf"])),
            trees=[RegressionTree.from_dict(t) for t in d["trees"]],
            base_score=d["base_score"],
            shrinkage=d["shrinkage"],
            threshold=d["threshold"],
        )


def train_classifier(
    messages: list[str],
    labels: list[bool],
    n_trees: int = 30,
    shrinkage: float = 0.2,
    max_leaves: int = 8,
) -> CommitClassifier:
    y = np.asarray(labels, dtype=np.float64)
    if len(set(labels)) < 2:
        raise DegenerateCorpusError("training corpus contains a single class")
    docs = [preprocess_message(m) for m in messages]
    vectorizer = TfidfVectorizer.fit(docs)
    X = vectorizer.transform(docs)
    p = float(y.mean())
    base = math.log(p / (1 - p))  # the log-odds of the prior
    trees = boost(Grower(X), y, base, n_trees, shrinkage, max_leaves, _sigmoid)
    return CommitClassifier(vectorizer, trees, base, shrinkage)


def cross_validate(
    messages: list[str],
    labels: list[bool],
    k: int = 5,
    seed: int = 0,
    **train_kwargs,
) -> float:
    """Mean k-fold accuracy; folds are a seeded shuffle of the corpus."""
    if len(set(labels)) < 2:
        raise DegenerateCorpusError("training corpus contains a single class")
    rng = np.random.default_rng(seed)
    n = len(messages)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    accs = []
    for held in folds:
        held_set = set(held.tolist())
        train_idx = [i for i in order.tolist() if i not in held_set]
        clf = train_classifier(
            [messages[i] for i in train_idx],
            [labels[i] for i in train_idx],
            **train_kwargs,
        )
        proba = clf.predict_proba([messages[i] for i in held])
        pred = proba >= clf.threshold
        truth = np.array([labels[i] for i in held])
        accs.append(float((pred == truth).mean()))
    return float(np.mean(accs))
