"""The read-path scorer before score_texts, its three-sort counter and the two-pass trainer, kept verbatim as oracles.

The scorer counted n-grams with one `Counter` increment per gram, built
each text's tf-idf vector as a dict of numpy scalars and summed it with
the built-in `sum`. `linear.score_texts` must give the same float, bit
for bit, on every text.

`_counts` counted a block of texts with three sorts: `_gram_keys`
sorted the level-ordered hits by row (stably), `np.unique` sorted them
again to find each key's first index, and a stable argsort put the
distinct keys in first-appearance order. `features._counts` must give
the same CSR arrays, bytes and dtypes, on every block.

The trainer grammed every training text twice: once in `fit_features`
for df, once more in `vectorize_all` for a dict row per text, which the
solver (`svm_reference.fit_svm_flat`) turned into CSR. `train_model`
here is that path; `linear.train_model` must save the same model bytes.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from anchorlex.corpus import LABEL_CLASSES, DatasetSplit, Document, LabelRecord
from anchorlex.features import FeatureConfig, FeatureSpace, _codes
from anchorlex.linear import LinearModel, target_value
from anchorlex.textnorm import normalize, tokenize

import svm_reference


def word_ngrams(tokens: Sequence[str], n_min: int, n_max: int) -> Counter:
    """Multiset of contiguous word n-grams, joined with single spaces."""
    if not (1 <= n_min <= n_max):
        raise ValueError(f"bad n-gram range ({n_min}, {n_max})")
    grams: Counter = Counter()
    for n in range(n_min, n_max + 1):
        for i in range(len(tokens) - n + 1):
            grams[" ".join(tokens[i : i + n])] += 1
    return grams


def char_ngrams(text: str, n_min: int, n_max: int) -> Counter:
    """Multiset of contiguous character n-grams over the string, spaces included."""
    if not (1 <= n_min <= n_max):
        raise ValueError(f"bad n-gram range ({n_min}, {n_max})")
    grams: Counter = Counter()
    for n in range(n_min, n_max + 1):
        for i in range(len(text) - n + 1):
            grams[text[i : i + n]] += 1
    return grams


def _grams(text: str, cfg: FeatureConfig) -> Mapping[str, int]:
    """Raw gram counts of one text, namespaced c:/w: so modes can mix."""
    out: dict[str, int] = {}
    if cfg.mode in ("char", "char+word"):
        for g, c in char_ngrams(text, *cfg.char_range).items():
            out["c:" + g] = c
    if cfg.mode in ("word", "char+word"):
        for g, c in word_ngrams(tokenize(text), *cfg.word_range).items():
            out["w:" + g] = c
    return out


def vectorize(text: str, space: FeatureSpace) -> dict[int, float]:
    """L2-normalized tf-idf vector as {column: value}; OOV grams vanish."""
    vec: dict[int, float] = {}
    for g, tf in _grams(text, space.config).items():
        col = space.vocabulary.get(g)
        if col is not None:
            vec[col] = tf * space.idf[col]
    norm = np.sqrt(sum(v * v for v in vec.values()))
    if norm > 0:
        vec = {k: v / norm for k, v in vec.items()}
    return vec


def decision_score(model: LinearModel, vec: Mapping[int, float]) -> float:
    if vec and max(vec) >= len(model.weights):
        raise ValueError(
            f"vector dimension {max(vec) + 1} exceeds model dimension {len(model.weights)}"
        )
    return float(sum(model.weights[k] * v for k, v in vec.items()) + model.bias)


def score_text(model: LinearModel, text: str, pre_normalized: bool = False) -> float:
    if not pre_normalized:
        text = normalize(text)
    return decision_score(model, vectorize(text, model.space))


def _gram_keys(texts: Sequence[str], space: FeatureSpace) -> np.ndarray:
    """row * n_columns + column of every in-vocabulary gram of the texts, in gram order.

    That is row, then char before word, then n ascending, then position.
    """
    v = len(space.idf)
    row_type = np.min_scalar_type(len(texts))
    rows = [np.zeros(0, row_type)]
    keys = [np.zeros(0, np.int64)]
    for trie in space._tries:
        if trie is None:
            continue
        codes, ends = _codes(texts, trie.code, trie.end)
        # the windows alive at level n: start positions and their prefix ids
        key, pos = codes, None
        for n, (level, level_cols) in enumerate(zip(trie.keys, trie.cols), 1):
            idx = np.searchsorted(level, key)
            found = np.flatnonzero(level[idx] == key)
            pos = found if pos is None else pos[found]
            node = idx[found]
            c = level_cols[node]
            hit = c >= 0
            row = np.searchsorted(ends, pos[hit])
            rows.append(row.astype(row_type))
            keys.append(row * v + c[hit])
            if n == len(trie.keys) or not len(pos):
                break
            key = node * (trie.end + 1) + codes[pos + n]
    # one stable pass by row interleaves the levels; a row type of 16 bits or less sorts by radix
    return np.concatenate(keys)[np.argsort(np.concatenate(rows), kind="stable")]


def counts(texts: Sequence[str], space: FeatureSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts' in-vocabulary gram counts as CSR (indptr, cols, tfs), each row in first-appearance order."""
    n, v = len(texts), len(space.idf)
    keys, first, tfs = np.unique(_gram_keys(texts, space), return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    keys, tfs = keys[order], tfs[order]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys // v, minlength=n), out=indptr[1:])
    return indptr, keys % v, tfs


def fit_features(texts: Sequence[str], config: FeatureConfig = FeatureConfig()) -> FeatureSpace:
    """Vocabulary + smoothed idf from training texts only.

    idf = ln((1 + N) / (1 + df)) + 1; columns sorted lexicographically
    so the space is a pure function of the text multiset.
    """
    if not texts:
        raise ValueError("cannot fit features on an empty text list")
    df: dict[str, int] = {}
    for t in texts:
        for g in _grams(t, config):
            df[g] = df.get(g, 0) + 1
    vocab = {g: i for i, g in enumerate(sorted(df))}
    n = len(texts)
    idf = np.empty(len(vocab))
    for g, i in vocab.items():
        idf[i] = np.log((1.0 + n) / (1.0 + df[g])) + 1.0
    return FeatureSpace(config=config, vocabulary=vocab, idf=idf, n_docs=n)


def vectorize_all(texts: Iterable[str], space: FeatureSpace) -> list[dict[int, float]]:
    return [vectorize(t, space) for t in texts]


def train_model(
    docs: Sequence[Document],
    labels: Mapping[str, LabelRecord],
    split: DatasetSplit,
    feature_config: FeatureConfig = FeatureConfig(),
    C: float = 1.0,
    seed: int = 0,
    target: str = "offensive",
) -> LinearModel:
    """Fit features on the train split only, then train the SVM on it."""
    if target not in LABEL_CLASSES:
        raise ValueError(f"unknown target {target!r}")
    train_docs = [d for d in docs if d.id in split.train]
    if not train_docs:
        raise ValueError("train split matches no documents")
    missing = [d.id for d in train_docs if d.id not in labels]
    if missing:
        raise ValueError(f"unlabeled train documents, e.g. {missing[0]!r}")
    texts = [
        normalize(d.text)
        for d in train_docs
    ]
    yv = [target_value(labels[d.id], target) for d in train_docs]
    space = fit_features(texts, feature_config)
    vectors = vectorize_all(texts, space)
    fit = svm_reference.fit_svm_flat(vectors, yv, space.n_features, C=C)
    return LinearModel(
        space=space,
        weights=fit.weights,
        bias=fit.bias,
        C=C,
        seed=seed,
        target=target,
        objective_trace=fit.objective_trace,
        duality_gap=fit.duality_gap,
        converged=fit.converged,
    )
