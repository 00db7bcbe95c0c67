"""The read-path scorer before score_texts, kept verbatim as a differential oracle.

It counted n-grams with one `Counter` increment per gram, built each
text's tf-idf vector as a dict of numpy scalars and summed it with the
built-in `sum`. `linear.score_texts` must give the same float, bit for
bit, on every text.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from anchorlex.features import FeatureConfig, FeatureSpace
from anchorlex.linear import LinearModel
from anchorlex.textnorm import normalize, tokenize


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
    if model.normalized and not pre_normalized:
        text = normalize(text)
    return decision_score(model, vectorize(text, model.space))
