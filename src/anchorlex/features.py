"""tf-idf n-gram feature space: char [2,5] and word [1,3] grams."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .textnorm import char_ngrams, tokenize, word_ngrams

MODES = ("char", "word", "char+word")


@dataclass(frozen=True)
class FeatureConfig:
    mode: str = "char+word"
    char_range: tuple[int, int] = (2, 5)
    word_range: tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown feature mode {self.mode!r}")
        for lo, hi in (self.char_range, self.word_range):
            if not (1 <= lo <= hi):
                raise ValueError(f"bad n-gram range ({lo}, {hi})")


def _grams(text: str, cfg: FeatureConfig) -> Mapping[str, int]:
    """Raw gram counts of one text, namespaced c:/w: so modes can mix."""
    out: dict[str, int] = {}
    if cfg.mode in ("char", "char+word"):
        out = {"c:" + g: c for g, c in char_ngrams(text, *cfg.char_range).items()}
    if cfg.mode in ("word", "char+word"):
        out.update({"w:" + g: c for g, c in word_ngrams(tokenize(text), *cfg.word_range).items()})
    return out


@dataclass(frozen=True)
class FeatureSpace:
    config: FeatureConfig
    vocabulary: Mapping[str, int]  # gram -> column
    idf: np.ndarray  # aligned to columns
    n_docs: int

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


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


def vectorize_all(texts: Iterable[str], space: FeatureSpace) -> list[dict[int, float]]:
    return [vectorize(t, space) for t in texts]
