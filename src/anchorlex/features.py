"""tf-idf n-gram feature space: char [2,5] and word [1,3] grams.

`fit_transform` grams each training text once and writes the tf-idf
rows straight into CSR arrays. `tfidf_l2` is the one place tf * idf
and the L2 norm are computed: the training rows, `vectorize` and
`linear.score_texts` all call it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .textnorm import char_ngrams, tokenize, word_ngrams

MODES = ("char", "word", "char+word")

K = TypeVar("K")


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


def tfidf_l2(
    grams: Iterable[tuple[K, int]], column: Callable[[K], int | None], idf: Sequence[float]
) -> tuple[list[int], list[float]]:
    """Columns and L2-normalized tf * idf[col] of (gram, tf) pairs, in the order given.

    A gram whose column(gram) is None is out of vocabulary and dropped.
    The squared norm is added left to right in that order, in Python
    floats (the summation-order rule in the `linear` module docstring).
    """
    cols: list[int] = []
    vals: list[float] = []
    for g, tf in grams:
        col = column(g)
        if col is not None:
            cols.append(col)
            vals.append(tf * idf[col])
    sq = 0.0
    for x in vals:
        sq += x * x
    norm = math.sqrt(sq)
    return cols, ([x / norm for x in vals] if norm > 0 else vals)


def fit_transform(
    texts: Sequence[str], config: FeatureConfig = FeatureConfig()
) -> tuple[FeatureSpace, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Feature space fitted on the texts, and the texts' tf-idf rows as CSR.

    idf = ln((1 + N) / (1 + df)) + 1; columns sorted lexicographically
    so the space is a pure function of the text multiset. The rows are
    (indptr, cols, vals): row i holds cols[indptr[i]:indptr[i + 1]],
    ascending, and each value equals vectorize(texts[i], space)[col]
    bit for bit.
    """
    if not texts:
        raise ValueError("cannot fit features on an empty text list")
    # Each distinct gram gets a provisional id in first-seen order; a text
    # keeps only its ids and counts, so no gram dict outlives its text.
    ids: dict[str, int] = {}
    flat_ids, flat_tfs = array("q"), array("q")
    indptr = np.zeros(len(texts) + 1, np.int64)
    for i, text in enumerate(texts):
        grams = _grams(text, config)
        flat_ids.extend([ids.setdefault(g, len(ids)) for g in grams])
        flat_tfs.extend(grams.values())
        indptr[i + 1] = len(flat_ids)
    n = len(texts)
    vocab = {g: col for col, g in enumerate(sorted(ids))}
    col_of_id = np.fromiter(map(vocab.__getitem__, ids), np.int64, len(ids))
    del ids
    gram_cols = col_of_id[np.frombuffer(flat_ids, np.int64)]
    df = np.bincount(gram_cols, minlength=len(vocab))
    # the scalar expression once per distinct df: numpy does not promise
    # that its array log rounds like its scalar log
    dfs, at = np.unique(df, return_inverse=True)
    idf = np.array([np.log((1.0 + n) / (1.0 + d)) + 1.0 for d in dfs.tolist()])[at]
    column, idf_list = col_of_id.tolist().__getitem__, idf.tolist()
    vals = array("d")
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        vals.extend(tfidf_l2(zip(flat_ids[a:b], flat_tfs[a:b]), column, idf_list)[1])
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(rows * len(vocab) + gram_cols, kind="stable")
    space = FeatureSpace(config=config, vocabulary=vocab, idf=idf, n_docs=n)
    return space, (indptr, gram_cols[order], np.frombuffer(vals, np.float64)[order])


def fit_features(texts: Sequence[str], config: FeatureConfig = FeatureConfig()) -> FeatureSpace:
    """Vocabulary + smoothed idf from training texts only (`fit_transform`'s space)."""
    return fit_transform(texts, config)[0]


def vectorize(text: str, space: FeatureSpace) -> dict[int, float]:
    """L2-normalized tf-idf vector as {column: value}; OOV grams vanish."""
    grams = _grams(text, space.config).items()
    return dict(zip(*tfidf_l2(grams, space.vocabulary.get, space.idf)))
