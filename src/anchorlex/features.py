"""tf-idf n-gram feature space: char [2,5] and word [1,3] grams.

The vocabulary's c:/w: prefixes only name the columns: a gram is looked
up unprefixed in one dict per kind (`FeatureSpace.lookup`), so no
prefixed string is built while gramming. `transform` maps a batch of
texts' grams to column ids in C, then numpy counts each row's
in-vocabulary grams in first-appearance order. `fit_transform` grams
each training text once and writes the tf-idf rows straight into CSR
arrays. `tfidf_l2` is the one place tf * idf and the L2 norm are
computed: the training rows, `vectorize` and `linear.score_texts` all
call it, BLOCK_ROWS rows at a time at most, so memory follows a batch's
gram count.

Summation-order rule. A row's squared norm, and its w.x in
`linear.score_texts`, is the float64 sum of its terms in the order the
row's grams first appear, added left to right from 0.0.
`ordered_row_sums` takes these sums for many rows at once, one position
at a time: step k adds term k of every row that has one into that row's
accumulator. Each accumulator thus sees its own row's terms in order,
one IEEE addition per step, which is exactly a left-to-right loop over
that row; the other rows' additions in the same step touch other
accumulators. np.add.reduce (pairwise, eight partial sums on contiguous
data), np.dot (BLAS blocking and FMA), math.fsum (exact) and the
built-in sum over Python floats (compensated from Python 3.12) round
differently, so none of them may be used along a row.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import Mapping, Sequence

import numpy as np

from .textnorm import char_grams, tokenize, word_grams

MODES = ("char", "word", "char+word")

# Rows per tf-idf batch
BLOCK_ROWS = 256


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


def _grams(text: str, cfg: FeatureConfig) -> tuple[list[str], list[str]]:
    """Char grams and word grams of one text, unprefixed and in order; a kind the mode leaves out is empty."""
    return (
        char_grams(text, *cfg.char_range) if cfg.mode != "word" else [],
        word_grams(tokenize(text), *cfg.word_range) if cfg.mode != "char" else [],
    )


@dataclass(frozen=True)
class FeatureSpace:
    config: FeatureConfig
    vocabulary: Mapping[str, int]  # gram -> column
    idf: np.ndarray  # aligned to columns
    n_docs: int

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)

    @cached_property
    def lookup(self) -> tuple[dict[str, int], dict[str, int]]:
        """Columns of the char grams and of the word grams, without their c:/w: prefix.

        A vocabulary entry with another prefix is in neither, so it matches nothing.
        """
        char: dict[str, int] = {}
        word: dict[str, int] = {}
        for g, col in self.vocabulary.items():
            if g[:2] == "c:":
                char[g[2:]] = col
            elif g[:2] == "w:":
                word[g[2:]] = col
        return char, word


def ordered_row_sums(indptr: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum of each CSR row's terms, added left to right from 0.0 (the summation-order rule)."""
    lens = np.diff(indptr)
    n = len(lens)
    # Longest rows first, so the rows that still have a term at position k
    # are a prefix; the terms are laid out position by position in that order.
    by_len = np.argsort(-lens, kind="stable")
    rank = np.empty(n, np.int64)
    rank[by_len] = np.arange(n)
    pos = np.arange(len(terms)) - np.repeat(indptr[:-1], lens)
    active = np.bincount(pos)
    start = np.cumsum(active) - active
    laid = np.empty(len(terms))
    laid[start[pos] + np.repeat(rank, lens)] = terms
    acc = np.zeros(n)
    a = 0
    for m in active.tolist():
        acc[:m] += laid[a : a + m]
        a += m
    return acc[rank]


def tfidf_l2(indptr: np.ndarray, cols: np.ndarray, tfs: np.ndarray, idf: np.ndarray) -> np.ndarray:
    """L2-normalized tf * idf[col] of CSR rows, in the order given.

    A row whose norm is not positive keeps its raw values.
    """
    x = tfs * idf[cols]
    norm = np.repeat(np.sqrt(ordered_row_sums(indptr, x * x)), np.diff(indptr))
    return np.divide(x, norm, out=x, where=norm > 0)


def transform(texts: Sequence[str], space: FeatureSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts' tf-idf rows as CSR (indptr, cols, vals); OOV grams vanish.

    A row's columns come in the order its grams first appear. Memory
    grows with the texts' gram count: pass at most BLOCK_ROWS texts.
    """
    ids = array("q")
    ends = [0]
    for text in texts:
        for lookup, grams in zip(space.lookup, _grams(text, space.config)):
            ids.fromlist(list(map(lookup.get, grams, repeat(-1))))
        ends.append(len(ids))
    n, v = len(texts), len(space.idf)
    flat = np.frombuffer(ids, np.int64)
    rows = np.repeat(np.arange(n), np.diff(ends))
    hit = flat >= 0
    keys, first, tfs = np.unique(rows[hit] * v + flat[hit], return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    keys, tfs = keys[order], tfs[order]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys // v, minlength=n), out=indptr[1:])
    cols = keys % v
    return indptr, cols, tfidf_l2(indptr, cols, tfs, space.idf)


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
    # Each distinct gram gets a provisional id in first-seen order, char and
    # word grams counted together; a text keeps only its ids and counts, so
    # no gram dict outlives its text.
    ids: tuple[dict[str, int], dict[str, int]] = ({}, {})
    flat_ids, flat_tfs = array("q"), array("q")
    n = len(texts)
    indptr = np.zeros(n + 1, np.int64)
    for i, text in enumerate(texts):
        for seen, other, grams in zip(ids, ids[::-1], _grams(text, config)):
            counts = Counter(grams)
            flat_ids.extend([seen.setdefault(g, len(seen) + len(other)) for g in counts])
            flat_tfs.extend(counts.values())
        indptr[i + 1] = len(flat_ids)
    # the columns: sorted char grams, then sorted word grams (c: sorts before w:)
    grams = [sorted(seen) for seen in ids]
    vocab = dict(zip([p + g for p, gs in zip(("c:", "w:"), grams) for g in gs], count()))
    col_of_id = np.empty(len(vocab), np.int64)
    col_of_id[[seen[g] for seen, gs in zip(ids, grams) for g in gs]] = np.arange(len(vocab))
    del ids, grams
    gram_cols = col_of_id[np.frombuffer(flat_ids, np.int64)]
    df = np.bincount(gram_cols, minlength=len(vocab))
    # the scalar expression once per distinct df: numpy does not promise
    # that its array log rounds like its scalar log
    dfs, at = np.unique(df, return_inverse=True)
    idf = np.array([np.log((1.0 + n) / (1.0 + d)) + 1.0 for d in dfs.tolist()])[at]
    tfs = np.frombuffer(flat_tfs, np.int64)
    vals = np.empty(len(gram_cols))
    for a in range(0, n, BLOCK_ROWS):
        ptr = indptr[a : a + BLOCK_ROWS + 1]
        span = slice(ptr[0], ptr[-1])
        vals[span] = tfidf_l2(ptr - ptr[0], gram_cols[span], tfs[span], idf)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(rows * len(vocab) + gram_cols, kind="stable")
    space = FeatureSpace(config=config, vocabulary=vocab, idf=idf, n_docs=n)
    return space, (indptr, gram_cols[order], vals[order])


def fit_features(texts: Sequence[str], config: FeatureConfig = FeatureConfig()) -> FeatureSpace:
    """Vocabulary + smoothed idf from training texts only (`fit_transform`'s space)."""
    return fit_transform(texts, config)[0]


def vectorize(text: str, space: FeatureSpace) -> dict[int, float]:
    """L2-normalized tf-idf vector as {column: value}; OOV grams vanish."""
    _, cols, vals = transform([text], space)
    return dict(zip(cols.tolist(), vals.tolist()))
