"""tf-idf n-gram feature space: char [2,5] and word [1,3] grams.

The vocabulary's c:/w: prefixes only name the columns, and no path
builds a string per gram occurrence. `transform` maps a block of texts'
grams to column ids through a prefix trie per kind, then numpy counts
each row's grams in first-appearance order. `tfidf_l2` is the one place
tf * idf and the L2 norm are computed: the training rows, `vectorize`
and `linear.score_texts` all call it, BLOCK_ROWS rows at a time at most.

Gram index. A FeatureSpace builds one trie per kind on first use
(`FeatureSpace._tries`) and keeps it. A char gram is a string of code
points; a word gram is a string of tokens, each coded by one dict over
the tokens of the w: entries split on " ". Level n of a trie holds the
sorted int64 keys prefix_id * (end + 1) + code of every length-n prefix
of its grams, prefix_id being the length-(n-1) prefix's index in level
n - 1 (0 at level 1), and the column of each prefix that is a gram (-1
for the others). end is above every code: 0x110000 for code points, the
token count for tokens. prefix_id is below the vocabulary size, so no
key comes near 2**63, whatever the alphabet or n-gram range. Only c:
and w: entries whose length is inside their kind's range go in; any
other entry matches nothing. `spelled_from(chars)` keeps only the
entries spelled, past their prefix, from chars and the space, at the
same columns: a text written in chars has no other gram (a word gram's
tokens are cut from it, joined by spaces), so it scores the same bits
through that smaller index, which `explain` builds on every call.

Lookup (`_gram_keys`). A block's texts become one array of codes, each
text followed by `end`; a token that no w: entry has is `end` too.
Level 1 is one np.searchsorted over every position, and level n one
over the windows still alive, each extended by the next code. A window
dies when its prefix is not in the trie, as it does when it would take
in `end`. The hits come out in level order (char before word, n
ascending, position), which within one row is the row's gram order, so
a key's first appearance is its smallest hit index. `_counts` sorts the
values key * n_hits + hit index once: they are distinct, so any sort
algorithm gives one order (numpy's value sort runs in SIMD, unlike the
stable sort inside np.unique), in which a key's hits lie together in hit
order. A group starts where the key changes; its first value holds the
key's first appearance, and the gaps between starts are the counts.
Where those values could pass 2**63 - 1, np.unique groups the hits.
`_counts` then argsorts the distinct (row, first) pairs. The counts, the
first-appearance order and every sum below are thus those of the
per-gram strings, bit for bit.

Vocabulary (`fit_transform`). The training texts are coded the same
way, words by a token dict in first-appearance order. Level by level,
np.unique over prefix_id * (end + 1) + code gives each window that
takes in no end an id; one position per distinct window of length
lo..hi becomes a string. Each kind sorts as strings ("ab c" before
"abc", unlike token codes). The space's tries then count the texts, so
the training rows are `transform`'s, each row's columns sorted.

Per-block memory rule. Memory follows a block's code count, never its
rows times its longest row: the gram stage keeps a few arrays per code
and per hit (int64 keys, positions and sort indices, int32 columns),
all inside `_counts`, so they are freed before `tfidf_l2` runs, and
tf-idf and the sums then hold a few arrays per distinct gram of each
row. Only the vocabulary pass holds a few arrays per code of the whole
training set.

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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .textnorm import tokenize

MODES = ("char", "word", "char+word")

# Rows per tf-idf batch
BLOCK_ROWS = 256

# The char trie's end code: one past the last code point
_CHAR_END = 0x110000
# Last key of every trie level, above any prefix key
_TOP = np.iinfo(np.int64).max
_Code = Callable[[str, int], int]  # (token, end) -> the token's code


@dataclass(frozen=True)
class FeatureConfig:
    mode: str = "char+word"
    char_range: tuple[int, int] = (2, 5)
    word_range: tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown feature mode {self.mode!r}")
        for lo, hi in (self.char_range, self.word_range):
            if not (type(lo) is type(hi) is int and 1 <= lo <= hi):
                raise ValueError(f"bad n-gram range ({lo}, {hi})")


@dataclass(frozen=True)
class _Trie:
    """Level-by-level prefix trie over the codes of one kind's grams (module docstring)."""

    keys: tuple[np.ndarray, ...]  # level n: sorted prefix_id * (end + 1) + code, then _TOP
    cols: tuple[np.ndarray, ...]  # aligned to keys: the prefix's column if it is a gram, else -1
    end: int  # the code after each text, above every gram code
    code: _Code | None  # word tries: (token, end) -> the token's code; char codes are code points


def _trie(
    codes: np.ndarray, starts: np.ndarray, lens: np.ndarray, cols: np.ndarray, end: int, code: _Code | None = None
) -> _Trie:
    """The trie of the grams codes[starts[i] : starts[i] + lens[i]], gram i at column cols[i]."""
    # longest first, so the grams at least n codes long are a prefix
    order = np.argsort(-lens, kind="stable")
    starts, lens, cols = starts[order], lens[order], cols[order]
    node = np.zeros(len(lens), np.int64)
    keys, level_cols = [], []
    for n in range(1, int(lens[0]) + 1 if len(lens) else 1):
        k, longer = np.count_nonzero(lens >= n), np.count_nonzero(lens > n)
        level, node = np.unique(node[:k] * (end + 1) + codes[starts[:k] + n - 1], return_inverse=True)
        c = np.full(len(level) + 1, -1, np.int32)
        c[node[longer:]] = cols[longer:k]
        keys.append(np.append(level, _TOP))
        level_cols.append(c)
    return _Trie(tuple(keys), tuple(level_cols), end, code)


def _utf32(s: str) -> np.ndarray:
    """The code points of s, lone surrogates included."""
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), "<u4")


def _entries(grams: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries' code points back to back, padded so that each has two, and each entry's start and length."""
    lens = np.fromiter(map(len, grams), np.int64, len(grams))
    return _utf32("".join([*grams, "\0\0"])), np.cumsum(lens) - lens, lens


@dataclass(frozen=True)
class FeatureSpace:
    config: FeatureConfig
    vocabulary: Mapping[str, int]  # gram -> column
    idf: np.ndarray  # aligned to columns
    n_docs: int

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)

    def spelled_from(self, chars: str) -> FeatureSpace:
        """The space with only the entries whose characters past the 2-character prefix are in chars or a space.

        Columns, idf, config and n_docs stay; a text written in chars
        scores the same bits on both spaces (Gram index, module docstring).
        """
        flat, starts, lens = _entries(list(self.vocabulary))
        # bad[k]: the code points outside chars and the space among the first k
        bad = np.zeros(len(flat) + 1, np.int64)
        np.cumsum(~np.isin(flat, _utf32(chars + " ")), out=bad[1:])
        keep = bad[starts + lens] == bad[starts + np.minimum(lens, 2)]
        return replace(self, vocabulary=dict(compress(self.vocabulary.items(), keep.tolist())))

    @cached_property
    def _tries(self) -> tuple[_Trie | None, _Trie | None]:
        """The char trie and the word trie (module docstring); None for a kind the mode leaves out."""
        (clo, chi), (wlo, whi) = self.config.char_range, self.config.word_range
        grams = list(self.vocabulary)
        flat, starts, lens = _entries(grams)
        cols = np.fromiter(self.vocabulary.values(), np.int64, len(grams))
        colon = (lens >= 2) & (flat[starts + 1] == ord(":"))
        char = word = None
        if self.config.mode != "word":
            sel = colon & (flat[starts] == ord("c")) & (lens >= clo + 2) & (lens <= chi + 2)
            char = _trie(flat, starts[sel] + 2, lens[sel] - 2, cols[sel], _CHAR_END)
        if self.config.mode != "char":
            # a w: entry's token count: one more than the spaces after its prefix
            spaces = np.cumsum(flat == ord(" "), dtype=np.int32)
            n_tok = spaces[starts + lens - 1] - spaces[starts + 1] + 1
            sel = colon & (flat[starts] == ord("w")) & (n_tok >= wlo) & (n_tok <= whi)
            bodies = map(itemgetter(slice(2, None)), compress(grams, sel.tolist()))
            all_tokens = " ".join(bodies).split(" ")
            tokens = dict(zip(dict.fromkeys(all_tokens), count()))
            codes = np.fromiter(map(tokens.__getitem__, all_tokens), np.int64, len(all_tokens))
            n_tok = n_tok[sel]
            word = _trie(codes, np.cumsum(n_tok) - n_tok, n_tok, cols[sel], len(tokens), tokens.get)
        return char, word


def _codes(texts: Sequence[str], code: _Code | None, end: int) -> tuple[np.ndarray, np.ndarray]:
    """The texts' codes back to back, each text followed by end, and where each end is.

    code None codes code points, else token t gets code(t, end).
    """
    if code is None:
        codes = _utf32("\0".join([*texts, ""])).astype(np.int64)
        ends = np.cumsum([len(t) + 1 for t in texts], dtype=np.int64) - 1
        codes[ends] = end
        return codes, ends
    ids = array("q")
    ends = array("q")
    for text in texts:
        ids.fromlist(list(map(code, tokenize(text), repeat(end))))
        ends.append(len(ids))
        ids.append(end)
    return np.frombuffer(ids, np.int64), np.frombuffer(ends, np.int64)


def _gram_keys(texts: Sequence[str], space: FeatureSpace) -> np.ndarray:
    """row * n_columns + column of every in-vocabulary gram of the texts, in level order.

    That is char before word, then n ascending, then position, so each
    row's hits come in that row's gram order.
    """
    v = len(space.idf)
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
            keys.append(np.searchsorted(ends, pos[hit]) * v + c[hit])
            if n == len(trie.keys) or not len(pos):
                break
            key = node * (trie.end + 1) + codes[pos + n]
    return np.concatenate(keys)


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


def _counts(texts: Sequence[str], space: FeatureSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts' in-vocabulary gram counts as CSR (indptr, cols, tfs), each row in first-appearance order."""
    n, v = len(texts), len(space.idf)
    hits = _gram_keys(texts, space)
    width = len(hits)
    # the index of a key's first hit is its first appearance, since a row's hits come in gram order
    if n * v * width <= _TOP:
        # one value sort of key * width + hit index: the values are distinct, so each key's
        # hits lie together in hit order, and the first of them is the key's first hit
        hits *= width
        hits += np.arange(width)
        hits.sort()
        key = hits // width
        change = np.empty(width, bool)
        change[:1] = True
        np.not_equal(key[1:], key[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        keys = key[starts]
        del key
        first = hits[starts] - keys * width
        del hits
        tfs = np.diff(starts, append=width)
    else:
        keys, first, tfs = np.unique(hits, return_index=True, return_counts=True)
    # one int64 key per distinct (row, first) pair; np.lexsort where n * width would overflow it
    rows = keys // v
    order = np.argsort(rows * width + first) if n * width <= _TOP else np.lexsort((first, rows))
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, keys[order] % v, tfs[order]


def transform(texts: Sequence[str], space: FeatureSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts' tf-idf rows as CSR (indptr, cols, vals); OOV grams vanish.

    A row's columns come in the order its grams first appear. Memory
    grows with the texts' character count (the per-block memory rule in
    the module docstring): pass at most BLOCK_ROWS texts.
    """
    indptr, cols, tfs = _counts(texts, space)
    return indptr, cols, tfidf_l2(indptr, cols, tfs, space.idf)


def _distinct_windows(codes: np.ndarray, end: int, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """n, and one start of each distinct window of n codes that takes in no end, for n in lo..hi."""
    pos = np.flatnonzero(codes != end)
    key = codes[pos]
    for n in range(1, hi + 1):
        level, node = np.unique(key, return_inverse=True)
        if n >= lo:
            starts = np.empty(len(level), np.int64)
            starts[node] = pos  # any position of a window serves
            yield n, starts
        nxt = codes[pos + n]
        alive = nxt != end
        pos, key = pos[alive], node[alive] * (end + 1) + nxt[alive]


def _vocabulary(texts: Sequence[str], config: FeatureConfig) -> dict[str, int]:
    """gram -> column: the texts' distinct char grams, then word grams, each kind sorted as strings."""
    grams: list[str] = []
    if config.mode != "word":
        codes, _ = _codes(texts, None, _CHAR_END)
        joined = "\0".join(texts)
        windows = _distinct_windows(codes, _CHAR_END, *config.char_range)
        grams += ["c:" + g for g in sorted(joined[p : p + n] for n, pos in windows for p in pos.tolist())]
    if config.mode != "char":
        tokens: dict[str, int] = {}  # in first-appearance order
        codes, ends = _codes(texts, lambda t, _: tokens.setdefault(t, len(tokens)), 0)
        codes[ends] = end = len(tokens)
        names = np.array(list(tokens), dtype=object)
        windows = _distinct_windows(codes, end, *config.word_range)
        grams += ["w:" + g for g in sorted(
            " ".join(t) for n, pos in windows for t in names[codes[pos[:, None] + np.arange(n)]].tolist())]
    return dict(zip(grams, count()))


def fit_transform(
    texts: Sequence[str], config: FeatureConfig = FeatureConfig()
) -> tuple[FeatureSpace, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Feature space fitted on the texts, and the texts' tf-idf rows as CSR.

    idf = ln((1 + N) / (1 + df)) + 1; columns sorted lexicographically
    so the space is a pure function of the text multiset. The rows are
    (indptr, cols, vals): row i holds cols[indptr[i]:indptr[i + 1]],
    ascending: `transform`'s rows, each with its columns sorted.
    """
    if not texts:
        raise ValueError("cannot fit features on an empty text list")
    vocab = _vocabulary(texts, config)
    n, v = len(texts), len(vocab)
    idf = np.empty(v)  # filled once df is known; counting reads only its length
    space = FeatureSpace(config=config, vocabulary=vocab, idf=idf, n_docs=n)
    blocks = [_counts(texts[a : a + BLOCK_ROWS], space) for a in range(0, n, BLOCK_ROWS)]
    cols = np.concatenate([c for _, c, _ in blocks])
    # the scalar expression once per distinct df: numpy does not promise
    # that its array log rounds like its scalar log
    dfs, at = np.unique(np.bincount(cols, minlength=v), return_inverse=True)
    idf[:] = np.array([np.log((1.0 + n) / (1.0 + d)) + 1.0 for d in dfs.tolist()])[at]
    vals = np.concatenate([tfidf_l2(*block, idf) for block in blocks])
    lens = np.concatenate([np.diff(indptr) for indptr, _, _ in blocks])
    order = np.argsort(np.repeat(np.arange(n), lens) * v + cols)
    return space, (np.concatenate([[0], np.cumsum(lens)]), cols[order], vals[order])


def fit_features(texts: Sequence[str], config: FeatureConfig = FeatureConfig()) -> FeatureSpace:
    """Vocabulary + smoothed idf from training texts only (`fit_transform`'s space)."""
    return fit_transform(texts, config)[0]


def vectorize(text: str, space: FeatureSpace) -> dict[int, float]:
    """L2-normalized tf-idf vector as {column: value}; OOV grams vanish."""
    _, cols, vals = transform([text], space)
    return dict(zip(cols.tolist(), vals.tolist()))
