"""tf-idf n-gram feature space: char [2,5] and word [1,3] grams.

The vocabulary's c:/w: prefixes only name the columns, and no path
builds a string per gram occurrence. `transform` maps a block of texts'
grams to column ids through a prefix trie per kind, then numpy counts
each row's grams in first-appearance order. `tfidf_l2` is the one place
tf * idf and the L2 norm are computed: the training rows, `vectorize`
and `linear.score_texts` all call it, BLOCK_ROWS rows at a time at most.

Gram index. A FeatureSpace holds one trie per kind (`FeatureSpace.tries`):
`fit_transform` builds them once from its texts' codes (`_fit_space`),
`linear.load_model` reads them from the model file (`load_index`).
A char gram is a string of code points; a word gram is a string of
tokens, each coded in order of first appearance over the word grams
taken in column order. Level n of a trie, for n from 1 to the top of
the kind's range, holds the sorted int64 keys prefix_id * (end + 1) +
code of every length-n prefix of its grams, prefix_id being the
length-(n-1) prefix's index in level n - 1 (0 at level 1), then the
sentinel _TOP, and aligned int32 columns: the column of each prefix
that is a gram, -1 for the others. end is above every code: 0x110000
for code points, the token count for tokens. prefix_id is below the
vocabulary size, so no key comes near 2**63, whatever the alphabet or
n-gram range. Only grams whose length is inside their kind's range go
in. The tries are the only record of the columns: a key spells its
prefix from its parent's and its code, and the word trie keeps its
tokens in code order, so the index spells every gram.

Stored index. `dump_index` gives the tries as JSON values: each level's
keys and columns as base64 of their little-endian bytes, each trie's
end and the word tokens in code order. `load_index` takes such a value
back only if `_gram_keys` can read it and it spells each column once:
every kind of the mode, one level per n of the range, keys strictly
increasing up to _TOP, none of them a window that takes in end or
extends a prefix that the level below lacks, columns in [-1, number of
columns), char end 0x110000, end distinct word tokens, and each column
that of exactly one node.

Lookup (`_gram_keys`). A block's texts become one array of codes per
kind (`_code`), each text followed by `end`; a token that no word gram
has is `end` too. Level 1 is one np.searchsorted over every position,
and level n one over the windows still alive, each extended by the
next code. A window
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

Vocabulary (`fit_transform`). The training texts are coded once per
kind, words by first appearance. Level by level, np.unique over
prefix_id * (end + 1) + code gives each window that takes in no end an
id; one position per distinct window of length lo..hi gives its codes,
padded with -1. One np.lexsort per kind puts them in c:/w: string
order, -1 sorting a prefix first: char codes are code points, and a
token's key is its rank among the token strings. That is the order of
the " "-joined strings because no token holds a character at or below
U+0020: where the first differing tokens differ inside both, that
character decides; where one is a proper prefix of the other, its string
goes on with " " or ends, the other's with a character above " ". The
word tokens are recoded by first appearance over the word grams in
column order (a token in no gram, and end, become the new end); `_trie`
builds both tries from these codes, and the training blocks are counted
from slices of them, so each text is tokenized once and the training
rows are `transform`'s, each row's columns sorted.

Per-block memory rule. Memory follows a block's code count, never its
rows times its longest row: the gram stage keeps a few arrays per code
and per hit (int64 keys, positions and sort indices, int32 columns),
all inside `_counts`, so they are freed before `tfidf_l2` runs, and
tf-idf and the sums then hold a few arrays per distinct gram of each
row. Only `fit_transform` holds arrays per code of the whole training
set, until it has counted every block.

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

import base64
from array import array
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Iterable, Mapping, Sequence

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
    tokens: Mapping[str, int] | None  # word tries: token -> code, in code order; char codes are code points


def _trie(
    codes: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    cols: np.ndarray,
    end: int,
    levels: int,
    tokens: Mapping[str, int] | None,
) -> _Trie:
    """The trie of the grams codes[starts[i] : starts[i] + lens[i]], gram i at column cols[i], lens[i] <= levels."""
    # longest first, so the grams at least n codes long are a prefix
    order = np.argsort(-lens, kind="stable")
    starts, lens, cols = starts[order], lens[order], cols[order]
    node = np.zeros(len(lens), np.int64)
    keys, level_cols = [], []
    for n in range(1, levels + 1):
        k, longer = np.count_nonzero(lens >= n), np.count_nonzero(lens > n)
        level, node = np.unique(node[:k] * (end + 1) + codes[starts[:k] + n - 1], return_inverse=True)
        c = np.full(len(level) + 1, -1, np.int32)
        c[node[longer:]] = cols[longer:k]
        keys.append(np.append(level, _TOP))
        level_cols.append(c)
    return _Trie(tuple(keys), tuple(level_cols), end, tokens)


_Tries = tuple[_Trie | None, _Trie | None]  # the char trie and the word trie; None for a kind the mode leaves out


@dataclass(frozen=True)
class FeatureSpace:
    config: FeatureConfig
    tries: _Tries  # the gram index (module docstring)
    idf: np.ndarray  # aligned to columns
    n_docs: int

    @property
    def n_features(self) -> int:
        return len(self.idf)


def b64(values: object, dtype: str) -> str:
    """Base64 text of the values' bytes as dtype, a little-endian type code such as "<f8"."""
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def from_b64(name: str, text: object, dtype: str) -> np.ndarray:
    """`b64` text as a read-only dtype array; text that is not strict base64 of whole values fails."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not base64 text") from None
    if len(raw) % np.dtype(dtype).itemsize:
        raise ValueError(f"{name} is {len(raw)} bytes, not a whole number of {np.dtype(dtype).name} values")
    return np.frombuffer(raw, dtype)


def dump_index(space: FeatureSpace) -> dict[str, object]:
    """The space's gram index as JSON values, for `load_index`."""
    index: dict[str, object] = {}
    for kind, trie in zip(("char", "word"), space.tries):
        if trie is None:
            continue
        fields: dict[str, object] = {
            "keys": [b64(k, "<i8") for k in trie.keys],
            "cols": [b64(c, "<i4") for c in trie.cols],
            "end": trie.end,
        }
        if trie.tokens is not None:
            fields["tokens"] = list(trie.tokens)
        index[kind] = fields
    return index


def _load_trie(kind: str, obj: object, levels: int, n_grams: int) -> _Trie:
    """A `dump_index` trie, checked to be one `_gram_keys` can read over n_grams columns."""
    if not isinstance(obj, dict):
        raise ValueError(f"index lacks the {kind} trie")
    try:
        keys, cols, end = obj["keys"], obj["cols"], obj["end"]
        tokens = obj["tokens"] if kind == "word" else None
    except KeyError as e:
        raise ValueError(f"{kind} trie lacks {e.args[0]}") from None
    by_token = None
    if tokens is None:
        if type(end) is not int or end != _CHAR_END:
            raise ValueError(f"char trie end is not {_CHAR_END}: {end!r}")
    else:
        if not (isinstance(tokens, list) and set(map(type, tokens)) <= {str}):
            raise ValueError("word trie tokens are not a list of strings")
        by_token = dict(zip(tokens, count()))
        if not (type(end) is int and len(by_token) == len(tokens) == end):
            raise ValueError(f"word trie tokens are not {end!r} distinct strings")
    if not (isinstance(keys, list) and isinstance(cols, list) and len(keys) == len(cols) == levels):
        raise ValueError(f"{kind} trie does not hold {levels} levels of keys and columns")
    key_levels, col_levels = [], []
    prefixes = 1  # the nodes of level n - 1: level 1 extends the empty prefix alone
    for n, (k, c) in enumerate(zip(keys, cols), 1):
        k, c = from_b64(f"{kind} trie keys {n}", k, "<i8"), from_b64(f"{kind} trie cols {n}", c, "<i4")
        if not (len(k) == len(c) > 0 and k[-1] == _TOP and (k[1:] > k[:-1]).all()):
            raise ValueError(f"{kind} trie keys {n} are not strictly increasing up to {_TOP}, one per column")
        if (k[:-1] % (end + 1) == end).any():
            # a window that took in the end code would run into the next text
            raise ValueError(f"{kind} trie keys {n} take in the end code")
        if len(k) > 1 and not (k[0] >= 0 and k[-2] // (end + 1) < prefixes):
            # a node no window can reach
            raise ValueError(f"{kind} trie keys {n} extend a prefix that level {n - 1} lacks")
        prefixes = len(k) - 1
        if not ((c >= -1) & (c < n_grams)).all():
            raise ValueError(f"{kind} trie cols {n} are outside [-1, {n_grams})")
        key_levels.append(k.astype(np.int64, copy=False))
        col_levels.append(c.astype(np.int32, copy=False))
    return _Trie(tuple(key_levels), tuple(col_levels), end, by_token)


def load_index(config: FeatureConfig, index: object, n_grams: int) -> _Tries:
    """A `dump_index` value as the tries of a space of n_grams columns; a malformed index fails.

    Each column must be that of exactly one trie node, so the index
    spells every gram once.
    """
    if not isinstance(index, dict):
        raise ValueError("index is not an object")
    tries = tuple(
        None if config.mode == skip else _load_trie(kind, index.get(kind), hi, n_grams)
        for kind, skip, (_, hi) in (("char", "word", config.char_range), ("word", "char", config.word_range))
    )
    # the sentinel is no node: no window reaches it
    held = np.concatenate([c[:-1][c[:-1] >= 0] for t in tries if t is not None for c in t.cols])
    held = np.bincount(held, minlength=n_grams)
    if not (held == 1).all():
        col = int(np.argmax(held != 1))
        raise ValueError(f"column {col} is held by {held[col]} trie nodes, not 1")
    return tries


def _codes(texts: Sequence[str], code: _Code | None, end: int) -> tuple[np.ndarray, np.ndarray]:
    """The texts' codes back to back, each text followed by end, and where each end is.

    code None codes code points (lone surrogates too), else token t gets code(t, end).
    """
    if code is None:
        codes = np.frombuffer("\0".join([*texts, ""]).encode("utf-32-le", "surrogatepass"), "<u4").astype(np.int64)
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


_Coded = Iterable[tuple[np.ndarray, np.ndarray]]  # `_codes` under each trie a space has


def _code(texts: Sequence[str], space: FeatureSpace) -> _Coded:
    """The texts' codes and ends under each trie the space has, each kind's made only when it is read."""
    return (_codes(texts, None if t.tokens is None else t.tokens.get, t.end) for t in filter(None, space.tries))


def _gram_keys(coded: _Coded, space: FeatureSpace) -> np.ndarray:
    """row * n_columns + column of every in-vocabulary gram of the coded texts, in level order.

    That is char before word, then n ascending, then position, so each
    row's hits come in that row's gram order.
    """
    v = len(space.idf)
    keys = [np.zeros(0, np.int64)]
    for trie, (codes, ends) in zip(filter(None, space.tries), coded):
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


def _counts(n: int, coded: _Coded, space: FeatureSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n coded texts' in-vocabulary gram counts as CSR (indptr, cols, tfs), each row in first-appearance order."""
    v = len(space.idf)
    hits = _gram_keys(coded, space)
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
    indptr, cols, tfs = _counts(len(texts), _code(texts, space), space)
    return indptr, cols, tfidf_l2(indptr, cols, tfs, space.idf)


def _distinct_windows(codes: np.ndarray, end: int, lo: int, hi: int) -> np.ndarray:
    """Each distinct window of lo..hi codes that takes in no end: one row of its codes, padded with -1 to hi."""
    pos = np.flatnonzero(codes != end)
    key = codes[pos]
    windows = []
    for n in range(1, hi + 1):
        level, node = np.unique(key, return_inverse=True)
        if n >= lo:
            starts = np.empty(len(level), np.int64)
            starts[node] = pos  # any position of a window serves
            windows.append(np.pad(codes[starts[:, None] + np.arange(n)], ((0, 0), (0, hi - n)), constant_values=-1))
        nxt = codes[pos + n]
        alive = nxt != end
        pos, key = pos[alive], node[alive] * (end + 1) + nxt[alive]
    return np.concatenate(windows)


def _fit_space(texts: Sequence[str], config: FeatureConfig) -> tuple[FeatureSpace, list]:
    """The space of the texts' grams, columns in c:/w: string order and idf unset, and the texts' `_code` under it."""
    char = word = None
    coded = []
    v = 0
    if config.mode != "word":
        codes, ends = _codes(texts, None, _CHAR_END)
        grams = _distinct_windows(codes, _CHAR_END, *config.char_range)
        grams = grams[np.lexsort(grams.T[::-1])]
        v, hi = grams.shape
        lens = np.count_nonzero(grams >= 0, axis=1)
        char = _trie(grams.ravel(), np.arange(v) * hi, lens, np.arange(v), _CHAR_END, hi, None)
        coded.append((codes, ends))
    if config.mode != "char":
        first_seen: dict[str, int] = {}  # token -> code, in first-appearance order over the texts
        codes, ends = _codes(texts, lambda t, _: first_seen.setdefault(t, len(first_seen)), 0)
        codes[ends] = end = len(first_seen)
        names = list(first_seen)
        # each token's rank among the token strings; rank[-1], the padding's, is -1
        rank = np.full(end + 1, -1, np.int64)
        rank[sorted(range(end), key=names.__getitem__)] = np.arange(end)
        grams = _distinct_windows(codes, end, *config.word_range)
        grams = grams[np.lexsort(rank[grams].T[::-1])]
        d, hi = grams.shape
        lens = np.count_nonzero(grams >= 0, axis=1)
        # trie codes by first appearance over the grams in column order; other tokens and end become the new end
        held, first = np.unique(grams[grams >= 0], return_index=True)
        held = held[np.argsort(first)]
        recode = np.full(end + 1, len(held), np.int64)
        recode[held] = np.arange(len(held))
        tokens = dict(zip([names[t] for t in held.tolist()], count()))
        word = _trie(recode[grams].ravel(), np.arange(d) * hi, lens, np.arange(v, v + d), len(held), hi, tokens)
        coded.append((recode[codes], ends))
        v += d
    return FeatureSpace(config, (char, word), np.empty(v), len(texts)), coded


def _rows(coded: _Coded, a: int, b: int) -> _Coded:
    """Rows a..b - 1 of the coded texts, or a to the last: each kind's codes sliced, its ends counted from the slice."""
    for codes, ends in coded:
        lo = ends[a - 1] + 1 if a else 0
        ends = ends[a:b] - lo
        yield codes[lo : lo + ends[-1] + 1], ends


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
    space, coded = _fit_space(texts, config)
    n, v, idf = len(texts), space.n_features, space.idf  # idf is filled once df is known; counting reads its length
    blocks = [_counts(min(BLOCK_ROWS, n - a), _rows(coded, a, a + BLOCK_ROWS), space) for a in range(0, n, BLOCK_ROWS)]
    del coded
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
