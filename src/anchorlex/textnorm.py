"""Arabic-aware text normalization, tokenization, n-grams, deduplication.

Every stage normalizes by one fixed rule set (see ``normalize``): line
breaks become spaces, URLs become ``URL``, @mentions become ``@USER``,
alef variants fold to bare alef, taa marbuta to haa, alef maksura to
yaa, tashkeel, superscript alef and tatweel are deleted, and any run of
three or more equal characters is cut to two, most texts in one pass.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .corpus import Document
from .emoji import CLUSTER_PATTERN
from .util import dump_tsv

_STRIP_RE = re.compile("[\u064B-\u0652\u0670\u0640]+")  # tashkeel, superscript alef, tatweel
_SQUASH_RE = re.compile(r"(.)\1{2,}")
_URL_RE = re.compile(r"(?:https?://\S+|\bwww\.\S+)")
_MENTION_RE = re.compile(r"(?<![\w@])@\w+")
_TOKEN_RE = re.compile(r"(?:[^\W0-9\u2139]|[0-9](?!\ufe0f?\u20e3))+|" + CLUSTER_PATTERN)
_TOKEN_SPLIT_RE = re.compile(f"({_TOKEN_RE.pattern})")


def _two(m: re.Match) -> str:
    return m[1] * 2


def _once(s: str) -> str:
    s = s.replace("\r\n", " ").replace("\n", " ").replace("\r", " ")
    if "://" in s or "www." in s:  # each sub runs only if a substring its pattern needs is there
        s = _URL_RE.sub("URL", s)
    if "@" in s:
        s = _MENTION_RE.sub("@USER", s)
    # آ أ إ -> ا, ة -> ه, ى -> ي; str.translate would cost a dict lookup per character of non-Latin-1 text
    s = s.replace("آ", "ا").replace("أ", "ا").replace("إ", "ا").replace("ة", "ه").replace("ى", "ي")
    # a callable beats the template r"\1\1", which Python 3.11 expands in Python per match
    return _SQUASH_RE.sub(_two, _STRIP_RE.sub("", s))


def _settled(s: str) -> bool:
    """True only if ``_once(s) == s``, for any ``s`` that ``_once`` returned (see ``normalize``)."""
    url = ("://" in s or "www." in s) and _URL_RE.search(s)
    return not url and ("@" not in s or all(m == "@USER" for m in _MENTION_RE.findall(s)))


def normalize(text: str) -> str:
    """Canonicalize one text. Idempotent: normalize(normalize(x)) == normalize(x).

    One pass, in order: CR/LF/CRLF -> space; http(s)://... and www....
    -> ``URL``; @mention -> ``@USER``; آ أ إ -> ا, ة -> ه, ى -> ي;
    tashkeel (U+064B..U+0652), superscript alef and tatweel deleted;
    runs of 3+ equal characters cut to 2.

    The pass is applied to a fixpoint, since one step can expose work
    for another (a stripped tatweel can uncover a @mention). A pass
    leaves no CR, LF, fold, tashkeel or tatweel character and no run of
    3+ (squashing only deletes, and each greedy match is a maximal run),
    so its output is a fixpoint when ``_URL_RE`` finds nothing in it and
    every ``_MENTION_RE`` match is exactly ``@USER``. A substring test is
    not enough: ``@ab`` + U+064E + ``cd`` is ``@USERcd`` after one pass.
    The bound of 8 passes guards against adversarial input.
    """
    s = text
    for _ in range(8):
        nxt = _once(s)
        if nxt == s or _settled(nxt):
            return nxt
        s = nxt
    return s


def tokenize(text: str) -> list[str]:
    r"""Split on whitespace/punctuation; every emoji cluster is its own token.

    One scan takes a word (\w run) or a cluster (`emoji.CLUSTER_PATTERN`)
    at each position. A word stops before any character that can start a
    cluster, so the tokens are those of segmenting clusters first and
    splitting the gaps into \w runs. Only two such characters are \w,
    and the word pattern leaves them out: U+2139, the one pictograph in
    \w, and an ASCII digit before U+20E3 (VS16 or not between), a keycap
    base: ``12`` + U+20E3 is ``1`` and ``2`` + U+20E3.
    """
    return _TOKEN_RE.findall(text)


def split_tokens(text: str) -> list[str]:
    """The text cut at its tokens: gap, token, gap, ..., token, gap.

    The odd items are ``tokenize(text)`` and the items join back to the
    text; a gap is empty where two tokens touch.
    """
    return _TOKEN_SPLIT_RE.split(text)


def word_ngrams(tokens: Sequence[str], n_min: int, n_max: int) -> Counter:
    """Multiset of contiguous word n-grams joined with single spaces, keys in first-appearance order."""
    if not (1 <= n_min <= n_max):
        raise ValueError(f"bad n-gram range ({n_min}, {n_max})")
    return Counter(" ".join(tokens[i : i + n]) for n in range(n_min, n_max + 1) for i in range(len(tokens) - n + 1))


def char_ngrams(text: str, n_min: int, n_max: int) -> Counter:
    """Multiset of contiguous character n-grams, spaces included, keys in first-appearance order."""
    if not (1 <= n_min <= n_max):
        raise ValueError(f"bad n-gram range ({n_min}, {n_max})")
    return Counter(text[i : i + n] for n in range(n_min, n_max + 1) for i in range(len(text) - n + 1))


# --- deduplication ------------------------------------------------------


# dedup's one rule: a doc of fewer than MIN_TOKENS words (placeholders
# aside) is short; one whose word SHINGLE_SIZE-grams have Jaccard index
# >= JACCARD_THRESHOLD with a kept doc's is a near duplicate. The
# threshold is the ratio _T_NUM/_T_DEN, from which dedup's filters take
# their bounds in integers.
MIN_TOKENS = 3
SHINGLE_SIZE = 2
_T_NUM, _T_DEN = 4, 5
JACCARD_THRESHOLD = _T_NUM / _T_DEN


@dataclass(frozen=True)
class DropRecord:
    doc_id: str
    reason: str  # short | exact | near
    duplicate_of: str | None = None


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


def _shingles(tokens: Sequence[str], size: int) -> frozenset[tuple[str, ...]]:
    return frozenset(zip(*[tokens[i:] for i in range(size)]))


# the tokens the URL and @USER placeholders split into
_PLACEHOLDERS = frozenset(tokenize("@USER URL"))


def dedup(docs: Iterable[Document]) -> tuple[list[Document], list[DropRecord]]:
    """Sequential first-wins dedup, as an exact set-similarity join.

    Per doc, checks run in the order short -> exact -> near, so a
    too-short doc never anchors near-duplicate drops. Tokens counted
    toward MIN_TOKENS exclude mention/URL placeholders. Near means
    Jaccard over word shingles against any *kept* doc >= JACCARD_THRESHOLD,
    and the drop names the earliest such kept doc. MIN_TOKENS >=
    SHINGLE_SIZE, so no doc past the short check has an empty shingle set.

    Pass 1 normalizes and tokenizes every doc, builds its shingle set
    and counts each shingle's document frequency. Pass 2 writes each set
    in one global order, rarest first (``(df, shingle)``), so that the
    prefixes it indexes and probes with hold the rarest shingles and
    meet few other docs.

    Why no pair at or over the threshold t is missed: J(x, y) >= t
    implies t*|x| <= |y| <= |x|/t (the size filter of AllPairs, Bayardo,
    Ma & Srikant, WWW 2007), and the two share at least o(|x|) and o(|y|)
    shingles, where o(n) = ceil(t*n). In the global order, x's k-th
    shared shingle is preceded in x by k - 1 shared ones and at most
    |x| - o(|x|) that y lacks, so it lies in x's prefix of length
    |x| - o(|x|) + k, and likewise in y's (AllPairs' prefix filter for
    k = 1; for k > 1 the l-prefix scheme of Wang, Li & Feng, SIGMOD 2012).
    With k = 2, or 1 for a one-shingle set (o = 1; only an equal set can
    match it), each kept doc indexes that prefix, and a doc's candidates
    are the kept docs that meet its own prefix at least k times and lie
    inside its size bounds. Candidates are verified with ``jaccard`` in
    ascending kept index, so the result is that of the brute-force scan
    over every kept doc.

    The bounds are integer expressions in the ratio _T_NUM/_T_DEN, exact
    for every set size. The float test agrees with that ratio: a quotient
    of set sizes below it differs from it by far more than a rounding.
    """
    docs = list(docs)
    norms = [normalize(doc.text) for doc in docs]
    sets: list[frozenset | None] = []  # None for a short doc
    for norm in norms:
        toks = [t for t in tokenize(norm) if t not in _PLACEHOLDERS]
        sets.append(_shingles(toks, SHINGLE_SIZE) if len(toks) >= MIN_TOKENS else None)
    df = Counter(chain.from_iterable(filter(None, sets)))
    # a stable sort by df of the sorted shingles: the (df, shingle) order
    rank = {g: i for i, g in enumerate(sorted(sorted(df), key=df.__getitem__))}

    kept: list[Document] = []
    dropped: list[DropRecord] = []
    exact_seen: dict[str, str] = {}
    kept_shingles: list[frozenset] = []
    by_rank: dict[int, list[int]] = {}  # shingle rank -> kept docs whose prefix holds it
    for doc, norm, sh in zip(docs, norms, sets):
        if sh is None:
            dropped.append(DropRecord(doc.id, "short"))
            continue
        if norm in exact_seen:
            dropped.append(DropRecord(doc.id, "exact", exact_seen[norm]))
            continue
        ordered = sorted(map(rank.__getitem__, sh))
        n = len(ordered)
        least = -(-n * _T_NUM // _T_DEN)  # o(n) = ceil(t*n), also the least candidate size
        most = n * _T_DEN // _T_NUM  # floor(n/t), the largest candidate size
        k = min(2, least)
        prefix = ordered[: n - least + k]
        once: set[int] = set()  # kept docs the prefix meets, and those it meets twice
        twice: set[int] = set()
        for g in prefix:
            posting = by_rank.get(g)
            if posting:
                if once:
                    twice.update(once.intersection(posting))
                once.update(posting)
        hit: str | None = None
        for idx in sorted(twice if k == 2 else once):
            other = kept_shingles[idx]
            if least <= len(other) <= most and jaccard(sh, other) >= JACCARD_THRESHOLD:
                hit = kept[idx].id
                break
        if hit is not None:
            dropped.append(DropRecord(doc.id, "near", hit))
            continue
        exact_seen[norm] = doc.id
        for g in prefix:
            by_rank.setdefault(g, []).append(len(kept))
        kept_shingles.append(sh)
        kept.append(doc)
    return kept, dropped


def dump_drops(drops: Iterable[DropRecord]) -> str:
    rows = ((d.doc_id, d.reason, d.duplicate_of or "") for d in drops)
    return dump_tsv(["doc_id", "reason", "duplicate_of"], rows)
