"""The text layer before its compiled passes, kept verbatim as a differential oracle.

The emoji segmenter walked the text one character at a time and asked
range predicates (a bisect over `EXTENDED_PICTOGRAPHIC`) about each
code point. `_normalize_once` applies the one fixed rule set step by
step: it builds its translate table on every call, strips diacritics
with a separate regex and squashes runs through a lambda.
`tokenize` segmented the clusters, then took one ``\\w+`` findall
per gap between them. `emoji.cluster_spans`, `emoji.base_form`,
`textnorm.normalize` and `textnorm.tokenize` must give the same result
on every string.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from anchorlex import emoji_ranges as er

# --- emoji range predicates ------------------------------------------------

_STARTS = tuple(lo for lo, _ in er.EXTENDED_PICTOGRAPHIC)
_ENDS = tuple(hi for _, hi in er.EXTENDED_PICTOGRAPHIC)


def is_pictographic(cp: int) -> bool:
    i = bisect_right(_STARTS, cp) - 1
    return i >= 0 and cp <= _ENDS[i]


def is_skin_tone(cp: int) -> bool:
    return er.SKIN_TONE_LO <= cp <= er.SKIN_TONE_HI


def is_regional_indicator(cp: int) -> bool:
    return er.RI_LO <= cp <= er.RI_HI


def is_tag(cp: int) -> bool:
    return er.TAG_LO <= cp <= er.TAG_HI


def is_variation_selector(cp: int) -> bool:
    return cp in (er.VS15, er.VS16)


# --- segmentation ----------------------------------------------------------


def _absorb_extensions(text: str, j: int) -> int:
    """Consume variation selectors, skin tones, and tag characters."""
    n = len(text)
    while j < n:
        cp = ord(text[j])
        if is_variation_selector(cp) or is_skin_tone(cp) or is_tag(cp):
            j += 1
        else:
            break
    return j


def cluster_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) character spans of every emoji cluster, left to right."""
    spans: list[tuple[int, int]] = []
    i, n = 0, len(text)
    while i < n:
        cp = ord(text[i])
        if is_regional_indicator(cp):
            if i + 1 < n and is_regional_indicator(ord(text[i + 1])):
                spans.append((i, i + 2))
                i += 2
            else:
                spans.append((i, i + 1))
                i += 1
            continue
        if cp in er.KEYCAP_BASES:
            j = i + 1
            if j < n and ord(text[j]) == er.VS16:
                j += 1
            if j < n and ord(text[j]) == er.KEYCAP_MARK:
                spans.append((i, j + 1))
                i = j + 1
                continue
            i += 1
            continue
        if is_pictographic(cp) or is_skin_tone(cp):
            j = _absorb_extensions(text, i + 1)
            # ZWJ joins further pictographic elements into the same cluster
            while (
                j + 1 < n
                and ord(text[j]) == er.ZWJ
                and is_pictographic(ord(text[j + 1]))
            ):
                j = _absorb_extensions(text, j + 2)
            spans.append((i, j))
            i = j
            continue
        i += 1
    return spans


def base_form(display: str) -> str:
    """Strip skin tones and variation selectors; keep ZWJ, tags, keycaps."""
    stripped = "".join(
        c
        for c in display
        if not (is_skin_tone(ord(c)) or is_variation_selector(ord(c)))
    )
    # a lone tone modifier would strip to nothing; keep it addressable
    return stripped or display


# --- normalization ---------------------------------------------------------

# alef variants, taa marbuta, alef maksura
_CHAR_MAP = {
    "آ": "ا",  # آ -> ا
    "أ": "ا",  # أ -> ا
    "إ": "ا",  # إ -> ا
    "ة": "ه",  # ة -> ه
    "ى": "ي",  # ى -> ي
}

# tashkeel + superscript alef + tatweel
_DIACRITICS_RE = re.compile("[ً-ْٰـ]")

_URL_RE = re.compile(r"(?:https?://\S+|\bwww\.\S+)")
_MENTION_RE = re.compile(r"(?<![\w@])@\w+")


def _normalize_once(s: str) -> str:
    s = s.replace("\r\n", " ").replace("\n", " ").replace("\r", " ")
    s = _URL_RE.sub("URL", s)
    s = _MENTION_RE.sub("@USER", s)
    s = s.translate(str.maketrans(_CHAR_MAP))
    s = _DIACRITICS_RE.sub("", s)
    s = re.sub(r"(.)\1{2,}", lambda m: m.group(1) * 2, s, flags=re.DOTALL)
    return s


def normalize(text: str) -> str:
    s = text
    for _ in range(8):
        nxt = _normalize_once(s)
        if nxt == s:
            return s
        s = nxt
    return s


# --- tokenization ----------------------------------------------------------

_WORD_RE = re.compile(r"\w+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Split on whitespace/punctuation; every emoji cluster is its own token."""
    tokens: list[str] = []
    pos = 0
    for a, b in cluster_spans(text):
        tokens.extend(_WORD_RE.findall(text[pos:a]))
        tokens.append(text[a:b])
        pos = b
    tokens.extend(_WORD_RE.findall(text[pos:]))
    return tokens
