"""Emoji cluster segmentation, seed inventories, and per-emoji corpus stats.

A cluster is one user-perceived emoji, an emoji sequence in the sense
of UTS #51. `cluster_spans` finds them with one compiled pattern that,
at each position, tries in this order:

    flag    := RI RI?
    keycap  := [0-9#*] VS16? U+20E3
    emoji   := (P | T) X* (ZWJ P X*)*

RI is a regional indicator (a lone one is a cluster of its own), P an
Extended_Pictographic scalar, T a skin-tone modifier, X an extender
(VS15, VS16, a skin tone or a tag character) and ZWJ U+200D. A
character that starts none of these is skipped. The alternatives never
compete for one character because P is disjoint from RI, T, X, ZWJ and
the keycap bases. A ZWJ not followed by a pictograph ends the cluster
before it.

The *base form* is the cluster with skin tones and variation selectors
stripped, so all tone/presentation variants of one emoji collapse to a
single key.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Sequence

from . import emoji_ranges as er
from .corpus import Document, LabelRecord
from .util import dump_tsv, read_table

SEED_CATEGORIES = frozenset(
    {
        "animal_dehumanization",
        "anger_disgust_face",
        "disrespect_symbol",
        "violence_symbol",
        "adult",
        "other",
    }
)


# --- segmentation -------------------------------------------------------


def _cp(c: int) -> str:
    return f"\\U{c:08x}"


def _cls(*ranges: tuple[int, int]) -> str:
    """A regex character class over inclusive code point ranges."""
    return "[" + "".join(f"{_cp(lo)}-{_cp(hi)}" for lo, hi in ranges) + "]"


_TONE = (er.SKIN_TONE_LO, er.SKIN_TONE_HI)
_PICT = _cls(*er.EXTENDED_PICTOGRAPHIC)
_EXT = _cls((er.VS15, er.VS16), _TONE, (er.TAG_LO, er.TAG_HI))
# flag | keycap | emoji, as in the module docstring; textnorm's tokenizer reuses it
CLUSTER_PATTERN = (
    f"{_cls((er.RI_LO, er.RI_HI))}{{1,2}}"
    f"|{_cls(*((c, c) for c in sorted(er.KEYCAP_BASES)))}{_cp(er.VS16)}?{_cp(er.KEYCAP_MARK)}"
    f"|{_cls(*er.EXTENDED_PICTOGRAPHIC, _TONE)}{_EXT}*(?:{_cp(er.ZWJ)}{_PICT}{_EXT}*)*"
)
_CLUSTER_RE = re.compile(CLUSTER_PATTERN)

# skin tones and variation selectors, deleted by str.translate
_STRIP = dict.fromkeys((er.VS15, er.VS16, *range(er.SKIN_TONE_LO, er.SKIN_TONE_HI + 1)))


def cluster_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) character spans of every emoji cluster, left to right."""
    return [m.span() for m in _CLUSTER_RE.finditer(text)]


def base_form(display: str) -> str:
    """Strip skin tones and variation selectors; keep ZWJ, tags, keycaps."""
    # a lone tone modifier would strip to nothing; keep it addressable
    return display.translate(_STRIP) or display


def doc_bases(text: str) -> set[str]:
    return {base_form(text[a:b]) for a, b in cluster_spans(text)}


# --- seed inventory -----------------------------------------------------


def codepoints_hex(s: str) -> str:
    return " ".join(f"{ord(c):04X}" for c in s)


def parse_codepoints(field: str) -> str:
    try:
        return "".join(chr(int(part, 16)) for part in field.split())
    except (ValueError, OverflowError):
        raise ValueError(f"bad codepoint field {field!r}") from None


def load_seed_inventory(path: str) -> dict[str, str]:
    """Seed TSV as {base form: category}: hex codepoints, category, then an optional
    comment column that is not read; '#' lines are comments."""
    inventory: dict[str, str] = {}
    for lineno, cols in read_table(path):
        where = f"{path}: line {lineno}"
        if len(cols) < 2:
            raise ValueError(f"{where}: expected codepoints<TAB>category")
        try:
            display = parse_codepoints(cols[0])
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        if not display:
            raise ValueError(f"{where}: empty codepoint field")
        base, category = base_form(display), cols[1].strip()
        if category not in SEED_CATEGORIES:
            raise ValueError(f"{where}: unknown seed category {category!r}")
        if base in inventory:
            raise ValueError(f"{where}: duplicate seed base {codepoints_hex(base)}")
        inventory[base] = category
    if not inventory:
        raise ValueError(f"{path}: seed inventory is empty")
    return inventory


def default_inventory() -> dict[str, str]:
    ref = resources.files("anchorlex.data").joinpath("seed_emojis.tsv")
    with resources.as_file(ref) as p:
        return load_seed_inventory(str(p))


# --- filtering, stats, sampling -----------------------------------------


def filter_by_seeds(docs: Iterable[Document], inventory: Mapping[str, str]) -> list[Document]:
    """Documents whose emoji base forms intersect the inventory's, stable order."""
    bases = inventory.keys()
    # every cluster whose base is b contains b[0], so a text holding no
    # base's first codepoint needs no segmentation
    firsts = sorted({ord(b[0]) for b in bases})
    if not firsts:
        return []
    screen = re.compile(_cls(*((c, c) for c in firsts))).search
    return [d for d in docs if screen(d.text) and doc_bases(d.text) & bases]


@dataclass(frozen=True)
class EmojiStat:
    base: str
    category: str
    n_total: int
    n_offensive: int
    offensive_pct: float
    n_hate: int
    hate_pct: float


def emoji_stats(
    docs: Iterable[Document],
    labels: Mapping[str, LabelRecord],
    inventory: Mapping[str, str],
) -> list[EmojiStat]:
    """Per seed base form of the inventory: document counts and offensive/hate rates.

    Counted per document (a base appearing three times in one doc counts
    once). Every doc that carries a seed base must be labeled; a doc
    whose emoji are all non-seed adds nothing and needs no label.
    """
    totals: dict[str, int] = {}
    off: dict[str, int] = {}
    hate: dict[str, int] = {}
    for d in docs:
        bases = doc_bases(d.text) & inventory.keys()
        if not bases:
            continue
        rec = labels.get(d.id)
        if rec is None:
            raise ValueError(f"document {d.id!r} has no label record")
        for b in bases:
            totals[b] = totals.get(b, 0) + 1
            if rec.offensive:
                off[b] = off.get(b, 0) + 1
            if rec.is_hate:
                hate[b] = hate.get(b, 0) + 1
    stats = [
        EmojiStat(
            base=b,
            category=inventory[b],
            n_total=n,
            n_offensive=off.get(b, 0),
            offensive_pct=100.0 * off.get(b, 0) / n,
            n_hate=hate.get(b, 0),
            hate_pct=100.0 * hate.get(b, 0) / n,
        )
        for b, n in totals.items()
    ]
    stats.sort(key=lambda s: (-s.offensive_pct, s.base))
    return stats


def dump_emoji_stats(stats: Iterable[EmojiStat]) -> str:
    rows = (
        (codepoints_hex(s.base), s.category, str(s.n_total), str(s.n_offensive),
         f"{s.offensive_pct:.2f}", str(s.n_hate), f"{s.hate_pct:.2f}")
        for s in stats
    )
    return dump_tsv(["base", "category", "n_total", "n_offensive", "offensive_pct", "n_hate", "hate_pct"], rows)


def sample_per_emoji(
    docs: Sequence[Document],
    inventory: Mapping[str, str],
    k: int,
    seed: int = 0,
) -> dict[str, list[Document]]:
    """Up to k distinct docs per inventory base, deterministic in seed.

    Each base draws independently (string-seeded RNG keyed by base), so
    adding inventory entries never reshuffles existing draws.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    per_base: dict[str, list[Document]] = {b: [] for b in sorted(inventory)}
    for d in docs:
        for b in doc_bases(d.text) & inventory.keys():
            per_base[b].append(d)
    out: dict[str, list[Document]] = {}
    for b, candidates in per_base.items():
        rng = random.Random(f"{seed}:{codepoints_hex(b)}")
        take = min(k, len(candidates))
        out[b] = rng.sample(candidates, take)
    return out
