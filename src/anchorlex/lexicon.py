"""Valence-scored lexicon mining over a labeled two-partition corpus.

The valence of a term contrasts its relative frequency in the offensive
partition with its relative frequency in the clean partition:

    V(t) = 2 * (r_off / (r_off + r_cln)) - 1,   r_p = count(t in p) / tokens(p)

so V = +1 for terms seen only with offensive docs, -1 only with clean,
0 for balanced use. Counts are token occurrences, not document hits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import LABEL_CLASSES, Document, LabelRecord
from .textnorm import normalize, tokenize
from .util import dump_tsv


def valence(n_off: int, n_cln: int, total_off: int, total_cln: int) -> float:
    """Signed offensive-association score in [-1, 1] of a term seen n_off times
    among total_off offensive tokens and n_cln times among total_cln clean ones."""
    r_off = n_off / total_off
    r_cln = n_cln / total_cln
    return 2.0 * (r_off / (r_off + r_cln)) - 1.0


@dataclass(frozen=True)
class LexiconEntry:
    term: str
    n_off: int
    n_cln: int
    valence: float


def mine_class_lexicon(
    docs: Iterable[Document],
    labels: Mapping[str, LabelRecord],
    positive_class: str,
    min_valence: float = 0.8,
    min_freq: int = 5,
) -> list[LexiconEntry]:
    """Terms of one label class's partition with freq >= min_freq over both
    partitions and valence >= min_valence.

    Sorted most charged first: valence desc, combined frequency desc,
    then term for a total deterministic order.
    """
    if positive_class not in LABEL_CLASSES:
        raise ValueError(f"unknown class {positive_class!r}")
    n_off: Counter = Counter()
    n_cln: Counter = Counter()
    n_docs = [0, 0]  # negative, positive
    for d in docs:
        rec = labels.get(d.id)
        if rec is None:
            raise ValueError(f"document {d.id!r} has no label record")
        positive = rec.has(positive_class)
        n_docs[positive] += 1
        (n_off if positive else n_cln).update(tokenize(normalize(d.text)))
    if not all(n_docs):
        raise ValueError(
            f"class {positive_class!r}: both partitions must be non-empty "
            f"(positive={n_docs[1]}, negative={n_docs[0]})"
        )
    total_off, total_cln = sum(n_off.values()), sum(n_cln.values())
    if total_off <= 0 or total_cln <= 0:
        raise ValueError("both partitions must contain tokens")
    entries = []
    for term in n_off.keys() | n_cln.keys():
        a, b = n_off[term], n_cln[term]
        if a + b >= min_freq and (v := valence(a, b, total_off, total_cln)) >= min_valence:
            entries.append(LexiconEntry(term, a, b, v))
    entries.sort(key=lambda e: (-e.valence, -(e.n_off + e.n_cln), e.term))
    return entries


def dump_lexicon(entries: Iterable[LexiconEntry]) -> str:
    rows = ((e.term, str(e.n_off), str(e.n_cln), f"{e.valence:.6f}") for e in entries)
    return dump_tsv(["term", "n_off", "n_cln", "valence"], rows)
