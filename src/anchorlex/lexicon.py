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


@dataclass(frozen=True)
class TermCounts:
    n_off: Mapping[str, int]
    n_cln: Mapping[str, int]
    total_off: int
    total_cln: int

    def freq(self, term: str) -> int:
        return self.n_off.get(term, 0) + self.n_cln.get(term, 0)

    @property
    def terms(self) -> set[str]:
        return set(self.n_off) | set(self.n_cln)

    @classmethod
    def from_texts(cls, off_texts: Iterable[str], cln_texts: Iterable[str]) -> "TermCounts":
        n_off: Counter = Counter()
        n_cln: Counter = Counter()
        for t in off_texts:
            n_off.update(tokenize(normalize(t)))
        for t in cln_texts:
            n_cln.update(tokenize(normalize(t)))
        return cls(
            n_off=dict(n_off),
            n_cln=dict(n_cln),
            total_off=sum(n_off.values()),
            total_cln=sum(n_cln.values()),
        )


def valence(term: str, counts: TermCounts) -> float:
    """Signed offensive-association score in [-1, 1]."""
    if counts.total_off <= 0 or counts.total_cln <= 0:
        raise ValueError("both partitions must contain tokens")
    n_off = counts.n_off.get(term, 0)
    n_cln = counts.n_cln.get(term, 0)
    if n_off + n_cln == 0:
        raise ValueError(f"term {term!r} unseen in both partitions")
    r_off = n_off / counts.total_off
    r_cln = n_cln / counts.total_cln
    return 2.0 * (r_off / (r_off + r_cln)) - 1.0


@dataclass(frozen=True)
class LexiconEntry:
    term: str
    n_off: int
    n_cln: int
    valence: float


def mine_from_counts(
    counts: TermCounts, min_valence: float = 0.8, min_freq: int = 5
) -> list[LexiconEntry]:
    """Terms with freq >= min_freq and valence >= min_valence.

    Sorted most charged first: valence desc, combined frequency desc,
    then term for a total deterministic order.
    """
    entries = []
    for term in counts.terms:
        freq = counts.freq(term)
        if freq < min_freq:
            continue
        v = valence(term, counts)
        if v >= min_valence:
            entries.append(
                LexiconEntry(
                    term=term,
                    n_off=counts.n_off.get(term, 0),
                    n_cln=counts.n_cln.get(term, 0),
                    valence=v,
                )
            )
    entries.sort(key=lambda e: (-e.valence, -(e.n_off + e.n_cln), e.term))
    return entries


def _partition(
    docs: Iterable[Document],
    labels: Mapping[str, LabelRecord],
    positive_class: str,
) -> tuple[list[str], list[str]]:
    pos_texts: list[str] = []
    neg_texts: list[str] = []
    for d in docs:
        rec = labels.get(d.id)
        if rec is None:
            raise ValueError(f"document {d.id!r} has no label record")
        (pos_texts if rec.has(positive_class) else neg_texts).append(d.text)
    return pos_texts, neg_texts


def mine_class_lexicon(
    docs: Iterable[Document],
    labels: Mapping[str, LabelRecord],
    positive_class: str,
    min_valence: float = 0.8,
    min_freq: int = 5,
) -> list[LexiconEntry]:
    """High-valence terms of one label class's partition, most charged first."""
    if positive_class not in LABEL_CLASSES:
        raise ValueError(f"unknown class {positive_class!r}")
    pos, neg = _partition(docs, labels, positive_class)
    if not pos or not neg:
        raise ValueError(
            f"class {positive_class!r}: both partitions must be non-empty "
            f"(positive={len(pos)}, negative={len(neg)})"
        )
    counts = TermCounts.from_texts(pos, neg)
    if counts.total_off <= 0 or counts.total_cln <= 0:
        raise ValueError("both partitions must contain tokens")
    return mine_from_counts(counts, min_valence, min_freq)


def dump_lexicon(entries: Iterable[LexiconEntry]) -> str:
    lines = ["term\tn_off\tn_cln\tvalence"]
    lines.extend(
        f"{e.term}\t{e.n_off}\t{e.n_cln}\t{e.valence:.6f}" for e in entries
    )
    return "\n".join(lines) + "\n"
