"""Annotator gating, vote aggregation, agreement, adjudication queues.

Jobs are independent labeling passes ("offensive", "hate", "vulgar",
"violence"); each (doc, job) pair collects one judgment per annotator.
Quality control: hidden test items with known answers gate annotators at
an accuracy threshold; agreement is Cohen's kappa averaged over
annotator pairs with enough shared items.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .corpus import HATE_TARGETS, LABEL_CLASSES, LabelRecord, canonical_timestamp
from .util import atomic_write_text, dump_tsv, read_tsv


@dataclass(slots=True)
class Judgment:
    doc_id: str
    annotator_id: str
    job: str
    label: str
    timestamp: str | None = None  # canonical UTC, see corpus.canonical_timestamp

    def __post_init__(self) -> None:
        if not self.doc_id or not self.annotator_id:
            raise ValueError("doc_id and annotator_id must be non-empty")
        if not self.label:
            raise ValueError(f"{self.doc_id}/{self.job}: empty label")


_JUDGMENT_HEADER = ["doc_id", "annotator_id", "job", "label", "timestamp"]


def load_judgments(path: str) -> list[Judgment]:
    """Check each distinct timestamp once; a repeated (doc, annotator, job) is an error."""
    out: list[Judgment] = []
    stamps: dict[str, str | None] = {"": None}
    for lineno, (doc_id, annotator_id, job, label, ts) in read_tsv(path, _JUDGMENT_HEADER, 3):
        try:
            if ts not in stamps:
                stamps[ts] = canonical_timestamp(ts)
            out.append(Judgment(doc_id, annotator_id, job, label, stamps[ts]))
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out


def dump_judgments(judgments: Iterable[Judgment]) -> str:
    rows = ((j.doc_id, j.annotator_id, j.job, j.label, j.timestamp or "") for j in judgments)
    return dump_tsv(_JUDGMENT_HEADER, rows)


def write_judgments(path: str, judgments: Iterable[Judgment]) -> None:
    atomic_write_text(path, dump_judgments(judgments))


# --- gating --------------------------------------------------------------


@dataclass(frozen=True)
class GateResult:
    annotator_id: str
    n_test: int
    n_correct: int
    accuracy: float
    passed: bool


def gate_all(
    judgments: Sequence[Judgment], answers: Mapping[str, str], threshold: float
) -> list[GateResult]:
    """Gate every annotator with an offensive-job judgment on a test item (doc_id ->
    expected label in answers), in one scan; pass is accuracy >= threshold on those items."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    tally: dict[str, list[int]] = {}  # annotator -> [n_test, n_correct]
    for j in judgments:
        if j.job == "offensive" and j.doc_id in answers:
            t = tally.setdefault(j.annotator_id, [0, 0])
            t[0] += 1
            t[1] += j.label == answers[j.doc_id]
    return [
        GateResult(a, n, k, k / n, k / n >= threshold)
        for a, (n, k) in sorted(tally.items())
    ]


def load_gate_answers(path: str) -> dict[str, str]:
    out = {doc_id: label for _, (doc_id, label) in read_tsv(path, ["doc_id", "label"], 1)}
    if not out:
        raise ValueError(f"{path}: gate needs at least one test answer")
    return out


def dump_gate_results(results: Iterable[GateResult]) -> str:
    rows = (
        (r.annotator_id, str(r.n_test), str(r.n_correct), f"{r.accuracy:.6f}", "1" if r.passed else "0")
        for r in results
    )
    return dump_tsv(["annotator_id", "n_test", "n_correct", "accuracy", "passed"], rows)


# --- aggregation ---------------------------------------------------------


@dataclass(frozen=True)
class AggregatedLabel:
    doc_id: str
    job: str
    label: str
    agreement: str  # full | majority | tie


def majority_vote(judgments: Sequence[Judgment]) -> list[AggregatedLabel]:
    """Modal label per (doc, job), in first-appearance order.

    agreement: "full" when unanimous, "majority" for a strict mode,
    "tie" when several labels share the top count (the lexicographically
    smallest of them is reported so output stays deterministic).
    """
    votes: dict[tuple[str, str], list[str]] = {}
    for j in judgments:
        votes.setdefault((j.doc_id, j.job), []).append(j.label)
    out: list[AggregatedLabel] = []
    for (doc_id, job), labels in votes.items():
        label = labels[0]
        if labels.count(label) == len(labels):
            agreement = "full"
        else:
            counts = Counter(labels)
            top = max(counts.values())
            modes = sorted(lbl for lbl, c in counts.items() if c == top)
            label = modes[0]
            agreement = "tie" if len(modes) > 1 else "majority"
        out.append(AggregatedLabel(doc_id, job, label, agreement))
    return out


def adjudication_queue(aggregated: Iterable[AggregatedLabel]) -> list[AggregatedLabel]:
    """Everything short of unanimous, input order preserved; ties included."""
    return [a for a in aggregated if a.agreement != "full"]


_ADJUDICATION_HEADER = ["doc_id", "job", "label", "agreement", "override"]


def dump_adjudication(queue: Iterable[AggregatedLabel]) -> str:
    return dump_tsv(_ADJUDICATION_HEADER, ((a.doc_id, a.job, a.label, a.agreement, "") for a in queue))


def load_overrides(path: str) -> list[tuple[str, str, str]]:
    """Rows of an adjudication file whose override column was filled in; one row per (doc, job)."""
    return [
        (doc_id, job, override)
        for _, (doc_id, job, _label, _agreement, override) in read_tsv(path, _ADJUDICATION_HEADER, 2)
        if override
    ]


def _job_value(doc_id: str, job: str, label: str) -> bool | frozenset[str]:
    """A (job, label) pair as its LabelRecord value: `0`/`1` for the offensive,
    vulgar and violence jobs; `none`, `0` or one hate target for hate."""
    if job == "hate":
        if label in ("none", "0"):
            return frozenset()
        if label not in HATE_TARGETS:
            raise ValueError(f"{doc_id}: unknown hate target {label!r}")
        return frozenset({label})
    if job not in LABEL_CLASSES:
        raise ValueError(f"{doc_id}: unknown job {job!r}")
    if label not in ("0", "1"):
        raise ValueError(f"{doc_id}: {job} label must be 0/1, got {label!r}")
    return label == "1"


def aggregate_to_labels(
    aggregated: Sequence[AggregatedLabel],
) -> tuple[dict[str, LabelRecord], list[str]]:
    """Fold per-job majorities into LabelRecords; also the ids of dropped docs.

    Subsidiary labels (hate/vulgar/violence) only stick when the doc's
    offensive majority is positive; contradicting votes on clean docs
    are dropped so the invariant (subsidiary => offensive) holds by
    construction, and the second result lists those docs in order.
    """
    dropped: list[str] = []
    per_doc: dict[str, dict[str, bool | frozenset[str]]] = {}
    for a in aggregated:
        per_doc.setdefault(a.doc_id, {})[a.job] = _job_value(a.doc_id, a.job, a.label)
    out: dict[str, LabelRecord] = {}
    for doc_id, jobs in per_doc.items():
        if "offensive" not in jobs:
            raise ValueError(f"{doc_id}: no offensive job aggregated")
        offensive = jobs["offensive"]
        targets = jobs.get("hate", frozenset())
        vulgar = jobs.get("vulgar", False)
        violence = jobs.get("violence", False)
        if not offensive and (targets or vulgar or violence):
            dropped.append(doc_id)
            targets, vulgar, violence = frozenset(), False, False
        out[doc_id] = LabelRecord(doc_id, offensive, targets, vulgar, violence)
    return out, dropped


def apply_overrides(
    labels: Mapping[str, LabelRecord], overrides: Iterable[tuple[str, str, str]]
) -> dict[str, LabelRecord]:
    """Expert adjudication: per-(doc, job) label replacements.

    Monotonicity is preserved: setting a subsidiary label forces
    offensive on; clearing offensive clears every subsidiary label.
    """
    out = dict(labels)
    for doc_id, job, label in overrides:
        rec = out.get(doc_id)
        if rec is None:
            raise ValueError(f"override for unknown doc {doc_id!r}")
        value = _job_value(doc_id, job, label)
        if job == "offensive":
            out[doc_id] = replace(rec, offensive=True) if value else LabelRecord(doc_id, False)
        else:
            field = "hate_targets" if job == "hate" else job
            out[doc_id] = replace(rec, offensive=rec.offensive or bool(value), **{field: value})
    return out


# --- agreement -----------------------------------------------------------


def _kappa(confusion: Mapping[tuple, int]) -> float | None:
    """Kappa from (label_a, label_b) -> count; None when undefined (p_e = 1).
    Chance agreement sums over sorted categories, so no hash-seed dependence."""
    n = sum(confusion.values())
    ca: Counter = Counter()
    cb: Counter = Counter()
    agree = 0
    for (x, y), c in confusion.items():
        ca[x] += c
        cb[y] += c
        if x == y:
            agree += c
    p_e = sum((ca[c] / n) * (cb[c] / n) for c in sorted(ca.keys() | cb.keys()))
    if p_e >= 1.0:
        return None
    return (agree / n - p_e) / (1.0 - p_e)


def cohen_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement between two aligned label sequences."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("empty sequences")
    k = _kappa(Counter(zip(a, b)))
    if k is None:
        raise ValueError("kappa undefined: both annotators constant on one category")
    return k


@dataclass(frozen=True)
class PairKappa:
    annotator_a: str
    annotator_b: str
    n_shared: int
    kappa: float


@dataclass(frozen=True)
class KappaReport:
    mean_kappa: float
    pairs: tuple[PairKappa, ...]


# the kappa stage counts an annotator pair that shares at least this many items
MIN_SHARED = 20


def avg_pairwise_kappa(judgments: Sequence[Judgment], min_shared: int) -> KappaReport:
    """Unweighted mean Cohen's kappa over annotator pairs.

    Items are (doc, job) pairs, every job pooled; only pairs sharing >=
    min_shared items count. Pairs with undefined kappa (both constant,
    same category) are skipped. No qualifying pair at all is an error.
    One walk over each item's annotators counts (label_a, label_b) per
    co-occurring pair, so the cost follows the items, not the number of
    annotator pairs.
    """
    items: dict[tuple[str, str], dict[str, str]] = {}
    for j in judgments:
        items.setdefault((j.doc_id, j.job), {})[j.annotator_id] = j.label
    # (a, b, label_a, label_b) -> count over the items both judged, a < b
    counts = Counter(
        (a, b, x, y)
        for votes in items.values()
        for (a, x), (b, y) in combinations(sorted(votes.items()), 2)
    )
    confusion: dict[tuple[str, str], dict[tuple[str, str], int]] = {}
    for (a, b, x, y), c in counts.items():
        confusion.setdefault((a, b), {})[x, y] = c
    pairs: list[PairKappa] = []
    for (a, b), conf in sorted(confusion.items()):
        n_shared = sum(conf.values())
        k = _kappa(conf) if n_shared >= min_shared else None
        if k is not None:
            pairs.append(PairKappa(a, b, n_shared, k))
    if not pairs:
        raise ValueError(
            f"no annotator pair shares >= {min_shared} items with defined kappa"
        )
    mean = sum(p.kappa for p in pairs) / len(pairs)
    return KappaReport(mean_kappa=mean, pairs=tuple(pairs))


def dump_kappa_report(report: KappaReport) -> str:
    lines = [f"mean_kappa\t{report.mean_kappa:.6f}"]
    lines.append("annotator_a\tannotator_b\tn_shared\tkappa")
    lines.extend(
        f"{p.annotator_a}\t{p.annotator_b}\t{p.n_shared}\t{p.kappa:.6f}"
        for p in report.pairs
    )
    return "\n".join(lines) + "\n"
