"""Annotator gating, vote aggregation, agreement, adjudication queues.

Jobs are independent labeling passes ("offensive", "hate", "vulgar",
"violence"); each (doc, job) pair collects one judgment per annotator.
Quality control: hidden test items with known answers gate annotators at
an accuracy threshold; agreement is Cohen's kappa averaged over
annotator pairs with enough shared items.
"""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Mapping, Sequence

from .corpus import HATE_TARGETS, LabelRecord, format_timestamp, parse_timestamp
from .util import atomic_write_text

JOBS = ("offensive", "hate", "vulgar", "violence")


@dataclass(frozen=True)
class Judgment:
    doc_id: str
    annotator_id: str
    job: str
    label: str
    timestamp: datetime | None = None

    def __post_init__(self) -> None:
        if not self.doc_id or not self.annotator_id:
            raise ValueError("doc_id and annotator_id must be non-empty")
        if not self.label:
            raise ValueError(f"{self.doc_id}/{self.job}: empty label")


_JUDGMENT_HEADER = ["doc_id", "annotator_id", "job", "label", "timestamp"]


def load_judgments(path: str) -> list[Judgment]:
    out: list[Judgment] = []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if header != _JUDGMENT_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {_JUDGMENT_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"{path}: line {lineno}: expected 5 columns")
            try:
                out.append(
                    Judgment(
                        doc_id=row[0],
                        annotator_id=row[1],
                        job=row[2],
                        label=row[3],
                        timestamp=parse_timestamp(row[4]) if row[4] else None,
                    )
                )
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out


def dump_judgments(judgments: Iterable[Judgment]) -> str:
    lines = ["\t".join(_JUDGMENT_HEADER)]
    for j in judgments:
        ts = format_timestamp(j.timestamp) if j.timestamp else ""
        lines.append(f"{j.doc_id}\t{j.annotator_id}\t{j.job}\t{j.label}\t{ts}")
    return "\n".join(lines) + "\n"


def write_judgments(path: str, judgments: Iterable[Judgment]) -> None:
    atomic_write_text(path, dump_judgments(judgments))


# --- gating --------------------------------------------------------------


@dataclass(frozen=True)
class QCGate:
    test_answers: Mapping[str, str]  # doc_id -> expected label
    pass_threshold: float = 0.8

    def __post_init__(self) -> None:
        if not self.test_answers:
            raise ValueError("gate needs at least one test answer")
        if not (0.0 <= self.pass_threshold <= 1.0):
            raise ValueError("pass_threshold must be in [0, 1]")


@dataclass(frozen=True)
class GateResult:
    annotator_id: str
    n_test: int
    n_correct: int
    accuracy: float
    passed: bool


def gate_annotator(
    judgments: Iterable[Judgment], annotator_id: str, gate: QCGate
) -> GateResult:
    """Accuracy of one annotator's offensive-job judgments on the hidden test
    items; pass is >= threshold. Gate answers are offensive-job answers."""
    n_test = n_correct = 0
    for j in judgments:
        if (
            j.annotator_id != annotator_id
            or j.job != "offensive"
            or j.doc_id not in gate.test_answers
        ):
            continue
        n_test += 1
        if j.label == gate.test_answers[j.doc_id]:
            n_correct += 1
    if n_test == 0:
        raise ValueError(f"annotator {annotator_id!r} judged no test items")
    acc = n_correct / n_test
    return GateResult(annotator_id, n_test, n_correct, acc, acc >= gate.pass_threshold)


def gate_all(judgments: Sequence[Judgment], gate: QCGate) -> list[GateResult]:
    """Gate every annotator with an offensive-job judgment on a test item."""
    ids = sorted(
        {
            j.annotator_id
            for j in judgments
            if j.job == "offensive" and j.doc_id in gate.test_answers
        }
    )
    return [gate_annotator(judgments, a, gate) for a in ids]


def load_gate_answers(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if header != ["doc_id", "label"]:
            raise ValueError(f"{path}: bad header {header!r}, expected ['doc_id', 'label']")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 columns")
            if row[0] in out:
                raise ValueError(f"{path}: line {lineno}: duplicate doc_id {row[0]!r}")
            out[row[0]] = row[1]
    return out


def dump_gate_results(results: Iterable[GateResult]) -> str:
    lines = ["annotator_id\tn_test\tn_correct\taccuracy\tpassed"]
    lines.extend(
        f"{r.annotator_id}\t{r.n_test}\t{r.n_correct}\t{r.accuracy:.6f}"
        f"\t{'1' if r.passed else '0'}"
        for r in results
    )
    return "\n".join(lines) + "\n"


# --- aggregation ---------------------------------------------------------


@dataclass(frozen=True)
class AggregatedLabel:
    doc_id: str
    job: str
    label: str
    n_judgments: int
    agreement: str  # full | majority | tie


def majority_vote(judgments: Sequence[Judgment]) -> list[AggregatedLabel]:
    """Modal label per (doc, job), in first-appearance order.

    agreement: "full" when unanimous, "majority" for a strict mode,
    "tie" when several labels share the top count (the lexicographically
    smallest of them is reported so output stays deterministic).
    """
    order: list[tuple[str, str]] = []
    votes: dict[tuple[str, str], list[str]] = {}
    for j in judgments:
        key = (j.doc_id, j.job)
        if key not in votes:
            votes[key] = []
            order.append(key)
        votes[key].append(j.label)
    out: list[AggregatedLabel] = []
    for key in order:
        labels = votes[key]
        counts = Counter(labels)
        top = max(counts.values())
        modes = sorted(lbl for lbl, c in counts.items() if c == top)
        if len(modes) > 1:
            agreement = "tie"
        elif top == len(labels):
            agreement = "full"
        else:
            agreement = "majority"
        out.append(
            AggregatedLabel(
                doc_id=key[0],
                job=key[1],
                label=modes[0],
                n_judgments=len(labels),
                agreement=agreement,
            )
        )
    return out


def adjudication_queue(aggregated: Iterable[AggregatedLabel]) -> list[AggregatedLabel]:
    """Everything short of unanimous, input order preserved; ties included."""
    return [a for a in aggregated if a.agreement != "full"]


def dump_adjudication(queue: Iterable[AggregatedLabel]) -> str:
    lines = ["doc_id\tjob\tlabel\tagreement\toverride"]
    lines.extend(f"{a.doc_id}\t{a.job}\t{a.label}\t{a.agreement}\t" for a in queue)
    return "\n".join(lines) + "\n"


def load_overrides(path: str) -> list[tuple[str, str, str]]:
    """Rows of an adjudication file whose override column was filled in."""
    out: list[tuple[str, str, str]] = []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if header[:2] != ["doc_id", "job"] or "override" not in header:
            raise ValueError(f"{path}: bad adjudication header {header!r}")
        oi = header.index("override")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= oi:
                raise ValueError(f"{path}: line {lineno}: missing override column")
            if row[oi]:
                out.append((row[0], row[1], row[oi]))
    return out


def aggregate_to_labels(aggregated: Sequence[AggregatedLabel]) -> dict[str, LabelRecord]:
    """Fold per-job majorities into LabelRecords.

    Subsidiary labels (hate/vulgar/violence) only stick when the doc's
    offensive majority is positive; contradicting votes on clean docs
    are dropped with a warning so the invariant (subsidiary => offensive)
    holds by construction.
    """
    per_doc: dict[str, dict[str, AggregatedLabel]] = {}
    for a in aggregated:
        if a.job not in JOBS:
            raise ValueError(f"{a.doc_id}: unknown job {a.job!r}")
        per_doc.setdefault(a.doc_id, {})[a.job] = a
    out: dict[str, LabelRecord] = {}
    for doc_id, jobs in per_doc.items():
        if "offensive" not in jobs:
            raise ValueError(f"{doc_id}: no offensive job aggregated")
        offensive = jobs["offensive"].label == "1"
        targets: frozenset[str] = frozenset()
        vulgar = violence = False
        if "hate" in jobs and jobs["hate"].label not in ("none", "0", ""):
            lbl = jobs["hate"].label
            if lbl not in HATE_TARGETS:
                raise ValueError(f"{doc_id}: unknown hate target {lbl!r}")
            targets = frozenset({lbl})
        if "vulgar" in jobs:
            vulgar = jobs["vulgar"].label == "1"
        if "violence" in jobs:
            violence = jobs["violence"].label == "1"
        if not offensive and (targets or vulgar or violence):
            warnings.warn(
                f"{doc_id}: dropping hate/vulgar/violence votes on a non-offensive doc",
                stacklevel=2,
            )
            targets, vulgar, violence = frozenset(), False, False
        out[doc_id] = LabelRecord(
            doc_id=doc_id,
            offensive=offensive,
            hate_targets=targets,
            vulgar=vulgar,
            violence=violence,
        )
    return out


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
        if job == "offensive":
            if label not in ("0", "1"):
                raise ValueError(f"{doc_id}: offensive override must be 0/1")
            if label == "1":
                rec = LabelRecord(doc_id, True, rec.hate_targets, rec.vulgar, rec.violence)
            else:
                rec = LabelRecord(doc_id, False)
        elif job == "hate":
            if label in ("none", "0"):
                rec = LabelRecord(doc_id, rec.offensive, frozenset(), rec.vulgar, rec.violence)
            else:
                if label not in HATE_TARGETS:
                    raise ValueError(f"{doc_id}: unknown hate target {label!r}")
                rec = LabelRecord(doc_id, True, frozenset({label}), rec.vulgar, rec.violence)
        elif job in ("vulgar", "violence"):
            if label not in ("0", "1"):
                raise ValueError(f"{doc_id}: {job} override must be 0/1")
            flag = label == "1"
            vulgar = flag if job == "vulgar" else rec.vulgar
            violence = flag if job == "violence" else rec.violence
            rec = LabelRecord(
                doc_id,
                rec.offensive or flag,
                rec.hate_targets,
                vulgar,
                violence,
            )
        else:
            raise ValueError(f"{doc_id}: unknown job {job!r}")
        out[doc_id] = rec
    return out


# --- agreement -----------------------------------------------------------


def cohen_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement between two aligned label sequences."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise ValueError("empty sequences")
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    cats = set(a) | set(b)
    ca, cb = Counter(a), Counter(b)
    p_e = sum((ca[c] / n) * (cb[c] / n) for c in cats)
    if p_e >= 1.0:
        raise ValueError("kappa undefined: both annotators constant on one category")
    return (p_o - p_e) / (1.0 - p_e)


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


def avg_pairwise_kappa(
    judgments: Sequence[Judgment],
    min_shared: int = 20,
    job: str | None = None,
) -> KappaReport:
    """Unweighted mean Cohen's kappa over annotator pairs.

    Items are (doc, job) pairs; only pairs sharing >= min_shared items
    count. Pairs with undefined kappa (both constant, same category) are
    skipped. No qualifying pair at all is an error.
    """
    by_annotator: dict[str, dict[tuple[str, str], str]] = {}
    for j in judgments:
        if job is not None and j.job != job:
            continue
        by_annotator.setdefault(j.annotator_id, {})[(j.doc_id, j.job)] = j.label
    names = sorted(by_annotator)
    pairs: list[PairKappa] = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = sorted(set(by_annotator[a]) & set(by_annotator[b]))
            if len(shared) < min_shared:
                continue
            seq_a = [by_annotator[a][k] for k in shared]
            seq_b = [by_annotator[b][k] for k in shared]
            try:
                k = cohen_kappa(seq_a, seq_b)
            except ValueError:
                continue
            pairs.append(PairKappa(a, b, len(shared), k))
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


def write_text(path: str, text: str) -> None:
    atomic_write_text(path, text)
