"""The annotation stages before their one-pass rewrite, kept as a differential oracle.

`majority_vote` counted every (doc, job) item's votes with a `Counter`
and kept a separate first-appearance order list. `avg_pairwise_kappa`
built a label map per annotator and intersected the item sets of every
annotator pair. `gate_all` called `gate_annotator` once per annotator,
and each call scanned all judgments again. The only change from the
shipped code is that `cohen_kappa` sums the expected agreement over the
sorted categories, not over a set, so the float does not depend on
`PYTHONHASHSEED`. `avg_pairwise_kappa` has since lost its `job` filter
on both sides, and pools every job. `majority_vote` returns the shipped
shape, (doc_id, job) -> (label, agreement) in first-appearance order.
`anchorlex.annotation` must give equal results.

`load_judgments` is the per-line loader from before judgments were read
as columns: one `Judgment` a row. The column read must give the same
rows less their timestamps, which no stage keeps, or raise the same message.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from anchorlex.annotation import (
    _JUDGMENT_HEADER,
    GateResult,
    Judgment,
    KappaReport,
    PairKappa,
    _job_value,
)
from anchorlex.corpus import canonical_timestamp
from anchorlex.util import read_tsv


def load_judgments(path: str) -> list[Judgment]:
    """Check each distinct timestamp, and each distinct (job, label) against the
    job's label rule (`_job_value`), once; a repeated (doc, annotator, job) is an error."""
    out: list[Judgment] = []
    stamps: dict[str, str | None] = {"": None}
    checked: set[tuple[str, str]] = set()
    for lineno, (doc_id, annotator_id, job, label, ts) in read_tsv(path, _JUDGMENT_HEADER, 3):
        try:
            if ts not in stamps:
                stamps[ts] = canonical_timestamp(ts)
            out.append(Judgment(doc_id, annotator_id, job, label, stamps[ts]))
            if (job, label) not in checked:
                _job_value(doc_id, job, label)
                checked.add((job, label))
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out


def majority_vote(judgments: Sequence[Judgment]) -> dict[tuple[str, str], tuple[str, str]]:
    order: list[tuple[str, str]] = []
    votes: dict[tuple[str, str], list[str]] = {}
    for j in judgments:
        key = (j.doc_id, j.job)
        if key not in votes:
            votes[key] = []
            order.append(key)
        votes[key].append(j.label)
    out: dict[tuple[str, str], tuple[str, str]] = {}
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
        out[key] = (modes[0], agreement)
    return out


def gate_annotator(
    judgments: Iterable[Judgment], annotator_id: str, answers: Mapping[str, str], threshold: float
) -> GateResult:
    n_test = n_correct = 0
    for j in judgments:
        if (
            j.annotator_id != annotator_id
            or j.job != "offensive"
            or j.doc_id not in answers
        ):
            continue
        n_test += 1
        if j.label == answers[j.doc_id]:
            n_correct += 1
    if n_test == 0:
        raise ValueError(f"annotator {annotator_id!r} judged no test items")
    acc = n_correct / n_test
    return GateResult(annotator_id, n_test, n_correct, acc, acc >= threshold)


def gate_all(judgments: Sequence[Judgment], answers: Mapping[str, str], threshold: float) -> list[GateResult]:
    ids = sorted(
        {
            j.annotator_id
            for j in judgments
            if j.job == "offensive" and j.doc_id in answers
        }
    )
    return [gate_annotator(judgments, a, answers, threshold) for a in ids]


def cohen_kappa(a: Sequence, b: Sequence) -> float:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise ValueError("empty sequences")
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    cats = sorted(set(a) | set(b))
    ca, cb = Counter(a), Counter(b)
    p_e = sum((ca[c] / n) * (cb[c] / n) for c in cats)
    if p_e >= 1.0:
        raise ValueError("kappa undefined: both annotators constant on one category")
    return (p_o - p_e) / (1.0 - p_e)


def avg_pairwise_kappa(judgments: Sequence[Judgment], min_shared: int) -> KappaReport:
    by_annotator: dict[str, dict[tuple[str, str], str]] = {}
    for j in judgments:
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
