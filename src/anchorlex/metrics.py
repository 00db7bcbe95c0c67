"""Binary evaluation: accuracy, per-class P/R/F1, macro averages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

CLASSES = (0, 1)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: Mapping[int, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: Mapping[tuple[int, int], int]  # (gold, pred) -> count
    n: int


def evaluate(gold: Sequence[int], pred: Sequence[int]) -> EvalReport:
    """Metrics over aligned 0/1 label sequences; empty denominators score 0."""
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    if not gold:
        raise ValueError("empty label sequences")
    for v in (*gold, *pred):
        if v not in CLASSES:
            raise ValueError(f"labels must be 0/1, got {v!r}")
    confusion = {(g, p): 0 for g in CLASSES for p in CLASSES}
    for g, p in zip(gold, pred):
        confusion[(g, p)] += 1
    per_class: dict[int, ClassMetrics] = {}
    for c in CLASSES:
        tp = confusion[(c, c)]
        fp = sum(confusion[(g, c)] for g in CLASSES if g != c)
        fn = sum(confusion[(c, p)] for p in CLASSES if p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = ClassMetrics(precision, recall, f1, tp + fn)
    n = len(gold)
    return EvalReport(
        accuracy=sum(confusion[(c, c)] for c in CLASSES) / n,
        per_class=per_class,
        macro_precision=sum(per_class[c].precision for c in CLASSES) / len(CLASSES),
        macro_recall=sum(per_class[c].recall for c in CLASSES) / len(CLASSES),
        macro_f1=sum(per_class[c].f1 for c in CLASSES) / len(CLASSES),
        confusion=confusion,
        n=n,
    )


def evaluate_predictions(
    gold: Mapping[str, int], predictions: Mapping[str, int]
) -> EvalReport:
    """Join doc-keyed gold and predicted labels; every prediction needs gold."""
    if not predictions:
        raise ValueError("no predictions to evaluate")
    missing = [d for d in predictions if d not in gold]
    if missing:
        raise ValueError(f"predictions for unlabeled docs, e.g. {missing[0]!r}")
    ids = sorted(predictions)
    return evaluate([gold[d] for d in ids], [predictions[d] for d in ids])


def dump_report(report: EvalReport) -> str:
    lines = [
        f"n\t{report.n}",
        f"accuracy\t{report.accuracy:.10f}",
        f"macro_precision\t{report.macro_precision:.10f}",
        f"macro_recall\t{report.macro_recall:.10f}",
        f"macro_f1\t{report.macro_f1:.10f}",
    ]
    for c in CLASSES:
        m = report.per_class[c]
        lines.append(
            f"class_{c}\tprecision={m.precision:.10f}\trecall={m.recall:.10f}"
            f"\tf1={m.f1:.10f}\tsupport={m.support}"
        )
    for (g, p), v in sorted(report.confusion.items()):
        lines.append(f"confusion_{g}{p}\t{v}")
    return "\n".join(lines) + "\n"

