from __future__ import annotations

import random

import pytest

from anchorlex.metrics import (
    dump_report,
    evaluate,
    evaluate_predictions,
)
from anchorlex.util import atomic_write_text


def test_hand_example_macro_f1():
    # class 1: tp=2 fp=1 fn=0 -> P=2/3 R=1 F1=0.8
    # class 0: tp=1 fp=0 fn=1 -> P=1 R=0.5 F1=2/3
    gold = [1, 1, 0, 0]
    pred = [1, 1, 1, 0]
    rep = evaluate(gold, pred)
    assert rep.accuracy == pytest.approx(0.75, abs=1e-12)
    assert rep.per_class[1].precision == pytest.approx(2 / 3, abs=1e-9)
    assert rep.per_class[1].recall == pytest.approx(1.0, abs=1e-9)
    assert rep.per_class[1].f1 == pytest.approx(0.8, abs=1e-9)
    assert rep.per_class[0].f1 == pytest.approx(2 / 3, abs=1e-9)
    assert rep.macro_f1 == pytest.approx(0.7333333333333334, abs=1e-9)
    assert rep.confusion[(1, 1)] == 2 and rep.confusion[(0, 1)] == 1
    assert rep.n == 4


def test_degenerate_class_scores_zero():
    rep = evaluate([0, 0], [0, 0])
    assert rep.per_class[1].precision == 0.0
    assert rep.per_class[1].recall == 0.0
    assert rep.per_class[1].f1 == 0.0
    assert rep.accuracy == 1.0
    assert rep.macro_f1 == pytest.approx(0.5)


def test_matches_sklearn_on_random_labelings():
    sk = pytest.importorskip("sklearn.metrics")
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 80)
        gold = [rng.randint(0, 1) for _ in range(n)]
        pred = [rng.randint(0, 1) for _ in range(n)]
        rep = evaluate(gold, pred)
        p, r, f, _ = sk.precision_recall_fscore_support(
            gold, pred, labels=[0, 1], average="macro", zero_division=0
        )
        assert rep.macro_precision == pytest.approx(p, abs=1e-9)
        assert rep.macro_recall == pytest.approx(r, abs=1e-9)
        assert rep.macro_f1 == pytest.approx(f, abs=1e-9)
        assert rep.accuracy == pytest.approx(sk.accuracy_score(gold, pred), abs=1e-9)


def test_input_validation():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([0, 1], [0])
    with pytest.raises(ValueError):
        evaluate([0, 2], [0, 1])


def test_evaluate_predictions_joins_on_ids():
    gold = {"a": 1, "b": 0, "c": 1}
    preds = {"b": 0, "a": 1}
    rep = evaluate_predictions(gold, preds)
    assert rep.n == 2 and rep.accuracy == 1.0
    with pytest.raises(ValueError, match="ghost"):
        evaluate_predictions(gold, {"ghost": 1})


def test_report_round_trip(tmp_path):
    rep = evaluate([1, 1, 0, 0], [1, 1, 1, 0])
    text = dump_report(rep)
    # class 0: tp=1 fn=1, so P=1 R=1/2; class 1: tp=2 fp=1, so P=2/3 R=1
    assert text.splitlines() == [
        "n\t4",
        "accuracy\t0.7500000000",
        "macro_precision\t0.8333333333",
        "macro_recall\t0.7500000000",
        "macro_f1\t0.7333333333",
        "class_0\tprecision=1.0000000000\trecall=0.5000000000\tf1=0.6666666667\tsupport=2",
        "class_1\tprecision=0.6666666667\trecall=1.0000000000\tf1=0.8000000000\tsupport=2",
        "confusion_00\t1",
        "confusion_01\t1",
        "confusion_10\t0",
        "confusion_11\t2",
    ]
    p = tmp_path / "report.tsv"
    atomic_write_text(str(p), text)
    assert p.read_text(encoding="utf-8") == text
