"""Shared fixtures: tiny corpora and label sets used across test modules."""

from __future__ import annotations

import random

import pytest

from anchorlex.corpus import Document, LabelRecord

TS = "2021-05-01T12:00:00Z"


def doc(i: int, text: str) -> Document:
    return Document(id=f"d{i:03d}", text=text, created_at=TS)


def label(
    i: int,
    offensive: bool = False,
    hate_targets: tuple[str, ...] = (),
    vulgar: bool = False,
    violence: bool = False,
) -> LabelRecord:
    return LabelRecord(
        doc_id=f"d{i:03d}",
        offensive=offensive,
        hate_targets=frozenset(hate_targets),
        vulgar=vulgar,
        violence=violence,
    )


def make_label_set(n_total: int, n_positive: int, seed: int = 0) -> dict[str, LabelRecord]:
    """Bare label records (no texts) with an exact positive count."""
    if not (0 <= n_positive <= n_total):
        raise ValueError("need 0 <= n_positive <= n_total")
    rng = random.Random(seed)
    flags = [True] * n_positive + [False] * (n_total - n_positive)
    rng.shuffle(flags)
    return {
        f"d{i:06d}": LabelRecord(doc_id=f"d{i:06d}", offensive=flag)
        for i, flag in enumerate(flags)
    }


@pytest.fixture
def tiny_corpus() -> tuple[list[Document], dict[str, LabelRecord]]:
    docs = [
        doc(0, "صباح الخير \U0001F600"),
        doc(1, "يا كلب يا غبي \U0001F437"),
        doc(2, "الجو جميل اليوم"),
        doc(3, "يا حقير \U0001F52A"),
    ]
    labels = {
        "d000": label(0),
        "d001": label(1, offensive=True),
        "d002": label(2),
        "d003": label(3, offensive=True, violence=True),
    }
    return docs, labels
