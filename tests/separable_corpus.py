"""Criterion 07's classifier fixture, drawn from `anchorlex.synth`'s word pools.

tests/test_acceptance.py pins the sha256 of its seed-0 docs and labels.
"""

from __future__ import annotations

import random

from anchorlex.corpus import Document, LabelRecord
from anchorlex.synth import NEUTRAL_WORDS, OFFENSIVE_WORDS, _doc, _sentence


def make_separable_corpus(
    n_docs: int = 200, seed: int = 0
) -> tuple[list[Document], dict[str, LabelRecord]]:
    """Linearly separable two-class corpus: marker words never cross classes."""
    rng = random.Random(seed)
    docs: list[Document] = []
    labels: dict[str, LabelRecord] = {}
    for i in range(n_docs):
        offensive = i % 2 == 1
        words = _sentence(rng, NEUTRAL_WORDS, rng.randint(3, 6))
        markers = OFFENSIVE_WORDS if offensive else ("سلام", "محبة", "ورد")
        words.extend(rng.choice(markers) for _ in range(2))
        rng.shuffle(words)
        doc = _doc(i, " ".join(words))
        docs.append(doc)
        labels[doc.id] = LabelRecord(doc_id=doc.id, offensive=offensive)
    return docs, labels
