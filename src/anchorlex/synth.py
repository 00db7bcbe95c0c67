"""The seeded emoji-anchored corpus that the pipeline script, perfbench and tests run on.

Nothing here ships real user data; texts are assembled from small word
pools with a seeded RNG, so the corpus is a pure function of the arguments.
"""

from __future__ import annotations

import random
import time
from datetime import datetime, timezone

from .corpus import Document, LabelRecord

# neutral filler (greetings, weather, food, sports)
NEUTRAL_WORDS = (
    "الجو", "جميل", "اليوم", "صباح", "الخير", "شكرا", "على", "المباراة",
    "القهوة", "لذيذة", "كتاب", "جديد", "السوق", "مفتوح", "غدا", "إن",
    "شاء", "الله", "خير", "مبروك", "النجاح", "صديقي", "العزيز", "يوم",
    "سعيد", "والحمد", "لله", "دائما", "بالتوفيق", "جميعا",
)

# insult-flavored tokens for synthetic offensive docs
OFFENSIVE_WORDS = (
    "كلب", "خنزير", "حقير", "تافه", "حمار", "غبي", "قذر", "وسخ",
    "حثالة", "زبالة", "منافق", "جبان",
)

SEED_EMOJIS = ("\U0001F437", "\U0001F436", "\U0001F595", "\U0001F52A", "\U0001F44A")
NEUTRAL_EMOJIS = ("\U0001F600", "\U0001F339", "☀️", "\U0001F680")

# Unix time of doc 0; doc i is created i seconds later
_T0 = int(datetime(2021, 1, 1, tzinfo=timezone.utc).timestamp())


def _doc(i: int, text: str) -> Document:
    # corpus.format_timestamp's string, without building an aware datetime
    created_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(_T0 + i))
    return Document(id=f"d{i:06d}", text=text, created_at=created_at)


def _sentence(rng: random.Random, words: tuple[str, ...], n: int) -> list[str]:
    return [rng.choice(words) for _ in range(n)]


def make_anchored_corpus(
    n_docs: int = 10_000,
    seed: int = 0,
    base_offensive_rate: float = 0.02,
    emoji_rate: float = 0.05,
    p_offensive_given_emoji: float = 0.6,
) -> tuple[list[Document], dict[str, LabelRecord]]:
    """Corpus where seed emoji are a high-precision offensive signal.

    A doc carries a seed emoji with probability emoji_rate; such docs
    are offensive with probability p_offensive_given_emoji, the rest at
    the background rate base_offensive_rate (the rate a random,
    unanchored collection would show).
    """
    rng = random.Random(seed)
    docs: list[Document] = []
    labels: dict[str, LabelRecord] = {}
    for i in range(n_docs):
        has_emoji = rng.random() < emoji_rate
        offensive = rng.random() < (p_offensive_given_emoji if has_emoji else base_offensive_rate)
        words = _sentence(rng, NEUTRAL_WORDS, rng.randint(4, 9))
        if offensive:
            words[rng.randrange(len(words))] = rng.choice(OFFENSIVE_WORDS)
            words.insert(0, "يا")
        if has_emoji:
            words.append(rng.choice(SEED_EMOJIS))
        elif rng.random() < 0.1:
            words.append(rng.choice(NEUTRAL_EMOJIS))
        doc = _doc(i, " ".join(words))
        docs.append(doc)
        labels[doc.id] = LabelRecord(doc_id=doc.id, offensive=offensive)
    return docs, labels
