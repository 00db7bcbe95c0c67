"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of its seed. The corpus generator
extends ``synth.make_anchored_corpus`` with the properties the stages'
cost and output depend on; each share below is stated once here, and
README.md says why each property is there. Besides the files,
each generator returns the ground truth the output checks compare
against.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from anchorlex import synth
from anchorlex.annotation import Judgment, write_judgments
from anchorlex.corpus import Document, LabelRecord, write_corpus, write_labels

# --- corpus workload: raw collection ------------------------------------

RAW_DOCS = 10_000
SEED_EMOJI_RATE = 0.20  # so about 2k docs reach dedup
# shares of seed-emoji docs
EXACT_DUP_SHARE = 0.04  # retweet-style copies equal to their source after normalize
NEAR_DUP_SHARE = 0.04  # copies with an "RT @user:" prefix or a trailing link/mention
SHORT_SHARE = 0.01  # one-word replies, below the 3-token dedup floor
SKIN_TONE_SHARE = 0.5  # of seed emoji that accept a skin-tone modifier
THREAT_SHARE = 0.15  # of offensive seed-emoji docs
# shares of all docs
MENTION_SHARE = 0.15
URL_SHARE = 0.10
TASHKEEL_SHARE = 0.10
TATWEEL_SHARE = 0.05
ELONGATION_SHARE = 0.10
NEWLINE_SHARE = 0.05
LETTER_VARIANT_SHARE = 0.15
ZWJ_SHARE = 0.04
FLAG_SHARE = 0.04
# gold label refinements of offensive seed-emoji docs
HATE_SHARE = 0.25
VULGAR_SHARE = 0.30

# annotation: 3 of a 60-annotator pool judge every seed-emoji doc on all jobs
ANNOTATOR_POOL = 60
ANNOTATORS_PER_DOC = 3
ANNOTATOR_ERROR_RATE = 0.08  # per judgment, a wrong label
CONTRADICTION_RATE = 0.03  # clean docs whose hate/vulgar/violence majority is positive
GATE_ITEMS = 300  # hidden test items with known offensive answers

# --- train and score workloads -------------------------------------------

TRAIN_DOCS = 1_000  # all carry a seed emoji; the 70% train part is 700 docs
SCORE_DOCS = 2_000
EXPLAIN_REQUESTS = 10
EXPLAIN_WORDS = 9  # words in every request text, so a request costs the same for any seed
_SCORE_SEED_OFFSET = 1_000_003  # fresh docs: same generator, disjoint stream

_HANDLE_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"
_URL_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
_TASHKEEL = tuple(chr(c) for c in range(0x064B, 0x0653))
_TATWEEL = "ـ"
_SKIN_TONES = tuple(chr(c) for c in range(0x1F3FB, 0x1F400))
_MODIFIER_BASES = frozenset({"\U0001F595", "\U0001F44A"})
# ZWJ sequences; the service-dog one contains the seed dog (U+1F415) but
# as a whole sequence it is not a seed emoji, so collect must drop it
_ZWJ_SEQUENCES = (
    "\U0001F468‍\U0001F469‍\U0001F467",
    "\U0001F3F3️‍\U0001F308",
    "\U0001F415‍\U0001F9BA",
    "\U0001F469\U0001F3FD‍\U0001F4BB",
)
_FLAGS = ("\U0001F1F8\U0001F1E6", "\U0001F1EA\U0001F1EC", "\U0001F1F0\U0001F1FC")
# letter variants that normalize folds back: alef forms, taa marbuta, alef maksura
_VARIANTS = {"ا": ("أ", "إ", "آ"), "ه": ("ة",), "ي": ("ى",)}
_FOLD = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ة": "ه", "ى": "ي"})
_HATE_TARGETS = ("gender", "race", "ideology", "social_class", "religion", "disability")

# threat phrases per bundled violence rule: (rule, trigger class, object class)
_THREAT_SHAPES = (
    ("kill_human", "verb_kill", "human"),
    ("hit_human_or_body", "verb_hit", "body"),
    ("cut_head", "verb_cut", "head"),
    ("hitnoun_on_body", "hit_noun", "body"),
)
_PERSON_MARKERS = ("ا", "ن", "ت")
_OBJECT_SUFFIXES = ("ك", "كم", "ه", "هم")


def fold(token: str) -> str:
    """The letter folding normalize applies, for expected match spans."""
    return token.translate(_FOLD)


@dataclass
class CorpusTruth:
    seed_ids: set[str] = field(default_factory=set)
    exact: dict[str, str] = field(default_factory=dict)  # dup id -> source id
    near: dict[str, str] = field(default_factory=dict)
    short: set[str] = field(default_factory=set)
    threats: dict[str, tuple[str, str]] = field(default_factory=dict)  # id -> (rule, span)


@dataclass
class ScoreTruth:
    doc_ids: list[str] = field(default_factory=list)
    explain_texts: list[str] = field(default_factory=list)


def _load_violence_classes(data_dir: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    with open(os.path.join(data_dir, "violence_classes.tsv"), encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            name, members = line.rstrip("\n").split("\t")
            out[name] = [m.strip() for m in members.split(",") if m.strip()]
    return out


def _verb_form(rng: random.Random, stem: str) -> str:
    return rng.choice(_PERSON_MARKERS) + stem[1:]


def _noun_form(rng: random.Random, stem: str) -> str:
    suffix = rng.choice(_OBJECT_SUFFIXES)
    if stem.endswith("ة"):
        return stem[:-1] + "ت" + suffix
    return stem + suffix


def _threat(rng: random.Random, classes: dict[str, list[str]]) -> tuple[str, list[str]]:
    rule, trigger, obj = rng.choice(_THREAT_SHAPES)
    if rule == "kill_human":
        verb = _verb_form(rng, rng.choice(classes[trigger]))
        if rng.random() < 0.5:
            return rule, [verb + rng.choice(_OBJECT_SUFFIXES)]
        return rule, [verb, rng.choice(classes[obj])]
    noun = _noun_form(rng, rng.choice(classes[obj]))
    if rule == "hitnoun_on_body":
        return rule, [rng.choice(classes[trigger]), "على", noun]
    return rule, [_verb_form(rng, rng.choice(classes[trigger])), noun]


def _handle(rng: random.Random) -> str:
    return "@" + "".join(rng.choice(_HANDLE_CHARS) for _ in range(rng.randint(4, 12)))


def _url(rng: random.Random) -> str:
    return "https://t.co/" + "".join(rng.choice(_URL_CHARS) for _ in range(10))


def _insert_at_letter(rng: random.Random, word: str, mark: str) -> str:
    k = rng.randrange(1, len(word)) if len(word) > 1 else 1
    return word[:k] + mark + word[k:]


def _variant(rng: random.Random, word: str) -> str:
    spots = [k for k, c in enumerate(word) if c in _VARIANTS]
    if not spots:
        return word
    k = rng.choice(spots)
    return word[:k] + rng.choice(_VARIANTS[word[k]]) + word[k + 1 :]


def _noise_words(rng: random.Random, words: list[str]) -> list[str]:
    """Rewrites normalize undoes (tashkeel, tatweel, letter variants) or
    squashes (letter elongation), each on one random word."""
    words = list(words)
    if not words:
        return words
    if rng.random() < TASHKEEL_SHARE:
        k = rng.randrange(len(words))
        words[k] = _insert_at_letter(rng, words[k], rng.choice(_TASHKEEL))
    if rng.random() < TATWEEL_SHARE:
        k = rng.randrange(len(words))
        words[k] = _insert_at_letter(rng, words[k], _TATWEEL)
    if rng.random() < LETTER_VARIANT_SHARE:
        k = rng.randrange(len(words))
        words[k] = _variant(rng, words[k])
    if rng.random() < ELONGATION_SHARE:
        k = rng.randrange(len(words))
        words[k] = words[k] + words[k][-1] * rng.randint(2, 5)
    return words


def _assemble(rng: random.Random, tokens: list[str]) -> str:
    if rng.random() < MENTION_SHARE:
        tokens = [_handle(rng)] + tokens
    if rng.random() < URL_SHARE:
        tokens = tokens + [_url(rng)]
    text = " ".join(tokens)
    if rng.random() < NEWLINE_SHARE and " " in text:
        k = rng.choice([m for m, c in enumerate(text) if c == " "])
        text = text[:k] + "\n" + text[k + 1 :]
    return text


def _split_emoji(text: str) -> tuple[list[str], str | None]:
    words = text.split(" ")
    if words[-1] in synth.SEED_EMOJIS or words[-1] in synth.NEUTRAL_EMOJIS:
        return words[:-1], words[-1]
    return words, None


def _emoji_tail(rng: random.Random, emoji: str | None) -> list[str]:
    tail: list[str] = []
    if emoji is not None:
        if emoji in _MODIFIER_BASES and rng.random() < SKIN_TONE_SHARE:
            emoji += rng.choice(_SKIN_TONES)
        tail.append(emoji)
    if rng.random() < ZWJ_SHARE:
        tail.append(rng.choice(_ZWJ_SEQUENCES))
    if rng.random() < FLAG_SHARE:
        tail.append(rng.choice(_FLAGS))
    return tail


def _exact_copy(rng: random.Random, text: str) -> str:
    """A copy that normalizes to the same text as its source."""
    how = rng.randrange(5)
    arabic = [k for k, c in enumerate(text) if "ء" <= c <= "ي"]
    if how == 0:
        return text
    if how == 1 and arabic:  # tashkeel or tatweel after an Arabic letter
        k = rng.choice(arabic) + 1
        return text[:k] + rng.choice(_TASHKEEL + (_TATWEEL,)) + text[k:]
    if how == 2:  # alef/taa/yaa variants
        spots = [k for k, c in enumerate(text) if c in _VARIANTS]
        if spots:
            k = rng.choice(spots)
            return text[:k] + rng.choice(_VARIANTS[text[k]]) + text[k + 1 :]
        return text
    if how == 3 and " " in text:  # a newline where the source has a space
        k = rng.choice([m for m, c in enumerate(text) if c == " "])
        return text[:k] + "\n" + text[k + 1 :]
    # another @handle in front: placeholders fold every handle to one
    if text.startswith("@"):
        end = 1
        while end < len(text) and text[end] in _HANDLE_CHARS:
            end += 1
        return _handle(rng) + text[end:]
    return text


def _near_copy(rng: random.Random, text: str) -> str:
    """A copy whose word-bigram Jaccard with its source is at least 5/6."""
    how = rng.randrange(3)
    if how == 0:
        return f"RT {_handle(rng)}: {text}"
    if how == 1:
        return f"{text} {_url(rng)}"
    return f"{text} {_handle(rng)}"


def make_corpus_inputs(seed: int, work: str, data_dir: str) -> tuple[CorpusTruth, float]:
    """Raw collection, gold labels, judgments and gate answers for `corpus`.

    Returns the ground truth and the seconds spent in synth.
    """
    t0 = time.perf_counter()
    base_docs, base_labels = synth.make_anchored_corpus(
        n_docs=RAW_DOCS, seed=seed, emoji_rate=SEED_EMOJI_RATE
    )
    synth_s = time.perf_counter() - t0
    rng = random.Random(f"corpus:{seed}")
    classes = _load_violence_classes(data_dir)
    truth = CorpusTruth()

    # roles first, so a source can carry its tag before any copy is made
    seed_idx = [i for i, d in enumerate(base_docs) if _split_emoji(d.text)[1] in synth.SEED_EMOJIS]
    role: dict[int, str] = {}
    source_of: dict[int, int] = {}
    eligible: list[int] = []
    for i in seed_idx:
        r = rng.random()
        if eligible and r < EXACT_DUP_SHARE + NEAR_DUP_SHARE:
            role[i] = "exact" if r < EXACT_DUP_SHARE else "near"
            src = rng.choice(eligible)
            source_of[i] = src
            role.setdefault(src, "source")
        elif r < EXACT_DUP_SHARE + NEAR_DUP_SHARE + SHORT_SHARE:
            role[i] = "short"
        else:
            eligible.append(i)

    docs: list[Document] = []
    labels: dict[str, LabelRecord] = {}
    for i, d in enumerate(base_docs):
        words, emoji = _split_emoji(d.text)
        rec = base_labels[d.id]
        kind = role.get(i)
        if kind in ("exact", "near"):
            src = docs[source_of[i]]
            copy = _exact_copy if kind == "exact" else _near_copy
            text = copy(rng, src.text)
            getattr(truth, kind)[d.id] = src.id
            rec = labels[src.id]
        elif kind == "short":
            text = f"{_handle(rng)} {rng.choice(words)} {emoji}"
            truth.short.add(d.id)
        else:
            words = _noise_words(rng, words)
            violence = False
            if rec.offensive and emoji in synth.SEED_EMOJIS and rng.random() < THREAT_SHARE:
                rule, phrase = _threat(rng, classes)
                k = rng.randint(0, len(words))
                words[k:k] = phrase
                truth.threats[d.id] = (rule, " ".join(fold(t) for t in phrase))
                violence = True
            if kind == "source":
                words.append(f"#وسم_{i}")  # unique, so only its copies come near it
            text = _assemble(rng, words + _emoji_tail(rng, emoji))
            if rec.offensive:
                rec = LabelRecord(
                    d.id,
                    True,
                    frozenset({rng.choice(_HATE_TARGETS)})
                    if rng.random() < HATE_SHARE
                    else frozenset(),
                    vulgar=rng.random() < VULGAR_SHARE,
                    violence=violence,
                )
        if emoji in synth.SEED_EMOJIS:
            truth.seed_ids.add(d.id)
            labels[d.id] = LabelRecord(
                d.id, rec.offensive, rec.hate_targets, rec.vulgar, rec.violence
            )
        docs.append(Document(id=d.id, text=text, created_at=d.created_at))

    write_corpus(os.path.join(work, "raw.jsonl"), docs)
    write_labels(os.path.join(work, "gold_labels.tsv"), labels.values())
    judged = [d for d in docs if d.id in truth.seed_ids]
    write_judgments(os.path.join(work, "judgments.tsv"), _judgments(rng, judged, labels))
    gate = sorted(rng.sample(sorted(truth.seed_ids), GATE_ITEMS))
    with open(os.path.join(work, "gate_answers.tsv"), "w", encoding="utf-8") as fh:
        fh.write("doc_id\tlabel\n")
        fh.writelines(f"{i}\t{int(labels[i].offensive)}\n" for i in gate)
    return truth, synth_s


def _judgments(
    rng: random.Random, docs: list[Document], labels: dict[str, LabelRecord]
) -> list[Judgment]:
    pool = [f"a{k:02d}" for k in range(ANNOTATOR_POOL)]
    out: list[Judgment] = []
    for d in docs:
        rec = labels[d.id]
        gold = {
            "offensive": str(int(rec.offensive)),
            "hate": next(iter(rec.hate_targets)) if rec.hate_targets else "none",
            "vulgar": str(int(rec.vulgar)),
            "violence": str(int(rec.violence)),
        }
        contradict = None
        if not rec.offensive and rng.random() < CONTRADICTION_RATE:
            contradict = rng.choice(("hate", "vulgar", "violence"))
        annotators = rng.sample(pool, ANNOTATORS_PER_DOC)
        for rank, a in enumerate(annotators):
            for job, label in gold.items():
                if job == contradict and rank < 2:
                    label = rng.choice(_HATE_TARGETS) if job == "hate" else "1"
                elif rng.random() < ANNOTATOR_ERROR_RATE:
                    if job == "hate":
                        label = rng.choice([t for t in ("none",) + _HATE_TARGETS if t != label])
                    else:
                        label = "0" if label == "1" else "1"
                out.append(Judgment(d.id, a, job, label, d.created_at))
    return out


def make_train_inputs(seed: int, work: str) -> float:
    """Labeled docs that all carry a seed emoji; returns seconds in synth."""
    t0 = time.perf_counter()
    docs, labels = synth.make_anchored_corpus(n_docs=TRAIN_DOCS, seed=seed, emoji_rate=1.0)
    synth_s = time.perf_counter() - t0
    write_corpus(os.path.join(work, "train.jsonl"), docs)
    write_labels(os.path.join(work, "train_labels.tsv"), labels.values())
    return synth_s


def make_score_inputs(seed: int, work: str) -> tuple[ScoreTruth, float]:
    """Fresh docs with the corpus workload's text noise, gold labels and
    explain request texts; returns the truth and seconds in synth."""
    t0 = time.perf_counter()
    docs, labels = synth.make_anchored_corpus(
        n_docs=SCORE_DOCS, seed=seed + _SCORE_SEED_OFFSET, emoji_rate=1.0
    )
    synth_s = time.perf_counter() - t0
    rng = random.Random(f"score:{seed}")
    fresh = []
    for d in docs:
        words, emoji = _split_emoji(d.text)
        text = _assemble(rng, _noise_words(rng, words) + _emoji_tail(rng, emoji))
        fresh.append(Document(id=d.id, text=text, created_at=d.created_at))
    write_corpus(os.path.join(work, "fresh.jsonl"), fresh)
    write_labels(os.path.join(work, "fresh_labels.tsv"), labels.values())
    picks = rng.sample(
        [k for k, d in enumerate(fresh) if len(d.text.split()) == EXPLAIN_WORDS], EXPLAIN_REQUESTS
    )
    truth = ScoreTruth(
        doc_ids=[d.id for d in fresh],
        explain_texts=[fresh[k].text for k in picks],
    )
    return truth, synth_s
