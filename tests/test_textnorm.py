from __future__ import annotations

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlex import emoji_ranges as er
from anchorlex.textnorm import (
    JACCARD_THRESHOLD,
    MIN_TOKENS,
    SHINGLE_SIZE,
    DropRecord,
    char_ngrams,
    dedup,
    dump_drops,
    jaccard,
    normalize,
    split_tokens,
    tokenize,
    word_ngrams,
)
from anchorlex.textnorm import _once

import emoji_reference
from conftest import doc

AR = "ابتثجكلبيو "  # small Arabic alphabet
MIXED = AR + "abz \U0001F437\U0001F52Aـًأةى\n@."


# --- normalization ---------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        # alef variants fold to bare alef
        ("أخي", "اخي"),
        ("إلى", "الي"),
        ("آخر", "اخر"),
        # taa marbuta to heh, alef maksura to yaa
        ("مدرسة", "مدرسه"),
        ("على", "علي"),
        # diacritics and tatweel stripped
        ("كَلْب", "كلب"),
        ("كــلب", "كلب"),
        # repeats squashed to two
        ("جدااااا", "جداا"),
        ("wooooow", "woow"),
        ("haha", "haha"),  # no run of 3+, untouched
        # mentions and urls become placeholders
        ("@someone hi", "@USER hi"),
        ("see http://a.b/c now", "see URL now"),
        ("see https://a.b/c?x=1 now", "see URL now"),
        ("www.site.com first", "URL first"),
        # emails are not mentions
        ("mail a@b.com", "mail a@b.com"),
        # newlines (any flavor) to single spaces
        ("a\nb\r\nc", "a b c"),
    ],
)
def test_normalize_cases(raw, expected):
    assert normalize(raw) == expected


def test_normalize_squash_applies_to_emoji_too():
    assert normalize("\U0001F437\U0001F437\U0001F437\U0001F437") == "\U0001F437\U0001F437"


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=MIXED, max_size=40))
def test_normalize_idempotent(s):
    once = normalize(s)
    assert normalize(once) == once


# --- tokenization ----------------------------------------------------------


# characters and whole URL and mention prefixes, which uniform draws rarely spell, and
# pieces whose first pass exposes a URL or a mention that only a second pass replaces
NOISY = [
    *MIXED, *"آإٰٓ\r\t:/", "http://", "https://", "www.", "@ab", "\r\n",
    "ـ@ab", "@ab\u064ecd", "htttp://", "hـttp://", "wwwـ.x", "@USER\u064eab",
]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(NOISY), max_size=20).map("".join))
def test_normalize_matches_per_call_reference(s):
    assert normalize(s) == emoji_reference.normalize(s)


@pytest.mark.parametrize(
    "raw",
    [
        "ـ@ab hi",  # tatweel deleted: the mention's look-behind now holds
        "@ab\u064ecd",  # @USER + fatha + cd: the mark's deletion joins cd to the placeholder
        "@USER\u064eab",
        "htttp://a.b",  # squashing completes the scheme
        "hـttp://a.b",
        "https\u064e://a.b",
        "a\rـ\nhttps\u064e://x @ـab",
    ],
)
def test_normalize_needs_a_second_pass(raw):
    once = _once(raw)
    assert _once(once) != once
    assert normalize(raw) == emoji_reference.normalize(raw)


def test_tokenize_words_and_emoji():
    toks = tokenize("يا كلب\U0001F437 end")
    assert toks == ["يا", "كلب", "\U0001F437", "end"]


def test_tokenize_keeps_clusters_whole():
    fam = "\U0001F468‍\U0001F469‍\U0001F466"
    assert tokenize(f"a {fam}\U0001F3FF b") == ["a", fam + "\U0001F3FF", "b"]
    assert tokenize("2️⃣ go") == ["2️⃣", "go"]
    assert tokenize("12\u20e3\u2139\ufe0fx") == ["1", "2\u20e3", "\u2139\ufe0f", "x"]


def test_tokenize_drops_punctuation():
    assert tokenize("a, b! (c)") == ["a", "b", "c"]
    assert tokenize("") == []


def test_only_u2139_and_ascii_digits_are_word_characters_that_start_a_cluster():
    # tokenize's word pattern leaves out exactly these; any other would let a word swallow a cluster's start
    starters = {
        *range(er.RI_LO, er.RI_HI + 1),
        *range(er.SKIN_TONE_LO, er.SKIN_TONE_HI + 1),
        *er.KEYCAP_BASES,
        *(cp for lo, hi in er.EXTENDED_PICTOGRAPHIC for cp in range(lo, hi + 1)),
    }
    assert {cp for cp in starters if re.fullmatch(r"\w", chr(cp))} == {0x2139, *map(ord, "0123456789")}


# Where a word and an emoji cluster meet: U+2139 (pictographic and \w) with
# and without VS16, keycaps with and without a digit before them, a digit
# and VS16 with no keycap, Arabic-Indic digits, lone skin tones, runs of
# regional indicators, ZWJ sequences, tags, "_" and the bare marks
TOKEN_PIECES = [
    "\u2139",
    "\u2139\ufe0f",
    "1\u20e3",
    "1\ufe0f\u20e3",
    "12\u20e3",
    "1\ufe0f",
    "#\u20e3",
    "*\u20e3",
    "\u0663\u0664",
    "\U0001F3FB",
    "\U0001F3FF",
    "\U0001F1E6",
    "\U0001F1E6\U0001F1E8",
    "\U0001F1E6" * 3,
    "\U0001F468\u200d\U0001F469\u200d\U0001F466",
    "\U0001F3F4\U000E0067\U000E0062\U000E007F",
    "_",
    "7",
    "ab",
    "كلب",
    " ",
    "#",
    "\ufe0f",
    "\u20e3",
    "\u200d",
    "\U0001F437",
]


@settings(max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=12).map("".join))
def test_tokenize_matches_segment_then_split_reference(s):
    assert tokenize(s) == emoji_reference.tokenize(s)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES + [".", "!!", "\n", "\u0640"]), max_size=12).map("".join))
def test_split_tokens_cuts_the_text_at_its_tokens(s):
    parts = split_tokens(s)
    assert parts[1::2] == tokenize(s)
    assert "".join(parts) == s
    assert len(parts) % 2 == 1


def test_split_tokens_keeps_empty_gaps():
    assert split_tokens("") == [""]
    assert split_tokens("ab, c\U0001F437\U0001F437") == ["", "ab", ", ", "c", "", "\U0001F437", "", "\U0001F437", ""]


def test_word_ngrams_counts():
    grams = word_ngrams(["a", "b", "a", "b"], 1, 2)
    assert grams["a"] == 2 and grams["b"] == 2
    assert grams["a b"] == 2 and grams["b a"] == 1


def test_char_ngrams_counts():
    grams = char_ngrams("abab", 2, 3)
    assert grams["ab"] == 2 and grams["ba"] == 1
    assert grams["aba"] == 1 and grams["bab"] == 1


@pytest.mark.parametrize("lo,hi", [(0, 2), (3, 2), (-1, 1)])
def test_ngram_range_validation(lo, hi):
    with pytest.raises(ValueError):
        word_ngrams(["a"], lo, hi)
    with pytest.raises(ValueError):
        char_ngrams("a", lo, hi)


# --- jaccard and dedup -----------------------------------------------------


def test_jaccard_edges():
    assert jaccard(frozenset(), frozenset()) == 1.0
    assert jaccard(frozenset({1}), frozenset()) == 0.0
    assert jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1 / 3)
    assert jaccard(frozenset({1, 2}), frozenset({1, 2})) == 1.0


def _brute_force_dedup(docs):
    """Reference O(n^2) re-implementation used as the dedup oracle."""
    from anchorlex.textnorm import _shingles  # test-only access

    placeholders = {"USER", "URL"}  # what @USER and URL tokenize to
    kept, dropped = [], []
    kept_norm, kept_sh = [], []
    for d in docs:
        norm = normalize(d.text)
        toks = [t for t in tokenize(norm) if t not in placeholders]
        if len(toks) < MIN_TOKENS:
            dropped.append((d.id, "short", None))
            continue
        if norm in kept_norm:
            dropped.append((d.id, "exact", kept[kept_norm.index(norm)].id))
            continue
        sh = _shingles(toks, SHINGLE_SIZE)
        hit = None
        for i, other in enumerate(kept_sh):
            if jaccard(sh, other) >= JACCARD_THRESHOLD:
                hit = kept[i].id
                break
        if hit is not None:
            dropped.append((d.id, "near", hit))
            continue
        kept.append(d)
        kept_norm.append(norm)
        kept_sh.append(sh)
    return kept, dropped


VOCAB = "abcdef"  # a closed vocabulary: shingles recur across docs, as in the synthetic stream


def _counted(text: str) -> list[str]:
    """The tokens dedup counts and shingles: placeholders aside."""
    return [t for t in tokenize(normalize(text)) if t not in ("USER", "URL")]


def _closed_vocab_stream(rng: random.Random) -> list[str]:
    """Up to 14 docs, each a small edit of one of a few base texts over VOCAB.

    Appending a word to a base of 5 distinct bigrams gives Jaccard exactly
    4/5 = JACCARD_THRESHOLD, and replacing one word lands just below it;
    cuts put docs at, just below and far below the MIN_TOKENS floor, and
    placeholder-only or empty docs have no counted token, so no shingle.
    """
    bases = [[rng.choice(VOCAB) for _ in range(rng.randint(0, 9))] for _ in range(rng.randint(1, 3))]
    texts = []
    for _ in range(rng.randint(0, 14)):
        toks = list(rng.choice(bases))
        edit = rng.choice(("copy", "append", "drop", "replace", "cut", "placeholders"))
        if edit == "append":
            toks.append(rng.choice(VOCAB))
        elif edit == "drop" and toks:
            del toks[rng.randrange(len(toks))]
        elif edit == "replace" and toks:
            toks[rng.randrange(len(toks))] = rng.choice(VOCAB)
        elif edit == "cut":
            toks = toks[: rng.choice((0, MIN_TOKENS - 1, MIN_TOKENS))]
        elif edit == "placeholders":
            toks.insert(rng.randint(0, len(toks)), rng.choice(("@someone", "http://x.co")))
        texts.append(" ".join(toks))
    return texts


LONG_VOCAB = [f"w{i}" for i in range(24)]


def _long_doc_stream(rng: random.Random) -> list[str]:
    """Up to 16 docs of about 10 to 60 shingles over LONG_VOCAB, each a few edits of an earlier doc.

    A doc of b shingles loses at most 2 to each replaced, inserted or
    deleted word, so 0 to b/8 edits land on both sides of the threshold,
    and cutting about a fifth of the words lands near it. Editing an
    edit chains near duplicates, so which kept doc a drop names depends
    on the order; sizes vary enough that the size bounds bind. One draw
    from ``rng`` seeds the rest: a stream makes hundreds of draws, and a
    Hypothesis-driven draw costs tens of microseconds.
    """
    rng = random.Random(rng.getrandbits(64))
    pool = [[rng.choice(LONG_VOCAB) for _ in range(rng.randint(11, 61))] for _ in range(rng.randint(1, 3))]
    texts = []
    for _ in range(rng.randint(2, 16)):
        toks = list(rng.choice(pool))
        if rng.random() < 0.25:
            cut = len(toks) // 5 + rng.randint(-1, 1)
            toks = toks[cut:] if rng.random() < 0.5 else toks[: len(toks) - cut]
        else:
            for _ in range(rng.randint(0, len(toks) // 8)):
                i = rng.randrange(len(toks))
                edit = rng.choice(("replace", "insert", "delete"))
                if edit == "replace":
                    toks[i] = rng.choice(LONG_VOCAB)
                elif edit == "insert":
                    toks.insert(i, rng.choice(LONG_VOCAB))
                elif len(toks) > 11:
                    del toks[i]
        pool.append(toks)
        texts.append(" ".join(toks))
    return texts


def test_dedup_hand_scenario():
    # base has 9 words (8 bigram shingles); d003 appends one word, so
    # jaccard = 8 shared / 9 union = 0.889 >= 0.8
    base = "w1 w2 w3 w4 w5 w6 w7 w8 w9"
    docs = [
        doc(0, base),
        doc(1, base),  # exact dup of d000
        doc(2, "@a @b http://x"),  # only placeholders: short
        doc(3, base + " w10"),  # near dup of d000
        doc(4, "كلام مختلف تماما هنا"),
    ]
    kept, dropped = dedup(docs)
    assert [d.id for d in kept] == ["d000", "d004"]
    by_id = {r.doc_id: r for r in dropped}
    assert by_id["d001"].reason == "exact" and by_id["d001"].duplicate_of == "d000"
    assert by_id["d002"].reason == "short"
    assert by_id["d003"].reason == "near" and by_id["d003"].duplicate_of == "d000"


def test_dedup_first_wins_order():
    docs = [doc(0, "a b c d e"), doc(1, "a b c d e f")]
    kept, dropped = dedup(docs)
    assert [d.id for d in kept] == ["d000"]
    assert dropped[0].doc_id == "d001"


def test_dedup_one_shingle_docs():
    # "a a a" and "a a a a" differ as texts but share their one shingle, so a
    # one-shingle doc needs one prefix hit where every longer doc needs two
    kept, dropped = dedup([doc(0, "a a a"), doc(1, "a a a a"), doc(2, "b b b")])
    assert [d.id for d in kept] == ["d000", "d002"]
    assert dropped == [DropRecord("d001", "near", "d000")]


def test_dedup_below_threshold_kept():
    # shingle overlap exists but jaccard < 0.8: both stay
    docs = [doc(0, "a b c d e"), doc(1, "a b x y z")]
    kept, _ = dedup(docs)
    assert len(kept) == 2


@settings(max_examples=450, deadline=None)
@given(stream=st.sampled_from([_closed_vocab_stream, _long_doc_stream]), rng=st.randoms(use_true_random=False))
def test_dedup_equals_brute_force(stream, rng):
    docs = [doc(i, t) for i, t in enumerate(stream(rng))]
    kept, dropped = dedup(docs)
    kept_ref, dropped_ref = _brute_force_dedup(docs)
    assert [d.id for d in kept] == [d.id for d in kept_ref]
    assert [(r.doc_id, r.reason, r.duplicate_of) for r in dropped] == dropped_ref


def test_closed_vocab_streams_reach_every_drop_rule_and_both_sides_of_the_threshold():
    # the oracle above is only as sharp as its inputs: at the fixed rule they
    # must drop docs for each reason, at the token floor, and at exactly the threshold
    from anchorlex.textnorm import _shingles

    def shingles(text):
        return _shingles(_counted(text), SHINGLE_SIZE)

    reasons, floor_kept, floor_short, empty, at_threshold, just_below = Counter(), 0, 0, 0, 0, 0
    for seed in range(300):
        texts = _closed_vocab_stream(random.Random(seed))
        docs = [doc(i, t) for i, t in enumerate(texts)]
        kept, dropped = dedup(docs)
        reasons.update(r.reason for r in dropped)
        by_id = {d.id: d.text for d in docs}
        short = {r.doc_id for r in dropped if r.reason == "short"}
        for d in docs:
            n = len(_counted(d.text))
            floor_kept += n == MIN_TOKENS and d.id not in short
            floor_short += n == MIN_TOKENS - 1 and d.id in short
            empty += n == 0
        for r in dropped:
            if r.reason == "near":
                at_threshold += jaccard(shingles(by_id[r.doc_id]), shingles(by_id[r.duplicate_of])) == JACCARD_THRESHOLD
        kept_sh = [shingles(d.text) for d in kept]
        just_below += sum(
            0.7 <= jaccard(a, b) < JACCARD_THRESHOLD for i, a in enumerate(kept_sh) for b in kept_sh[i + 1 :]
        )
    assert min(reasons["short"], reasons["exact"], reasons["near"]) >= 50, reasons
    assert min(floor_kept, floor_short, empty, at_threshold, just_below) >= 10, (
        floor_kept, floor_short, empty, at_threshold, just_below
    )


def test_long_doc_streams_reach_both_sides_of_the_threshold_and_the_size_bounds():
    from anchorlex.textnorm import _shingles

    near, at_threshold, just_below, chained, outside_sizes, sizes = 0, 0, 0, 0, 0, set()
    for seed in range(150):
        docs = [doc(i, t) for i, t in enumerate(_long_doc_stream(random.Random(seed)))]
        sh = {d.id: _shingles(_counted(d.text), SHINGLE_SIZE) for d in docs}
        sizes.update(map(len, sh.values()))
        kept, dropped = dedup(docs)
        near_of = {r.doc_id: r.duplicate_of for r in dropped if r.reason == "near"}
        kept_ids, kept_before = {d.id for d in kept}, []
        for d in docs:
            x = sh[d.id]
            if d.id in near_of:
                near += 1
                at_threshold += jaccard(x, sh[near_of[d.id]]) == JACCARD_THRESHOLD
                chained += sum(jaccard(x, sh[k]) >= JACCARD_THRESHOLD for k in kept_before) >= 2
            for k in kept_before:
                just_below += 0.7 <= jaccard(x, sh[k]) < JACCARD_THRESHOLD
                outside_sizes += bool(x & sh[k]) and not JACCARD_THRESHOLD * len(x) <= len(sh[k]) <= len(x) / JACCARD_THRESHOLD
            if d.id in kept_ids:
                kept_before.append(d.id)
    assert near >= 100 and min(at_threshold, just_below, chained, outside_sizes) >= 10, (
        near, at_threshold, just_below, chained, outside_sizes
    )
    assert min(sizes) <= 10 and max(sizes) >= 60, (min(sizes), max(sizes))


def _edge_pairs():
    """Every size pair (n, m), 3 <= n <= m <= 60, at which two shingle sets can have Jaccard exactly 4/5.

    With i shared shingles, i / (n + m - i) = 4/5 means 9i = 4(n + m), so
    n + m is a multiple of 9 and i <= n; no pair holds a set of 3.
    """
    return [(n, m, 4 * (n + m) // 9) for n in range(3, 61) for m in range(n, 61) if (n + m) % 9 == 0 and 4 * (n + m) // 9 <= n]


def _chain_pair(n, m, shared, short):
    """Two texts of n and m distinct word bigrams that share `shared` of them, or one fewer if `short`.

    Both start with the chain s0 .. s{shared}, which gives the shared
    bigrams, then go on with words of their own; `short` swaps the
    second's last chain word for a new one, so its size stays m.
    """
    chain = [f"s{k}" for k in range(shared + 1)]
    second = chain[:-1] + ["z"] if short else chain
    return " ".join(chain + [f"a{k}" for k in range(n - shared)]), " ".join(second + [f"b{k}" for k in range(m - shared)])


@pytest.mark.parametrize("n,m,shared", _edge_pairs())
def test_dedup_drops_a_pair_at_exactly_the_threshold_and_keeps_it_one_shared_shingle_short(n, m, shared):
    from anchorlex.textnorm import _shingles

    small, large = _chain_pair(n, m, shared, short=False)
    assert [len(_shingles(_counted(t), SHINGLE_SIZE)) for t in (small, large)] == [n, m]
    assert jaccard(*(_shingles(_counted(t), SHINGLE_SIZE) for t in (small, large))) == JACCARD_THRESHOLD
    for first, second in ((large, small), (small, large)):
        kept, dropped = dedup([doc(0, first), doc(1, second)])
        assert [d.id for d in kept] == ["d000"] and dropped == [DropRecord("d001", "near", "d000")], (first, second)
    small, large = _chain_pair(n, m, shared, short=True)
    for first, second in ((large, small), (small, large)):
        kept, dropped = dedup([doc(0, first), doc(1, second)])
        assert [d.id for d in kept] == ["d000", "d001"] and dropped == [], (first, second)


def test_dedup_no_kept_pair_meets_threshold():
    from anchorlex.textnorm import _shingles

    for seed in range(100):
        kept, _ = dedup([doc(i, t) for i, t in enumerate(_closed_vocab_stream(random.Random(seed)))])
        shs = [_shingles(_counted(d.text), SHINGLE_SIZE) for d in kept]
        for i in range(len(shs)):
            for j in range(i + 1, len(shs)):
                assert jaccard(shs[i], shs[j]) < JACCARD_THRESHOLD


# jaccard calls on the 5,000 docs of make_anchored_corpus(n_docs=5_000, seed=0)
# when dedup verified every kept doc that shared any shingle with the new doc,
# before its prefix, count and size filters
ALL_OVERLAPS_JACCARD_CALLS = 392_980


def test_dedup_verifies_at_least_ten_times_fewer_pairs_than_every_overlap(monkeypatch):
    from anchorlex import synth, textnorm

    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return jaccard(a, b)

    monkeypatch.setattr(textnorm, "jaccard", counted)
    docs, _ = synth.make_anchored_corpus(n_docs=5_000, seed=0)
    kept, dropped = dedup(docs)
    assert len(kept) + len(dropped) == 5_000
    assert 0 < calls * 10 <= ALL_OVERLAPS_JACCARD_CALLS, calls


def test_dump_drops_format():
    text = dump_drops([DropRecord("a", "near", "b"), DropRecord("c", "short")])
    assert text.splitlines() == ["doc_id\treason\tduplicate_of", "a\tnear\tb", "c\tshort\t"]
