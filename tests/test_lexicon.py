from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlex.corpus import LabelRecord
from anchorlex.lexicon import (
    TermCounts,
    dump_lexicon,
    mine_class_lexicon,
    mine_from_counts,
    valence,
)
from anchorlex.textnorm import normalize, tokenize

from conftest import doc, label

WORDS = ["كلب", "جميل", "bad", "ok", "x1", "x2", "x3"]


def brute_force_valence(term: str, off_texts: list[str], cln_texts: list[str]) -> Fraction:
    """Independent recount straight from raw texts, in exact rationals."""
    off_tokens = [t for s in off_texts for t in tokenize(normalize(s))]
    cln_tokens = [t for s in cln_texts for t in tokenize(normalize(s))]
    r_off = Fraction(off_tokens.count(term), len(off_tokens))
    r_cln = Fraction(cln_tokens.count(term), len(cln_tokens))
    return 2 * (r_off / (r_off + r_cln)) - 1


# --- the score -------------------------------------------------------------


def test_valence_hand_value():
    counts = TermCounts(n_off={"t": 8}, n_cln={"t": 1}, total_off=100, total_cln=200)
    # r_off = 0.08, r_cln = 0.005 -> 2 * (0.08 / 0.085) - 1
    assert valence("t", counts) == pytest.approx(0.8823529411764706, abs=1e-12)


def test_valence_extremes_and_midpoint():
    only_off = TermCounts(n_off={"t": 3}, n_cln={}, total_off=10, total_cln=10)
    only_cln = TermCounts(n_off={}, n_cln={"t": 3}, total_off=10, total_cln=10)
    balanced = TermCounts(n_off={"t": 2}, n_cln={"t": 4}, total_off=10, total_cln=20)
    assert valence("t", only_off) == 1.0
    assert valence("t", only_cln) == -1.0
    assert valence("t", balanced) == pytest.approx(0.0, abs=1e-15)


def test_valence_errors():
    with pytest.raises(ValueError):
        valence("t", TermCounts(n_off={"t": 1}, n_cln={}, total_off=0, total_cln=5))
    with pytest.raises(ValueError):
        valence("t", TermCounts(n_off={"t": 1}, n_cln={}, total_off=5, total_cln=0))
    with pytest.raises(ValueError):
        valence("nope", TermCounts(n_off={"t": 1}, n_cln={}, total_off=5, total_cln=5))


def test_valence_matches_brute_force_recount():
    rng = random.Random(11)
    for trial in range(20):
        off = [" ".join(rng.choices(WORDS, k=rng.randint(1, 30))) for _ in range(rng.randint(1, 10))]
        cln = [" ".join(rng.choices(WORDS, k=rng.randint(1, 30))) for _ in range(rng.randint(1, 10))]
        counts = TermCounts.from_texts(off, cln)
        for term in counts.terms:
            expected = brute_force_valence(term, off, cln)
            assert valence(term, counts) == pytest.approx(float(expected), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    n_off=st.integers(min_value=1, max_value=10**6),
    n_cln=st.integers(min_value=1, max_value=10**6),
    total_off=st.integers(min_value=10**6, max_value=10**8),
    total_cln=st.integers(min_value=10**6, max_value=10**8),
    scale=st.integers(min_value=1, max_value=1000),
)
def test_valence_antisymmetry_and_scale_invariance(n_off, n_cln, total_off, total_cln, scale):
    a = TermCounts(n_off={"t": n_off}, n_cln={"t": n_cln}, total_off=total_off, total_cln=total_cln)
    swapped = TermCounts(n_off={"t": n_cln}, n_cln={"t": n_off}, total_off=total_cln, total_cln=total_off)
    assert valence("t", a) == pytest.approx(-valence("t", swapped), abs=1e-12)
    scaled = TermCounts(
        n_off={"t": n_off * scale},
        n_cln={"t": n_cln},
        total_off=total_off * scale,
        total_cln=total_cln,
    )
    assert valence("t", a) == pytest.approx(valence("t", scaled), abs=1e-12)


# --- counting --------------------------------------------------------------


def test_from_texts_counts_occurrences_not_docs():
    counts = TermCounts.from_texts(["كلب كلب"], ["x"])
    assert counts.n_off["كلب"] == 2
    assert counts.total_off == 2 and counts.total_cln == 1


def test_from_texts_normalizes_first():
    counts = TermCounts.from_texts(["أخي"], ["اخي"])
    # alef variants collapse, so both sides count the same surface form
    assert counts.n_off == {"اخي": 1}
    assert counts.n_cln == {"اخي": 1}


def test_freq_is_combined_occurrences():
    counts = TermCounts(n_off={"t": 3}, n_cln={"t": 4}, total_off=10, total_cln=10)
    assert counts.freq("t") == 7


# --- mining ----------------------------------------------------------------


def test_mine_from_counts_thresholds():
    counts = TermCounts.from_texts(["bad bad bad bad bad rare"], ["ok ok ok ok ok ok"])
    terms = [e.term for e in mine_from_counts(counts, min_valence=0.8, min_freq=5)]
    assert "bad" in terms  # freq 5, valence 1.0
    assert "rare" not in terms  # freq 1 < 5
    assert "ok" not in terms  # valence -1


def test_mine_valence_boundary_inclusive():
    # craft a term at valence exactly 0.8: r_off/(r_off+r_cln) = 0.9
    # totals equal -> need n_off = 9 * n_cln
    off = [" ".join(["t"] * 9 + ["f"] * 11)]
    cln = [" ".join(["t"] * 1 + ["f"] * 19)]
    entries = mine_from_counts(TermCounts.from_texts(off, cln), min_valence=0.8, min_freq=5)
    got = {e.term: e for e in entries}
    assert "t" in got
    assert got["t"].valence == pytest.approx(0.8, abs=1e-12)


def test_mine_sort_order():
    off = ["zz zz zz zz zz aa aa aa aa aa mid mid mid mid mid mid"]
    cln = ["mid other other other other other"]
    entries = mine_from_counts(TermCounts.from_texts(off, cln), min_valence=0.0, min_freq=5)
    # primary: valence desc; tie at 1.0 between aa/zz broken by freq then term
    assert [e.term for e in entries][:2] == ["aa", "zz"]
    v = [e.valence for e in entries]
    assert v == sorted(v, reverse=True)


def test_mine_lexicon_empty_partition_errors():
    docs = [doc(0, "x words here"), doc(1, "y words there")]
    all_pos = {"d000": label(0, offensive=True), "d001": label(1, offensive=True)}
    all_neg = {"d000": label(0), "d001": label(1)}
    with pytest.raises(ValueError, match="non-empty"):
        mine_class_lexicon(docs, all_pos, "offensive")
    with pytest.raises(ValueError, match="non-empty"):
        mine_class_lexicon(docs, all_neg, "offensive")


def test_mine_class_lexicon_targets_violence(tiny_corpus):
    docs, labels = tiny_corpus
    entries = mine_class_lexicon(docs, labels, "violence", min_valence=0.5, min_freq=1)
    assert any(e.term == "حقير" for e in entries)


def test_mine_class_lexicon_rejects_unknown_class(tiny_corpus):
    docs, labels = tiny_corpus
    with pytest.raises(ValueError):
        mine_class_lexicon(docs, labels, "sarcasm")


def test_dump_lexicon_format():
    counts = TermCounts.from_texts(["bad bad bad bad bad"], ["ok ok ok ok ok"])
    text = dump_lexicon(mine_from_counts(counts, min_freq=5))
    lines = text.splitlines()
    assert lines[0] == "term\tn_off\tn_cln\tvalence"
    assert lines[1] == "bad\t5\t0\t1.000000"
