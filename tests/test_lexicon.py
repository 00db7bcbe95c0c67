from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlex.lexicon import dump_lexicon, mine_class_lexicon, valence
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


def mine(off_texts: list[str], cln_texts: list[str], min_valence: float = 0.8, min_freq: int = 5):
    """mine_class_lexicon over offensive docs off_texts and clean docs cln_texts."""
    docs = [doc(i, t) for i, t in enumerate(off_texts + cln_texts)]
    labels = {d.id: label(i, offensive=i < len(off_texts)) for i, d in enumerate(docs)}
    return mine_class_lexicon(docs, labels, "offensive", min_valence=min_valence, min_freq=min_freq)


# --- the score -------------------------------------------------------------


def test_valence_hand_value():
    # r_off = 8/100 = 0.08, r_cln = 1/200 = 0.005 -> 2 * (0.08 / 0.085) - 1
    assert valence(8, 1, 100, 200) == pytest.approx(0.8823529411764706, abs=1e-12)


def test_valence_extremes_and_midpoint():
    assert valence(3, 0, 10, 10) == 1.0
    assert valence(0, 3, 10, 10) == -1.0
    assert valence(2, 4, 10, 20) == pytest.approx(0.0, abs=1e-15)


def test_valence_errors():
    # valence is undefined over a partition without tokens: mining refuses it
    docs = [doc(0, "x words here"), doc(1, "!!! ...")]
    labels = {"d000": label(0, offensive=True), "d001": label(1)}
    with pytest.raises(ValueError, match="both partitions must contain tokens"):
        mine_class_lexicon(docs, labels, "offensive")
    labels = {"d000": label(0), "d001": label(1, offensive=True)}
    with pytest.raises(ValueError, match="both partitions must contain tokens"):
        mine_class_lexicon(docs, labels, "offensive")


def test_valence_matches_brute_force_recount():
    rng = random.Random(11)
    for trial in range(20):
        off = [" ".join(rng.choices(WORDS, k=rng.randint(1, 30))) for _ in range(rng.randint(1, 10))]
        cln = [" ".join(rng.choices(WORDS, k=rng.randint(1, 30))) for _ in range(rng.randint(1, 10))]
        entries = mine(off, cln, min_valence=-1.0, min_freq=1)
        assert {e.term for e in entries} == {t for s in off + cln for t in tokenize(normalize(s))}
        for e in entries:
            expected = brute_force_valence(e.term, off, cln)
            assert e.valence == pytest.approx(float(expected), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    n_off=st.integers(min_value=1, max_value=10**6),
    n_cln=st.integers(min_value=1, max_value=10**6),
    total_off=st.integers(min_value=10**6, max_value=10**8),
    total_cln=st.integers(min_value=10**6, max_value=10**8),
    scale=st.integers(min_value=1, max_value=1000),
)
def test_valence_antisymmetry_and_scale_invariance(n_off, n_cln, total_off, total_cln, scale):
    v = valence(n_off, n_cln, total_off, total_cln)
    assert v == pytest.approx(-valence(n_cln, n_off, total_cln, total_off), abs=1e-12)
    assert v == pytest.approx(valence(n_off * scale, n_cln, total_off * scale, total_cln), abs=1e-12)


# --- counting --------------------------------------------------------------


def test_from_texts_counts_occurrences_not_docs():
    (e,) = mine(["كلب كلب"], ["x"], min_valence=-1.0, min_freq=2)
    assert (e.term, e.n_off, e.n_cln) == ("كلب", 2, 0)
    # 2 of 2 offensive tokens against 0 of 1 clean
    assert e.valence == 1.0


def test_from_texts_normalizes_first():
    # alef variants collapse, so both sides count the same surface form
    (e,) = mine(["أخي"], ["اخي"], min_valence=-1.0, min_freq=1)
    assert (e.term, e.n_off, e.n_cln) == ("اخي", 1, 1)


def test_freq_is_combined_occurrences():
    off, cln = ["t t t a"], ["t t t t b"]
    # t occurs 3 + 4 = 7 times over both partitions
    assert [e.term for e in mine(off, cln, min_valence=-1.0, min_freq=7)] == ["t"]
    assert mine(off, cln, min_valence=-1.0, min_freq=8) == []


# --- mining ----------------------------------------------------------------


def test_mine_from_counts_thresholds():
    terms = [e.term for e in mine(["bad bad bad bad bad rare"], ["ok ok ok ok ok ok"])]
    assert "bad" in terms  # freq 5, valence 1.0
    assert "rare" not in terms  # freq 1 < 5
    assert "ok" not in terms  # valence -1


def test_mine_valence_boundary_inclusive():
    # craft a term at valence exactly 0.8: r_off/(r_off+r_cln) = 0.9
    # totals equal -> need n_off = 9 * n_cln
    off = [" ".join(["t"] * 9 + ["f"] * 11)]
    cln = [" ".join(["t"] * 1 + ["f"] * 19)]
    entries = mine(off, cln)
    got = {e.term: e for e in entries}
    assert "t" in got
    assert got["t"].valence == pytest.approx(0.8, abs=1e-12)


def test_mine_sort_order():
    off = ["zz zz zz zz zz aa aa aa aa aa mid mid mid mid mid mid"]
    cln = ["mid other other other other other"]
    entries = mine(off, cln, min_valence=0.0)
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
    text = dump_lexicon(mine(["bad bad bad bad bad"], ["ok ok ok ok ok"]))
    lines = text.splitlines()
    assert lines[0] == "term\tn_off\tn_cln\tvalence"
    assert lines[1] == "bad\t5\t0\t1.000000"
