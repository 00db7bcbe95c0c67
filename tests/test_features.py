from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorlex import features
from anchorlex.features import MODES, FeatureConfig, fit_features, fit_transform, vectorize
from anchorlex.textnorm import char_ngrams, tokenize, word_ngrams

import score_reference


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(mode="bytes")
    with pytest.raises(ValueError):
        FeatureConfig(char_range=(0, 3))
    with pytest.raises(ValueError):
        FeatureConfig(word_range=(3, 1))
    # a bound must be an int: not a float, not a bool
    for bad in ((1, 2.0), (True, 2), (1.0, 1.0)):
        with pytest.raises(ValueError, match="bad n-gram range"):
            FeatureConfig(char_range=bad)


def test_fit_rejects_empty_corpus():
    with pytest.raises(ValueError):
        fit_features([], FeatureConfig())


def test_vocabulary_sorted_and_namespaced():
    space = fit_features(["ab", "ba"], FeatureConfig(mode="char+word", char_range=(2, 2), word_range=(1, 1)))
    grams = sorted(space.vocabulary, key=space.vocabulary.get)
    assert grams == sorted(grams)
    assert any(g.startswith("c:") for g in grams)
    assert any(g.startswith("w:") for g in grams)
    # identical surface, distinct namespaces
    assert "c:ab" in space.vocabulary and "w:ab" in space.vocabulary


def test_idf_formula_hand_checked():
    # word unigrams over two docs: "a" in both, "b" in one
    space = fit_features(["a b", "a"], FeatureConfig(mode="word", word_range=(1, 1)))
    idf_a = space.idf[space.vocabulary["w:a"]]
    idf_b = space.idf[space.vocabulary["w:b"]]
    assert idf_a == pytest.approx(math.log(3 / 3) + 1.0, abs=1e-12)
    assert idf_b == pytest.approx(math.log(3 / 2) + 1.0, abs=1e-12)


def test_df_counts_documents_not_occurrences():
    # "a" twice in one doc still has df=1
    space = fit_features(["a a", "b"], FeatureConfig(mode="word", word_range=(1, 1)))
    assert space.idf[space.vocabulary["w:a"]] == pytest.approx(math.log(3 / 2) + 1.0, abs=1e-12)


def test_vectorize_hand_example():
    cfg = FeatureConfig(mode="word", word_range=(1, 2))
    space = fit_features(["a b", "a c"], cfg)
    vec = vectorize("a b", space)
    idf_a = math.log(3 / 3) + 1
    idf_b = math.log(3 / 2) + 1
    idf_ab = math.log(3 / 2) + 1
    raw = {"w:a": 1 * idf_a, "w:b": 1 * idf_b, "w:a b": 1 * idf_ab}
    norm = math.sqrt(sum(v * v for v in raw.values()))
    expected = {space.vocabulary[g]: v / norm for g, v in raw.items()}
    assert set(vec) == set(expected)
    for k, v in expected.items():
        assert vec[k] == pytest.approx(v, abs=1e-12)


def test_vectorize_drops_oov_and_can_be_empty():
    space = fit_features(["aaa"], FeatureConfig(mode="word", word_range=(1, 1)))
    assert vectorize("zzz", space) == {}


def test_tf_weighting_uses_counts():
    space = fit_features(["a b", "c d"], FeatureConfig(mode="word", word_range=(1, 1)))
    vec = vectorize("a a b", space)
    ia, ib = space.vocabulary["w:a"], space.vocabulary["w:b"]
    # same idf; tf 2 vs 1 must carry through before normalization
    assert vec[ia] == pytest.approx(2 * vec[ib], abs=1e-12)


def test_char_mode_spans_spaces():
    space = fit_features(["a b"], FeatureConfig(mode="char", char_range=(2, 2)))
    assert "c:a " in space.vocabulary and "c: b" in space.vocabulary


def test_modes_restrict_namespaces():
    char_only = fit_features(["ab"], FeatureConfig(mode="char", char_range=(2, 2)))
    word_only = fit_features(["ab"], FeatureConfig(mode="word", word_range=(1, 1)))
    assert all(g.startswith("c:") for g in char_only.vocabulary)
    assert all(g.startswith("w:") for g in word_only.vocabulary)


def test_fit_transform_rows_align_with_texts():
    cfg = FeatureConfig(mode="word", word_range=(1, 1))
    space, (indptr, cols, vals) = fit_transform(["b a", "a"], cfg)
    a, b = space.vocabulary["w:a"], space.vocabulary["w:b"]
    assert (indptr.tolist(), cols.tolist()) == ([0, 2, 3], [a, b, a])
    assert vals[2] == 1.0


def _rows(X):
    indptr, cols, vals = X
    return [
        dict(zip(cols[a:b].tolist(), vals[a:b].tolist()))
        for a, b in zip(indptr[:-1], indptr[1:])
    ]


# NUL, lone surrogates, a keycap, ZWJ, U+2139 (a word character and a
# pictograph), a skin tone and a ZWJ sequence; "ab" is a prefix of "abc"
FIT_PIECES = [
    "a", "b", "ab", "abc", " ", "كل", "\u0640", "!", "\0", "\ud83d", "\udcff", "1\ufe0f\u20e3",
    "\u200d", "\u2139", "\U0001F437", "\U0001F3FB", "\U0001F468\u200d\U0001F469",
]


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from(FIT_PIECES), max_size=8).map("".join), min_size=1, max_size=8),
    mode=st.sampled_from(MODES),
    char_range=st.tuples(st.integers(1, 3), st.integers(0, 2)).map(lambda t: (t[0], t[0] + t[1])),
    word_range=st.tuples(st.integers(1, 3), st.integers(0, 2)).map(lambda t: (t[0], t[0] + t[1])),
)
@example(texts=["ab c", "abc", "ab"], mode="word", char_range=(1, 1), word_range=(1, 2))
@example(texts=["a", "b c"], mode="char+word", char_range=(2, 3), word_range=(1, 1))  # no char gram in one text
@example(texts=["a", "\U0001F437"], mode="char+word", char_range=(3, 3), word_range=(1, 1))  # no char gram
@example(texts=["ab!", "! !"], mode="char+word", char_range=(1, 2), word_range=(2, 3))  # no word gram
@example(texts=["", "x"], mode="char+word", char_range=(2, 2), word_range=(2, 2))  # no gram at all
def test_fit_transform_equals_two_pass_fit_and_vectorize(texts, mode, char_range, word_range):
    # fit_transform gives the old two-pass space, vocabulary order
    # included, and rows equal to vectorize's (and the old vectorize's)
    # to the bit, columns ascending.
    cfg = FeatureConfig(mode=mode, char_range=char_range, word_range=word_range)
    space, X = fit_transform(texts, cfg)
    old = score_reference.fit_features(texts, cfg)
    assert list(space.vocabulary.items()) == list(old.vocabulary.items()) and space.n_docs == old.n_docs
    assert space.idf.tobytes() == old.idf.tobytes()
    assert fit_features(texts, cfg).idf.tobytes() == old.idf.tobytes()
    indptr, cols, _ = X
    assert all(list(cols[a:b]) == sorted(cols[a:b]) for a, b in zip(indptr[:-1], indptr[1:]))
    assert _rows(X) == [vectorize(t, space) for t in texts] == score_reference.vectorize_all(texts, old)


BLOCK_TEXT = st.lists(st.sampled_from([*FIT_PIECES, "ab ab ab", "zz", "?"]), max_size=10).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    train=st.lists(st.lists(st.sampled_from(FIT_PIECES), max_size=8).map("".join), min_size=1, max_size=6),
    block=st.lists(BLOCK_TEXT, max_size=8),
    repeats=st.integers(0, 3),
    mode=st.sampled_from(MODES),
    char_range=st.tuples(st.integers(1, 3), st.integers(0, 2)).map(lambda t: (t[0], t[0] + t[1])),
    word_range=st.tuples(st.integers(1, 3), st.integers(0, 2)).map(lambda t: (t[0], t[0] + t[1])),
    branch=st.sampled_from(["value sort", "packed key", "lexsort"]),
)
@example(train=["ab c"], block=[], repeats=0, mode="char+word", char_range=(1, 2), word_range=(1, 2),
         branch="value sort")
@example(train=["ab c"], block=["zz", "?"], repeats=0, mode="char+word", char_range=(1, 2), word_range=(1, 1),
         branch="value sort")  # no hits
@example(train=["ab ab ab c"], block=["ab ab ab"], repeats=0, mode="char+word", char_range=(1, 3),
         word_range=(1, 2), branch="value sort")  # one row of repeated grams
@example(train=["ab ab ab c"], block=["ab ab ab"], repeats=0, mode="char+word", char_range=(1, 3),
         word_range=(1, 2), branch="packed key")
@example(train=["ab c", "b"], block=["ab c", "c ab"], repeats=2, mode="word", char_range=(1, 1), word_range=(1, 2),
         branch="lexsort")  # repeated texts
def test_counts_equal_the_three_sort_reference(train, block, repeats, mode, char_range, word_range, branch):
    space = fit_features(train, FeatureConfig(mode=mode, char_range=char_range, word_range=word_range))
    block = block + block[:1] * repeats
    want = score_reference.counts(block, space)  # builds the gram index, which reads features._TOP
    # the branches for blocks whose key * n_hits + hit index, or whose (row, first) key, would overflow int64
    n_hits = len(features._gram_keys(block, space))
    top = {"value sort": features._TOP, "packed key": len(block) * n_hits, "lexsort": -1}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_TOP", top[branch])
        got = features._counts(block, space)
    assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(st.text(alphabet="abc كل", min_size=1, max_size=12), min_size=1, max_size=6),
    query=st.text(alphabet="abc كل", min_size=0, max_size=12),
)
def test_vectors_are_unit_norm_or_empty(corpus, query):
    try:
        space = fit_features(corpus, FeatureConfig())
    except ValueError:
        return  # corpus with no grams at all
    vec = vectorize(query, space)
    if vec:
        norm = math.sqrt(sum(v * v for v in vec.values()))
        assert norm == pytest.approx(1.0, abs=1e-9)


GRAM_TEXT = st.text(
    alphabet=st.sampled_from(list("ابغي حقير") + ["\U0001F437", "\U0001F3FF", "\u200d", "!", "@"])
    | st.characters(),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(text=GRAM_TEXT, lo=st.integers(1, 3), width=st.integers(0, 3))
def test_grams_match_loop_counters_items_and_order(text, lo, width):
    want = score_reference.char_ngrams(text, lo, lo + width)
    assert list(char_ngrams(text, lo, lo + width).items()) == list(want.items())
    tokens = tokenize(text)
    want = score_reference.word_ngrams(tokens, lo, lo + width)
    assert list(word_ngrams(tokens, lo, lo + width).items()) == list(want.items())
