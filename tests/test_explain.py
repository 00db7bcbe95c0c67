from __future__ import annotations

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anchorlex.corpus import DatasetSplit, load_corpus, load_labels, stratified_split
from anchorlex.explain import KERNEL_WIDTH, RIDGE_LAMBDA, TOP_K, dump_explanation, explain
from anchorlex.features import FeatureConfig, FeatureSpace
from anchorlex.linear import LinearModel, predict_texts, score_text, score_texts, train_model
from anchorlex.textnorm import normalize, split_tokens, tokenize

import score_reference
from golden_corpus import load_gen
from separable_corpus import make_separable_corpus

# the package re-exports the function explain under the module's name
explain_mod = importlib.import_module("anchorlex.explain")


def _model(seed=0):
    docs, labels = make_separable_corpus(n_docs=120, seed=seed)
    split = stratified_split(labels, seed=seed)
    return train_model(docs, labels, split, seed=seed)


def _toy_model(weights, vocab_words, bias=0.1):
    """Word-unigram model with hand-set weights; idf all ones."""
    vocabulary = {f"w:{w}": i for i, w in enumerate(vocab_words)}
    space = FeatureSpace(
        config=FeatureConfig(mode="word", word_range=(1, 1)),
        vocabulary=vocabulary,
        idf=np.ones(len(vocab_words)),
        n_docs=2,
    )
    return LinearModel(
        space=space,
        weights=np.asarray(weights, dtype=float),
        bias=bias,
        C=1.0,
        seed=0,
        target="offensive",
        objective_trace=(0.0,),
        duality_gap=0.0,
        converged=True,
    )


# --- the surrogate fit ---------------------------------------------------------


def test_explain_deterministic_in_seed():
    model = _model()
    text = "يا غبي يا حقير جدا"
    a = explain(text, model, n_samples=300, seed=5)
    b = explain(text, model, n_samples=300, seed=5)
    c = explain(text, model, n_samples=300, seed=6)
    assert a.attributions == b.attributions
    assert a.attributions != c.attributions


def test_explain_single_token_closed_form():
    # one token, so masks are 0/1 scalars and weighted ridge collapses to
    #   beta1 = (s1 - s0) / (1 + lam/A + lam/B)
    # with A = total kernel weight of kept-masks (1 each) and B of
    # empty-masks (exp(-1/kw^2) each). Derived by solving the 2x2 normal
    # equations by hand; recomputed here from the very masks the
    # explainer draws.
    model = _toy_model(weights=[2.0], vocab_words=["bad"])
    n, lam, kw, seed = 400, RIDGE_LAMBDA, KERNEL_WIDTH, 11
    ex = explain("bad", model, n_samples=n, seed=seed)

    masks = np.random.default_rng(seed).integers(0, 2, size=(n, 1))
    n1 = int(masks.sum())
    n0 = n - n1
    A = float(n1)  # kernel weight exp(0) = 1 per kept sample
    B = n0 * math.exp(-1.0 / kw**2)
    s1 = score_text(model, "bad")
    s0 = score_text(model, "")
    beta1 = (s1 - s0) / (1.0 + lam / A + lam / B)
    beta0 = s1 - (1.0 + lam / A) * beta1

    assert ex.tokens == ("bad",)
    assert ex.attributions[0] == pytest.approx(beta1, abs=1e-9)
    assert ex.intercept == pytest.approx(beta0, abs=1e-9)
    assert ex.score_full == pytest.approx(s1) and ex.score_empty == pytest.approx(s0)


@pytest.mark.parametrize(
    "text",
    ["يا غبي يا حقير جدا \U0001F437", "سلام غبي ورد غبي", "غبي", "@user  سلام، غبي!!\U0001F437\U0001F437.."],
)
def test_explain_scores_its_samples_in_one_batch_like_the_reference(monkeypatch, text):
    model = _model()
    calls = []

    def recording(model, texts):
        scores = score_texts(model, texts)
        calls.append((list(texts), scores))
        return scores

    monkeypatch.setattr(explain_mod, "score_texts", recording)
    n, seed = 300, 4
    ex = explain(text, model, n_samples=n, seed=seed)
    [(texts, scores)] = calls
    # a sample is the normalized text with its masked tokens cut out and every gap kept
    norm = normalize(text)
    parts = split_tokens(norm)
    assert ex.tokens == tuple(parts[1::2])
    masks = np.random.default_rng(seed).integers(0, 2, size=(n, len(ex.tokens)))
    samples = []
    for row in masks:
        sample = parts[0]
        for k, keep in enumerate(row):
            sample += (parts[2 * k + 1] if keep else "") + parts[2 * k + 2]
        samples.append(sample)
    assert texts == samples + [norm, "".join(parts[::2])]
    assert scores == [score_reference.score_text(model, t, True) for t in texts]
    assert (ex.score_full, ex.score_empty) == (scores[-2], scores[-1])


# what normalize rewrites or that segments oddly: tatweel, tashkeel, letter
# folds, URL and mention starts, keycap bases (one with a tatweel before
# U+20E3), skin tones, ZWJ, regional indicators, CR/LF and runs
SAMPLE_PIECES = [
    "\u0640", "\u064e", "\u0651", "\u0623", "\u0625", "\u0622", "\u0629", "\u0649", "\u064a",
    "\u0627", "\u0628", "\u063a\u0628\u064a", " ", "www", ".", "://", "http", "@", "x", "1", "#",
    "\ufe0f", "\u20e3", "1\u0640\u20e3", "\U0001F44D", "\U0001F3FB", "\U0001F3FF", "\u200d",
    "\U0001F1F8", "\U0001F1E6", "\r", "\n", "\r\n", "ooo", "!!!", "\U0001F437" * 3, "\u2764",
]


@pytest.fixture(scope="module")
def fuzz_model():
    return _model(seed=1)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(SAMPLE_PIECES), min_size=1, max_size=16), seed=st.integers(0, 2**16))
def test_explain_score_full_is_the_predict_score_on_fuzzed_texts(fuzz_model, pieces, seed):
    text = "".join(pieces)
    assume(tokenize(normalize(text)))
    score_full = explain(text, fuzz_model, n_samples=20, seed=seed).score_full
    assert score_full.hex() == predict_texts(fuzz_model, [text])[0][1].hex()


def test_explain_score_full_is_the_predict_score_on_every_doc_of_a_corpus(tmp_path):
    # the score workload's inputs at seed 7: emoji on every doc, mentions, URLs and text noise
    gen = load_gen()
    gen.make_train_inputs(7, str(tmp_path))
    gen.make_score_inputs(7, str(tmp_path))
    labels = load_labels(str(tmp_path / "train_labels.tsv"))
    split = DatasetSplit(frozenset(labels), frozenset(), frozenset())
    model = train_model(load_corpus(str(tmp_path / "train.jsonl")), labels, split, seed=7)
    texts = [d.text for d in load_corpus(str(tmp_path / "fresh.jsonl"))]
    want = [s.hex() for _, s in predict_texts(model, texts)]
    assert [explain(t, model, n_samples=1).score_full.hex() for t in texts] == want


def _word_model(weights, bias=0.1):
    """A word 1-2 gram model with hand-set weights per w: entry; idf all ones."""
    space = FeatureSpace(
        config=FeatureConfig(mode="word", word_range=(1, 2)),
        vocabulary={g: i for i, g in enumerate(weights)},
        idf=np.ones(len(weights)),
        n_docs=2,
    )
    return replace(_toy_model([], []), space=space, weights=np.array(list(weights.values())), bias=bias)


def test_explain_keeps_the_word_bigram_of_two_tokens_that_touch():
    # no space in the text, yet its two tokens form the bigram, whose entry holds one
    model = _word_model({"w:غبي": 0.5, "w:غبي \U0001F437": 2.0, "w:\U0001F437": 0.25})
    text = "غبي\U0001F437"
    ex = explain(text, model, n_samples=50, seed=2)
    assert ex.tokens == ("غبي", "\U0001F437")
    assert ex.score_full.hex() == predict_texts(model, [text])[0][1].hex()
    assert ex.score_full != score_texts(_word_model({"w:غبي": 0.5, "w:\U0001F437": 0.25}), [text])[0]


def test_explain_keeps_the_grams_that_normalize_brings_in():
    # the raw text holds none of the letters of URL and USER; its normalized form does
    model = _word_model({"w:USER": 1.0, "w:غبي": 0.5, "w:URL": -3.0, "w:USER غبي": 0.75})
    raw = "@ali غبي http://x.co"
    ex = explain(raw, model, n_samples=50, seed=2)
    assert ex.tokens == ("USER", "غبي", "URL")
    assert ex.score_full.hex() == predict_texts(model, [raw])[0][1].hex()
    assert ex.score_full != score_texts(_word_model({"w:غبي": 0.5}), [normalize(raw)])[0]


def test_explain_ranks_marker_tokens_first():
    model = _model()
    ex = explain("سلام غبي ورد", model, n_samples=600, seed=0)
    top_token, top_attr = ex.top[0]
    assert top_token == "غبي"  # the offensive marker dominates
    assert top_attr > 0
    by_token = dict(zip(ex.tokens, ex.attributions))
    assert by_token["سلام"] < top_attr
    assert by_token["ورد"] < top_attr


def test_explain_top_k_sorted_by_magnitude():
    model = _model()
    text = " ".join(["غبي", "سلام", "ورد", "جميل", "كلب"] * 3)
    ex = explain(text, model, n_samples=400, seed=1)
    assert len(ex.tokens) > TOP_K and len(ex.top) == TOP_K
    mags = [abs(a) for _, a in ex.top]
    assert mags == sorted(mags, reverse=True)
    all_mags = sorted((abs(a) for a in ex.attributions), reverse=True)
    assert mags == all_mags[:TOP_K]


def test_explain_r2_bounded():
    # ridge with a free intercept can never do worse than the constant
    # fit, so weighted r2 stays in [0, 1] even under heavy shrinkage
    model = _toy_model(weights=[1.5, -0.5], vocab_words=["bad", "ok"])
    for seed in range(4):
        ex = explain("bad ok", model, n_samples=300, seed=seed)
        assert 0.0 <= ex.r2 <= 1.0


def test_explain_empty_text_errors():
    model = _model()
    with pytest.raises(ValueError, match="token"):
        explain("", model)


def test_explain_validation():
    model = _model()
    with pytest.raises(ValueError):
        explain("x y", model, n_samples=0)


def test_dump_explanation_format():
    model = _model()
    ex = explain("غبي ورد", model, n_samples=200, seed=0)
    text = dump_explanation(ex)
    lines = text.splitlines()
    assert lines[0].startswith("score_full\t")
    assert lines[1].startswith("score_empty\t")
    assert any(ln == "token\tattribution" for ln in lines)
