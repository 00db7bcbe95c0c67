from __future__ import annotations

import base64
import dataclasses
import gc
import json
import math
import random
import re
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlex import features, linear
from anchorlex.corpus import DatasetSplit, Document, LabelRecord, stratified_split
from anchorlex.features import (
    MODES,
    FeatureConfig,
    FeatureSpace,
    _code,
    _counts,
    _gram_keys,
    fit_features,
    fit_transform,
    ordered_row_sums,
    tfidf_l2,
    transform,
    vectorize,
)
from anchorlex.linear import (
    LinearModel,
    fit_svm,
    load_model,
    predict_texts,
    save_model,
    score_text,
    score_texts,
    train_model,
)
from anchorlex.metrics import evaluate
from anchorlex.synth import make_anchored_corpus
from anchorlex.textnorm import normalize

import score_reference
import svm_reference
from separable_corpus import make_separable_corpus
from svm_reference import csr


def cvxpy_objective(vectors, y, n_features, C):
    """Independent solve of the same primal via a convex-optimization stack."""
    cp = pytest.importorskip("cvxpy")
    X = np.zeros((len(vectors), n_features))
    for i, v in enumerate(vectors):
        for j, val in v.items():
            X[i, j] = val
    yv = np.asarray(y, dtype=float)
    w = cp.Variable(n_features)
    b = cp.Variable()
    margins = cp.multiply(yv, X @ w + b)
    obj = 0.5 * cp.sum_squares(w) + C * cp.sum(cp.pos(1 - margins))
    prob = cp.Problem(cp.Minimize(obj))
    prob.solve(solver=cp.CLARABEL)
    return float(prob.value)


def scipy_objective(vectors, y, n_features, C):
    """Independent solve of the primal QP over (w, b, xi) with SLSQP."""
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    n, m = len(vectors), n_features
    X = np.zeros((n, m))
    for i, v in enumerate(vectors):
        for j, val in v.items():
            X[i, j] = val
    yv = np.asarray(y, dtype=float)
    # z = (w, b, xi): minimize |w|^2/2 + C sum(xi) s.t. y_i (w.x_i + b) >= 1 - xi_i
    A = np.hstack([yv[:, None] * X, yv[:, None], np.eye(n)])
    res = minimize(
        lambda z: 0.5 * float(z[:m] @ z[:m]) + C * float(z[m + 1 :].sum()),
        np.concatenate([np.zeros(m + 1), np.ones(n)]),
        jac=lambda z: np.concatenate([z[:m], [0.0], np.full(n, C)]),
        method="SLSQP",
        bounds=[(None, None)] * (m + 1) + [(0.0, None)] * n,
        constraints=[{"type": "ineq", "fun": lambda z: A @ z - 1.0, "jac": lambda z: A}],
        options={"ftol": 1e-10, "maxiter": 1000},
    )
    assert res.success, res.message
    return float(res.fun)


ORACLES = pytest.mark.parametrize(
    "oracle", [cvxpy_objective, scipy_objective], ids=lambda f: f.__name__
)


def _random_problem(rng, n=20, m=10, density=0.4):
    vectors = []
    y = []
    for i in range(n):
        vec = {}
        for j in range(m):
            if rng.random() < density:
                vec[j] = rng.uniform(-1, 1)
        vectors.append(vec)
        y.append(1 if rng.random() < 0.5 else -1)
    # ensure both classes present
    y[0], y[1] = 1, -1
    return vectors, y


def test_two_point_analytic_solution():
    # +1 at x=2, -1 at x=0: max margin at w=1, b=-1, objective 0.5
    vectors = [{0: 2.0}, {0: 0.0}]
    res = fit_svm(csr(vectors), [1, -1], n_features=1, C=1.0)
    assert res.weights[0] == pytest.approx(1.0, abs=1e-6)
    assert res.bias == pytest.approx(-1.0, abs=1e-6)
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    assert res.converged


@ORACLES
def test_objective_matches_cvxpy_on_random_instances(oracle):
    rng = random.Random(0)
    for trial in range(5):
        vectors, y = _random_problem(rng)
        res = fit_svm(csr(vectors), y, n_features=10, C=1.0)
        ref = oracle(vectors, y, n_features=10, C=1.0)
        assert res.objective == pytest.approx(ref, rel=1e-3), f"trial {trial}"


@ORACLES
def test_objective_matches_cvxpy_large_c(oracle):
    rng = random.Random(9)
    vectors, y = _random_problem(rng, n=15, m=6)
    res = fit_svm(csr(vectors), y, n_features=6, C=10.0)
    ref = oracle(vectors, y, n_features=6, C=10.0)
    assert res.objective == pytest.approx(ref, rel=1e-3)


def test_objective_trace_non_increasing():
    rng = random.Random(2)
    vectors, y = _random_problem(rng, n=30, m=8)
    res = fit_svm(csr(vectors), y, n_features=8, C=1.0)
    trace = res.objective_trace
    assert len(trace) >= 1
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier + 1e-12


def test_fit_deterministic():
    rng = random.Random(4)
    vectors, y = _random_problem(rng)
    a = fit_svm(csr(vectors), y, n_features=10, C=1.0)
    b = fit_svm(csr(vectors), y, n_features=10, C=1.0)
    assert list(a.weights) == list(b.weights) and a.bias == b.bias
    assert a.objective_trace == b.objective_trace


def test_label_flip_negates_solution():
    rng = random.Random(6)
    vectors, y = _random_problem(rng, n=12, m=5)
    a = fit_svm(csr(vectors), y, n_features=5, C=1.0)
    b = fit_svm(csr(vectors), [-v for v in y], n_features=5, C=1.0)
    assert a.objective == pytest.approx(b.objective, rel=1e-6)
    for wa, wb in zip(a.weights, b.weights):
        assert wa == pytest.approx(-wb, abs=1e-6)
    assert a.bias == pytest.approx(-b.bias, abs=1e-6)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_svm(csr([{0: 1.0}]), [1], n_features=1)  # single class
    with pytest.raises(ValueError):
        fit_svm(csr([{0: 1.0}, {0: -1.0}]), [1, -1], n_features=1, C=0.0)
    with pytest.raises(ValueError):
        fit_svm(csr([{5: 1.0}, {0: -1.0}]), [1, -1], n_features=2)  # feature out of range
    with pytest.raises(ValueError):
        fit_svm(csr([]), [], n_features=1)


@pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
def test_fit_rejects_non_finite_C(C):
    with pytest.raises(ValueError, match="C must be positive and finite"):
        fit_svm(csr([{0: 2.0}, {0: 0.0}]), [1, -1], n_features=1, C=C)


def test_fit_rejects_rows_that_disagree_with_indptr():
    indptr, cols, vals = csr([{0: 2.0}, {0: 1.0, 1: 1.0}])
    with pytest.raises(ValueError, match="indptr"):
        fit_svm((indptr, cols, vals[:-1]), [1, -1], n_features=2)
    with pytest.raises(ValueError, match="indptr"):
        fit_svm((indptr[::-1], cols, vals), [1, -1], n_features=2)


def test_fit_accepts_01_labels():
    X = csr([{0: 2.0}, {0: 0.0}])
    res_pm = fit_svm(X, [1, -1], n_features=1)
    # bools, numpy ints and floats equal to 0, 1 or -1 are labels too
    for y in ([1, 0], [True, False], np.array([1, 0]), [np.int64(1), np.int8(-1)], [1.0, -1.0]):
        _assert_same_fit(fit_svm(X, y, n_features=1), res_pm)


@pytest.mark.parametrize("bad", [2, "1", math.nan, 0.5, None, -2])
def test_fit_names_the_first_label_outside_01_and_pm1(bad):
    # such a label used to train silently as -1
    X = csr([{0: 2.0}, {0: 0.0}, {0: 1.0}, {0: 1.5}])
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        fit_svm(X, [1, 0, bad, 3], n_features=1)


# --- differential check against the previous solver (tests/svm_reference.py) ---


def _scores(fit, vectors):
    dots = [sum(fit.weights[k] * v for k, v in vec.items()) for vec in vectors]
    return np.array(dots) + fit.bias


def _separable_problem(seed):
    """Train vectors, labels, dimension and test vectors of a separable corpus."""
    docs, labels = make_separable_corpus(n_docs=200, seed=seed)
    split = stratified_split(labels, seed=seed)
    train = [normalize(d.text) for d in docs if d.id in split.train]
    test = [normalize(d.text) for d in docs if d.id in split.test]
    y = [int(labels[d.id].offensive) for d in docs if d.id in split.train]
    space = fit_features(train, FeatureConfig())
    return (
        [vectorize(t, space) for t in train],
        y,
        space.n_features,
        [vectorize(t, space) for t in test],
    )


def _assert_matches_reference(vectors, y, n_features, scored):
    """Same epochs as the reference solver, and scores on `scored` within 1e-9."""
    new = fit_svm(csr(vectors), y, n_features)
    old = svm_reference.fit_svm(vectors, y, n_features)
    assert new.n_epochs == old.n_epochs
    s_new, s_old = _scores(new, scored), _scores(old, scored)
    assert list(s_new > 0) == list(s_old > 0)
    assert np.abs(s_new - s_old).max() <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_matches_reference_solver_on_separable_corpus(seed):
    _assert_matches_reference(*_separable_problem(seed))


EDGE_PROBLEMS = {
    # an all-zero row: its kernel row is zero and it shares no column
    "empty_vector": ([{0: 1.0, 1: 0.5}, {}, {1: -1.0}, {0: -0.5, 1: 0.25}], [1, -1, -1, 1], 2),
    # x_i == x_j with opposite labels: eta is 0 and is clamped
    "identical_opposite": ([{0: 1.0, 2: 2.0}, {0: 1.0, 2: 2.0}], [1, -1], 3),
    "one_feature": (
        [{0: x} for x in (-2.0, -1.5, -0.5, 0.25, 0.5, 1.0, 1.5, 3.0)],
        [-1, -1, 1, -1, 1, 1, -1, 1],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_PROBLEMS))
def test_fit_matches_reference_solver_on_edge_cases(name):
    vectors, y, n_features = EDGE_PROBLEMS[name]
    _assert_matches_reference(vectors, y, n_features, vectors)


def test_fit_matches_reference_solver_where_both_converge():
    # A solver that stops on rel_tol returns an objective that depends on
    # rounding (up to 2e-4 relative), so only converged pairs are compared.
    both = 0
    for seed in range(60):
        rng = random.Random(seed)
        n, m, C = rng.choice([12, 20, 30]), rng.choice([5, 10]), rng.choice([0.1, 1.0, 10.0])
        vectors, y = _random_problem(rng, n=n, m=m)
        new = fit_svm(csr(vectors), y, n_features=m, C=C)
        old = svm_reference.fit_svm(vectors, y, n_features=m, C=C)
        if not (new.converged and old.converged):
            continue
        both += 1
        assert new.objective == pytest.approx(old.objective, rel=1e-8), f"seed {seed}"
        assert np.abs(new.weights - old.weights).max() <= 1e-6, f"seed {seed}"
    assert both >= 20


def _assert_same_fit(a, b):
    assert a.weights.tobytes() == b.weights.tobytes() and a.alpha.tobytes() == b.alpha.tobytes()
    assert (a.bias, a.objective, a.objective_trace) == (b.bias, b.objective, b.objective_trace)
    assert (a.n_epochs, a.converged, a.duality_gap) == (b.n_epochs, b.converged, b.duality_gap)


@pytest.mark.parametrize("budget", [0, 2000])
def test_kernel_rows_past_the_budget_give_the_same_fit(monkeypatch, budget):
    # Budget 0 keeps no kernel row; 2000 bytes keeps 1 of the corpus
    # problem's 140 rows and 8 of 30 or 12 of 20 rows of a random one. A
    # row not kept is recomputed by the same code, so the fit must not
    # change by a bit.
    problems = [_separable_problem(0)[:3]]
    for seed in range(10):
        rng = random.Random(100 + seed)
        n, m = rng.choice([12, 20, 30]), rng.choice([5, 10])
        problems.append((*_random_problem(rng, n=n, m=m), m))
    kept = [fit_svm(csr(v), y, m) for v, y, m in problems]
    monkeypatch.setattr(linear, "KERNEL_CACHE_BYTES", budget)
    for (v, y, m), ref in zip(problems, kept):
        _assert_same_fit(fit_svm(csr(v), y, m), ref)


# --- bit-for-bit check against the flat-CSR solver (svm_reference.fit_svm_flat) ---


def _flat_problems():
    """(vectors, y, n_features, C): separable corpora, random problems, edge cases."""
    problems = [(*_separable_problem(seed)[:3], 1.0) for seed in range(3)]
    for seed in range(60):
        rng = random.Random(seed)
        n, m = rng.choice([12, 20, 30]), rng.choice([5, 10])
        vectors, y = _random_problem(rng, n=n, m=m)
        problems += [(vectors, y, m, C) for C in (0.01, 1.0, 100.0)]
    for name in sorted(EDGE_PROBLEMS):
        problems += [(*EDGE_PROBLEMS[name], C) for C in (0.01, 1.0, 100.0)]
    return problems


@pytest.fixture(scope="module")
def flat_fits():
    return [(p, svm_reference.fit_svm_flat(*p[:3], C=p[3])) for p in _flat_problems()]


@pytest.mark.parametrize("budget", [linear.KERNEL_CACHE_BYTES, 0, 2000])
def test_fit_equals_flat_reference_bit_for_bit(monkeypatch, flat_fits, budget):
    # Kept index sets must pick the same pairs as sets rebuilt every step,
    # so every field of the result is the same to the bit, whether all,
    # one or none of the kernel rows fit the budget.
    monkeypatch.setattr(linear, "KERNEL_CACHE_BYTES", budget)
    for (v, y, m, C), ref in flat_fits:
        _assert_same_fit(fit_svm(csr(v), y, m, C=C), ref)


@pytest.fixture(scope="module")
def anchored_fit():
    """300 anchored docs under the default char+word features, and their flat-reference fit."""
    docs, labels = make_anchored_corpus(n_docs=300, seed=0, emoji_rate=1.0)
    space, X = fit_transform([normalize(d.text) for d in docs], FeatureConfig())
    indptr, cols, vals = X
    vectors = [
        dict(zip(cols[a:b].tolist(), vals[a:b].tolist())) for a, b in zip(indptr[:-1], indptr[1:])
    ]
    y = [int(labels[d.id].offensive) for d in docs]
    return X, y, space.n_features, svm_reference.fit_svm_flat(vectors, y, space.n_features)


@pytest.mark.parametrize("budget", [linear.KERNEL_CACHE_BYTES, 4 * 8 * 300])
def test_fit_equals_flat_reference_bit_for_bit_at_realistic_scale(monkeypatch, anchored_fit, budget):
    # With 300 rows an epoch applies its pending w updates more than once,
    # and a common char gram's column of w takes thousands of additions
    # over the fit, so adding them out of step order would change its
    # bits. The second budget keeps 4 kernel rows.
    X, y, n_features, ref = anchored_fit
    monkeypatch.setattr(linear, "KERNEL_CACHE_BYTES", budget)
    _assert_same_fit(fit_svm(X, y, n_features), ref)


# --- optimality certificate, checked without solver code ---------------------


def _certificate(vectors, y, n_features, C):
    """Fit, then recompute primal and dual from a dense X: (fit, P, D)."""
    res = fit_svm(csr(vectors), y, n_features, C=C)
    X = np.zeros((len(vectors), n_features))
    for i, vec in enumerate(vectors):
        for k, val in vec.items():
            X[i, k] = val
    yv = np.where(np.asarray(y) > 0, 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - yv * (X @ res.weights + res.bias))
    P = 0.5 * float(res.weights @ res.weights) + C * float(hinge.sum())
    u = X.T @ (yv * res.alpha)
    D = float(res.alpha.sum()) - 0.5 * float(u @ u)
    assert np.all(res.alpha >= 0.0) and np.all(res.alpha <= C)
    assert abs(float(yv @ res.alpha)) <= 1e-12
    # the objective kept from the incrementally updated f is the primal of
    # the returned weights and bias
    assert res.objective == pytest.approx(P, rel=1e-12)
    assert res.duality_gap == pytest.approx(P - D, rel=1e-9, abs=1e-9 * P)
    assert P - D >= -1e-9 * P  # weak duality
    return res, P, D


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_duality_gap_certifies_separable_corpus_fit(seed):
    vectors, y, n_features, _ = _separable_problem(seed)
    res, P, D = _certificate(vectors, y, n_features, C=1.0)
    assert P - D <= 1e-6 * P


def test_duality_gap_on_random_instances():
    # A fit that stops on rel_tol can be far from optimal (gaps up to 1e-4
    # relative), so the gap is bounded only where the KKT stop fired.
    converged = 0
    for seed in range(60):
        rng = random.Random(seed)
        n, m, C = rng.choice([12, 20, 30]), rng.choice([5, 10]), rng.choice([0.1, 1.0, 10.0])
        vectors, y = _random_problem(rng, n=n, m=m)
        res, P, D = _certificate(vectors, y, m, C)
        if res.converged:
            converged += 1
            assert P - D <= 1e-6 * P, f"seed {seed}"
    assert converged >= 20


# --- end-to-end training ----------------------------------------------------


def _trained(seed=0, C=1.0):
    docs, labels = make_separable_corpus(n_docs=120, seed=seed)
    split = stratified_split(labels, seed=seed)
    model = train_model(docs, labels, split, C=C, seed=seed)
    return docs, labels, split, model


def test_train_model_separates_test_split():
    docs, labels, split, model = _trained()
    test_docs = [d for d in docs if d.id in split.test]
    preds = predict_texts(model, [d.text for d in test_docs])
    gold = [1 if labels[d.id].offensive else 0 for d in test_docs]
    rep = evaluate(gold, [p for p, _ in preds])
    assert rep.macro_f1 >= 0.95


def test_train_model_uses_train_split_only():
    docs, labels, split, model = _trained()
    # a gram unique to a non-train doc must not be in the vocabulary
    non_train = next(d for d in docs if d.id not in split.train)
    marker = "qzxjv"
    vocab = score_reference.spelled(model.space)
    assert "w:" + marker not in vocab
    # sanity check that train-doc words are present
    train_doc = next(d for d in docs if d.id in split.train)
    first_word = train_doc.text.split()[0]
    from anchorlex.textnorm import normalize

    assert "w:" + normalize(first_word) in vocab


def test_train_model_requires_labels_for_split_docs():
    docs, labels = make_separable_corpus(n_docs=40, seed=1)
    split = stratified_split(labels, seed=1)
    del labels[next(iter(split.train))]
    with pytest.raises(ValueError, match="label"):
        train_model(docs, labels, split)


def test_decision_scores_and_prediction_rule():
    _, _, _, model = _trained()
    pos_score = score_text(model, "يا غبي يا حقير")
    neg_score = score_text(model, "سلام محبة ورد")
    assert pos_score > 0 > neg_score
    (lab_pos, s_pos), (lab_neg, s_neg) = predict_texts(
        model,
        ["يا غبي يا حقير", "سلام محبة ورد"],
    )
    assert (lab_pos, lab_neg) == (1, 0)
    assert s_pos == pos_score and s_neg == neg_score


# --- the one-pass trainer against the two-pass one (tests/score_reference.py) ---


def _labeled(texts, offensive, base=None):
    """`base` (docs, labels, split) with `texts` added to the train part."""
    docs, labels, split = base or ([], {}, DatasetSplit(frozenset(), frozenset(), frozenset()))
    ts = datetime(2021, 5, 1, tzinfo=timezone.utc)
    new = [Document(f"extra{i}", t, ts) for i, t in enumerate(texts)]
    labels = {**labels, **{d.id: LabelRecord(d.id, bool(o)) for d, o in zip(new, offensive)}}
    split = DatasetSplit(split.train | {d.id for d in new}, split.dev, split.test)
    return [*docs, *new], labels, split


def _assert_same_model_bytes(tmp_path, data, **kw):
    new, old = train_model(*data, **kw), score_reference.train_model(*data, **kw)
    save_model(str(tmp_path / "new.json"), new)
    save_model(str(tmp_path / "old.json"), old)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    assert new.duality_gap == old.duality_gap


# one-letter texts have no char grams; each text also comes twice
ONE_LETTER_AND_REPEATED = (["ب", "x", "ب", "يا غبي", "يا غبي", "ورد"], [1, 0, 1, 1, 1, 0])


@pytest.mark.parametrize("mode", MODES)
def test_train_model_saves_the_two_pass_model(tmp_path, mode):
    docs, labels = make_separable_corpus(n_docs=120, seed=2)
    data = _labeled(*ONE_LETTER_AND_REPEATED, (docs, labels, stratified_split(labels, seed=2)))
    kw = dict(feature_config=FeatureConfig(mode=mode), seed=2)
    _assert_same_model_bytes(tmp_path, data, **kw)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.text(alphabet="abc كلم\u0640\U0001F437", max_size=10), st.booleans()),
        min_size=2,
        max_size=12,
    ),
    mode=st.sampled_from(MODES),
    C=st.sampled_from([0.01, 1.0, 100.0]),
)
def test_train_model_saves_the_two_pass_model_on_fuzzed_texts(tmp_path_factory, rows, mode, C):
    rows[0], rows[1] = (rows[0][0], True), (rows[1][0], False)
    data = _labeled([t for t, _ in rows], [o for _, o in rows])
    kw = dict(feature_config=FeatureConfig(mode=mode), C=C)
    _assert_same_model_bytes(tmp_path_factory.mktemp("fuzz"), data, **kw)


# --- the read-path scorer against the previous one (tests/score_reference.py) ---

OOV_TEXT = "qzxjv vjxzq"
EDGE_TEXTS = ["", "   ", OOV_TEXT, "\U0001F437", "@user http://x.co", "يا غبي يا حقير"]


@pytest.mark.parametrize("mode", ["char", "word", "char+word"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_texts_matches_reference_scorer(seed, mode):
    docs, labels = make_separable_corpus(n_docs=120, seed=seed)
    split = stratified_split(labels, seed=seed)
    model = train_model(docs, labels, split, FeatureConfig(mode=mode), seed=seed)
    texts = [d.text for d in docs] + EDGE_TEXTS
    texts += texts[::7]  # every 7th text again
    assert score_texts(model, texts) == [score_reference.score_text(model, t, True) for t in texts]
    assert [score_text(model, t) for t in texts] == [score_reference.score_text(model, t) for t in texts]
    # the train path's vectors give the same scores
    assert score_texts(model, texts) == [
        score_reference.decision_score(model, vectorize(t, model.space)) for t in texts
    ]
    assert predict_texts(model, texts) == [
        (1 if s > 0 else 0, s) for s in (score_reference.score_text(model, t) for t in texts)
    ]
    assert score_texts(model, [OOV_TEXT]) == [model.bias]
    assert score_texts(model, []) == [] and predict_texts(model, []) == []


@pytest.fixture(scope="module")
def fuzz_model():
    return _trained(seed=1)[3]


_WORDS = sorted({w for d in make_separable_corpus(n_docs=120, seed=1)[0] for w in d.text.split()})
FUZZ_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_WORDS) | st.text(max_size=4), max_size=8).map(" ".join),
)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(FUZZ_TEXT, max_size=6))
def test_score_texts_matches_reference_on_fuzzed_texts(fuzz_model, texts):
    texts = texts + texts[:2]
    assert score_texts(fuzz_model, texts) == [score_reference.score_text(fuzz_model, t, True) for t in texts]
    want = [score_reference.score_text(fuzz_model, t, False) for t in texts]
    assert [s for _, s in predict_texts(fuzz_model, texts)] == want


# --- block edges of the scorer (features.BLOCK_ROWS distinct texts at a time) ---


def _bits(scores):
    """Scores as hex strings: equal only when equal bit for bit, the sign of zero included."""
    return [float(s).hex() for s in scores]


def _assert_scores_match_reference(model, texts):
    want = [score_reference.score_text(model, t, True) for t in texts]
    assert _bits(score_texts(model, texts)) == _bits(want)
    want = [score_reference.score_text(model, t, False) for t in texts]
    assert _bits(s for _, s in predict_texts(model, texts)) == _bits(want)


@pytest.fixture(scope="module", params=MODES)
def mode_model(request):
    docs, labels = make_separable_corpus(n_docs=120, seed=4)
    model = train_model(docs, labels, stratified_split(labels, seed=4), FeatureConfig(mode=request.param))
    # 513 distinct texts: the corpus docs, then their words in pairs
    words = [w for d in docs for w in d.text.split()]
    distinct = list(dict.fromkeys([d.text for d in docs] + [f"{a} {b}" for a, b in zip(words, words[3:])]))
    return model, distinct[:513]


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
def test_score_texts_at_block_edges_matches_reference(mode_model, n):
    assert linear.BLOCK_ROWS == 256
    model, distinct = mode_model
    texts = distinct[:n]
    # repeats of texts on either side of each block edge, before and after their first use
    for edge in (256, 512):
        texts = texts[edge - 2 : edge + 2] + texts + texts[edge - 3 : edge + 3]
    assert len(dict.fromkeys(texts)) == n
    _assert_scores_match_reference(model, texts)


def test_out_of_vocabulary_texts_score_exactly_the_bias(mode_model):
    model, distinct = mode_model
    oov = [OOV_TEXT, "", "q", "zz zz", "\u2603\u2603\u2603"]
    assert all(vectorize(t, model.space) == {} for t in oov)
    # a block with no in-vocabulary gram at all, and one that mixes them in
    assert _bits(score_texts(model, oov)) == _bits([model.bias] * len(oov))
    _assert_scores_match_reference(model, oov + distinct[:300] + oov)


@pytest.mark.parametrize(
    "mode, train",
    [("word", ["_a"]), ("word", ["", "!?"]), ("char+word", ["ab!", "! !"])],
)
def test_a_word_kind_with_no_gram_saves_no_token_and_scores_the_bias(tmp_path, mode, train):
    # no text has two tokens side by side, so the word kind has no gram, hence no token and end 0
    space = fit_features(train, FeatureConfig(mode=mode, char_range=(2, 2), word_range=(2, 2)))
    model = _random_model(space, np.random.default_rng(7))
    path = tmp_path / "model.json"
    save_model(str(path), model)
    assert json.loads(path.read_text(encoding="utf-8"))["index"]["word"]["tokens"] == []
    loaded = load_model(str(path))
    word = loaded.space.tries[1]
    assert (word.end, dict(word.tokens)) == (0, {})
    assert _trie_bytes(loaded.space.tries) == _trie_bytes(model.space.tries)
    texts = ["_a", "a b", "", "_a _a", "ab! ab!"]
    if mode == "word":
        assert _bits(score_texts(loaded, texts)) == _bits([model.bias] * len(texts))
    _assert_scores_match_reference(loaded, texts)


@pytest.mark.parametrize("bias", [-0.0, 0.0])
def test_dot_product_of_negative_zero_terms_keeps_the_reference_sign(mode_model, bias):
    model, distinct = mode_model
    zeroed = dataclasses.replace(model, weights=np.full_like(model.weights, -0.0), bias=bias)
    texts = distinct[:20] + [OOV_TEXT]
    # every w.x term is -0.0; added to 0.0 the sum is +0.0, as in the reference
    assert [math.copysign(1.0, s) for s in score_texts(zeroed, texts)] == [
        math.copysign(1.0, score_reference.score_text(zeroed, t)) for t in texts
    ]
    _assert_scores_match_reference(zeroed, texts)


def test_one_long_text_does_not_widen_the_block(mode_model):
    model, distinct = mode_model
    long_text = (" ".join(distinct) * 64)[: 1 << 17]
    words = sorted({w for t in distinct for w in t.split()})
    texts = [long_text, *(f"{words[k % len(words)]} {k}" for k in range(300))]
    _assert_scores_match_reference(model, texts)
    # the block's rows: the long text's is the longest by far
    indptr, cols, vals = transform(texts[: linear.BLOCK_ROWS], model.space)
    lens = np.diff(indptr)
    assert lens[0] == lens.max() > 10 * lens[1:].max()
    padded = 8 * int(lens[0]) * len(lens)  # bytes of one rows x longest-row float array
    tracemalloc.start()
    try:
        tfidf_l2(indptr, cols, np.ones_like(cols), model.space.idf)
        ordered_row_sums(indptr, model.weights[cols] * vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # memory follows the block's gram count, far below rows x longest row
    assert peak < 128 * len(cols) + 65536 < padded / 4


def test_vocabulary_entries_outside_c_and_w_match_nothing():
    model = _trained(seed=1)[3]
    vocab = list(score_reference.spelled(model.space))
    text = "يا غبي يا حقير"
    hits = sorted(vectorize(text, model.space))
    # unprefixed, other-prefixed and bare-prefix entries in place of grams the text has
    for col, edit in zip(hits, [lambda g: g[2:], lambda g: "x" + g[1:], lambda g: g[:2], lambda g: g[1:]]):
        vocab[col] = edit(vocab[col])
    space = model.space
    space = score_reference.build_space(space.config, dict(zip(vocab, range(len(vocab)))), space.idf, space.n_docs)
    edited = dataclasses.replace(model, space=space)
    # the index spells every entry but those four
    assert list(score_reference.spelled(space).items()) == [(g, c) for c, g in enumerate(vocab) if c not in hits[:4]]
    assert len(vectorize(text, edited.space)) == len(hits) - 4
    _assert_scores_match_reference(edited, [text, text[4:], "غبي", "w:غبي", "c:يا"])


@pytest.mark.parametrize(
    "char_range, word_range, refusal",
    [
        ([2, 4], [1, 3], "char trie does not hold 4 levels"),
        ([2, 5], [2, 2], "word trie does not hold 2 levels"),
        ([1, 6], [1, 4], "char trie does not hold 6 levels"),
        ([1, 5], [3, 3], None),
    ],
)
def test_a_file_with_edited_ranges_scores_by_its_index_or_is_refused(tmp_path, char_range, word_range, refusal):
    model = _trained(seed=1)[3]
    p = tmp_path / "model.json"
    save_model(str(p), model)
    obj = json.loads(p.read_text(encoding="utf-8"))
    obj.update(char_range=char_range, word_range=word_range)
    p.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    if refusal is not None:
        # a top bound is the level count of the kind's trie
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}: bad model file: {refusal} of keys and columns")):
            load_model(str(p))
        return
    # the lower bounds only shape a fit: the index alone says which grams count
    edited = load_model(str(p))
    texts = ["يا غبي يا حقير", "ورد جميل جدا", "غبي"]
    assert _bits(score_texts(edited, texts)) == _bits(score_texts(model, texts))
    assert _trie_bytes(edited.space.tries) == _trie_bytes(model.space.tries)


# --- the gram index (features.FeatureSpace.tries, dump_index, load_index) ------

# Arabic and Latin letters, an emoji with a tone and a ZWJ, a keycap, lone
# surrogates and a NUL, so texts hold characters and tokens that no
# vocabulary entry has, and texts the trie's end code must not leak into
TRIE_CHARS = list("ab كلب") + ["\U0001F437", "\U0001F3FF", "\u200d", "1\u20e3", "\ud83d", "\udcff", "\0", "!"]
TRIE_TEXT = st.lists(st.sampled_from(TRIE_CHARS) | st.characters(), max_size=16).map("".join)
TRIE_RANGES = [((1, 1), (1, 1)), ((1, 8), (1, 8)), ((2, 5), (2, 3)), ((1, 8), (2, 3))]


def _edited_space(space, texts, rng):
    """space's vocabulary with grams dropped, entries no text gram can equal added, and columns shuffled."""
    (clo, chi), (wlo, whi) = space.config.char_range, space.config.word_range
    # dropping grams leaves longer grams whose prefixes are in the vocabulary but not they themselves
    grams = [g for g in score_reference.spelled(space) if rng.random() < 0.7]
    for t in texts:
        for n in {1, clo - 1, chi + 1, chi + 2} - {0}:
            grams += ["c:" + t[i : i + n] for i in range(len(t) - n + 1)][:3]
        grams += [p + t[:3] for p in ("x:", "C:", "c", "w", "W:", "")]
        words = t.split(" ")
        for n in {wlo - 1, whi + 1} - {0}:
            grams += ["w:" + " ".join(words[i : i + n]) for i in range(len(words) - n + 1)][:3]
    grams += ["c:", "w:", "w: ", "w:a  b", "w: a", "w:a ", "w:كلب  "]
    grams = list(dict.fromkeys(grams))
    cols = rng.permutation(len(grams)).tolist()
    return score_reference.build_space(
        space.config, dict(zip(grams, cols)), rng.uniform(0.5, 3.0, len(grams)), space.n_docs
    )


def _random_model(space, rng):
    """A model on space with normal random weights and bias."""
    return LinearModel(
        space=space,
        weights=rng.normal(size=len(space.idf)),
        bias=float(rng.normal()),
        C=1.0,
        seed=0,
        target="offensive",
        objective_trace=(0.0,),
        duality_gap=0.0,
        converged=True,
    )


@pytest.mark.parametrize("char_range, word_range", TRIE_RANGES)
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None)
@given(
    train=st.lists(TRIE_TEXT, min_size=1, max_size=5),
    texts=st.lists(TRIE_TEXT, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_trie_scores_edited_vocabularies_like_the_reference(mode, char_range, word_range, train, texts, seed):
    rng = np.random.default_rng(seed)
    cfg = FeatureConfig(mode=mode, char_range=char_range, word_range=word_range)
    texts = texts + train[:2] + [" ".join(train)]
    space = _edited_space(fit_features(train, cfg), texts, rng)
    model = _random_model(space, rng)
    for t in texts:
        got = vectorize(t, space)
        want = score_reference.vectorize(t, space)
        # the same columns in the same first-appearance order, each value to the bit
        assert [(c, v.hex()) for c, v in got.items()] == [(c, float(v).hex()) for c, v in want.items()]
    _assert_scores_match_reference(model, texts)


def _trie_bytes(tries):
    """Each trie's end, tokens in code order and level arrays as (dtype, bytes)."""
    return [
        t and (t.end, t.tokens and list(t.tokens.items()), [(a.dtype, a.tobytes()) for a in t.keys + t.cols])
        for t in tries
    ]


def _saved_and_loaded(model, path):
    """load_model(save_model(model)).

    UTF-8 cannot write a word token with a lone surrogate, so save_model
    refuses it; its index then goes through its JSON values in memory.
    """
    try:
        save_model(str(path), model)
    except UnicodeEncodeError:
        space = model.space
        index = json.loads(json.dumps(features.dump_index(space), ensure_ascii=False))
        tries = features.load_index(space.config, index, len(space.idf))
        return dataclasses.replace(model, space=dataclasses.replace(space, tries=tries))
    return load_model(str(path))


def _assert_index_round_trip(model, texts, path):
    loaded = _saved_and_loaded(model, path)
    assert _trie_bytes(loaded.space.tries) == _trie_bytes(model.space.tries)
    assert _bits(score_texts(loaded, texts)) == _bits(score_texts(model, texts))


@pytest.mark.parametrize("char_range, word_range", TRIE_RANGES)
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    pieces=st.lists(st.sampled_from(TRIE_CHARS) | st.characters(), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_saved_index_spells_the_fit_vocabulary_and_loads_as_built(
    tmp_path_factory, mode, char_range, word_range, data, pieces, seed
):
    # texts written in a few characters, so their grams repeat; tokens touch
    # wherever no space comes between them, and the alphabet may hold no space at all
    spelled = st.lists(st.sampled_from(pieces), max_size=12).map("".join)
    texts = data.draw(st.lists(spelled | TRIE_TEXT, min_size=1, max_size=5))
    train = data.draw(st.lists(spelled | TRIE_TEXT, min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    cfg = FeatureConfig(mode=mode, char_range=char_range, word_range=word_range)
    space = fit_features(train, cfg)
    # the index is the vocabulary: it spells each gram of the fit at its column
    assert list(score_reference.spelled(space).items()) == list(score_reference.fit_vocabulary(train, cfg).items())
    # an edited vocabulary, less the entries it cannot hold, its shuffled columns renumbered from 0
    kept = score_reference.spelled(_edited_space(space, texts + [" ".join(train)], rng))
    vocab = dict(zip(kept, range(len(kept))))
    edited = score_reference.build_space(cfg, vocab, rng.uniform(0.5, 3.0, len(vocab)), space.n_docs)
    assert score_reference.spelled(edited) == vocab
    path = tmp_path_factory.mktemp("index")
    for sp in (space, edited):
        _assert_index_round_trip(_random_model(sp, rng), texts + train, path / "m.json")


@pytest.mark.parametrize("mode", MODES)
def test_saved_index_of_entries_outside_the_prefixes_and_ranges_is_refused(tmp_path, mode):
    vocab = ["c:ab", "c:a b", "c:ax", "c:", "c", "w:a \U0001F437", "w:a", "w: ", "x:ab", "xyab", "c:\0a", "w:b  a"]
    cols = [3, 0, 11, 1, 5, 2, 4, 6, 9, 10, 7, 8]
    space = score_reference.build_space(
        FeatureConfig(mode, (2, 3), (1, 2)), dict(zip(vocab, cols)), np.linspace(1.0, 2.0, len(vocab)), 3
    )
    # c: entries of 2 or 3 characters and w: entries of 1 or 2 tokens, for the kinds of the mode
    char = {"c:ab", "c:a b", "c:ax", "c:\0a"} if mode != "word" else set()
    word = {"w:a \U0001F437", "w:a", "w: "} if mode != "char" else set()
    want = [(g, c) for c, g in sorted(zip(cols, vocab)) if g in char | word]
    assert list(score_reference.spelled(space).items()) == want
    model = _random_model(space, np.random.default_rng(5))
    texts = ["ab", "a b", "a\U0001F437", "a \U0001F437 b", "\0a", "b  a", "", " ", "x:ab", "c:ab"]
    _assert_scores_match_reference(model, texts)
    # the file holds no column that no gram holds, so its first such column is refused
    p = tmp_path / "m.json"
    save_model(str(p), model)
    col = min(set(cols) - set(score_reference.spelled(space).values()))
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}: bad model file: column {col} is held by 0 trie nodes")):
        load_model(str(p))


def test_trie_reads_lone_surrogates_and_unknown_characters_as_code_points():
    cfg = FeatureConfig(mode="char+word", char_range=(1, 3), word_range=(1, 2))
    space = fit_features(["\ud83d\ude00 ab", "\udcff يا"], cfg)
    # a high and a low surrogate side by side stay two code points, not one pair
    for t in ["\ud83d\ude00", "\ud83d\ude00 ab", "\U0001F600 ab", "\udcff\udcff يا", "\x00\udcff"]:
        assert list(vectorize(t, space).items()) == [
            (c, float(v)) for c, v in score_reference.vectorize(t, space).items()
        ]
    assert vectorize("\ud83d", space) != vectorize("\U0001F600", space)


def _traced_peak(fn, texts, space):
    """The tracemalloc peak of fn(texts, space), in bytes.

    A full collection first empties the interpreter's free lists, whose
    reuse would hide allocations from tracemalloc.
    """
    gc.collect()
    tracemalloc.start()
    try:
        fn(texts, space)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _text_gram_keys(texts, space):
    """`_gram_keys` of the texts, coded as `transform` codes them."""
    return _gram_keys(_code(texts, space), space)


def _text_counts(texts, space):
    """`_counts` of the texts, coded as `transform` codes them."""
    return _counts(len(texts), _code(texts, space), space)


def test_gram_stage_memory_follows_the_block_character_count(mode_model):
    model, distinct = mode_model
    long_text = (" ".join(distinct) * 64)[: 1 << 17]
    short = [f"{t} {k}" for k, t in enumerate(distinct[: linear.BLOCK_ROWS])]
    long_block = [long_text, *short[1:]]
    _text_gram_keys(short[:2], model.space)  # any first-call state
    # a few arrays over the block's codes and hits
    for block in (short, long_block):
        assert _traced_peak(_text_gram_keys, block, model.space) < 256 * sum(map(len, block)) + 65536
    # far below one rows x longest-text int64 array
    assert 256 * sum(map(len, long_block)) + 65536 < 8 * len(long_block) * len(long_text) / 4


def test_counts_of_a_block_peak_no_higher_than_the_np_unique_reference(mode_model):
    model, distinct = mode_model
    # texts of four docs each, so that the arrays over the hits outweigh the Python objects
    block = [" ".join(distinct[k : k + 4]) for k in range(linear.BLOCK_ROWS)]
    for counts in (_text_counts, score_reference.counts):
        counts(block, model.space)  # any first-call state
    # the reference groups the hits with np.unique (a stable mergesort and its index arrays); the
    # value sort, in place and with the hits freed once grouped, must hold no more
    peak = _traced_peak(_text_counts, block, model.space)
    assert peak <= _traced_peak(score_reference.counts, block, model.space)


# --- persistence -------------------------------------------------------------


def test_model_json_round_trip_exact(tmp_path):
    docs, labels, split, model = _trained(seed=3)
    p = tmp_path / "model.json"
    save_model(str(p), model)
    again = load_model(str(p))
    assert again.weights.tobytes() == model.weights.tobytes()
    assert again.space.idf.tobytes() == model.space.idf.tobytes()
    assert again.weights.flags.writeable and again.space.idf.flags.writeable
    assert again.bias == model.bias
    assert _trie_bytes(again.space.tries) == _trie_bytes(model.space.tries)
    assert again.C == model.C and again.seed == model.seed
    assert again.target == model.target
    assert again.objective_trace == model.objective_trace
    assert again.duality_gap == model.duality_gap and math.isfinite(again.duality_gap)
    assert again.converged is model.converged
    for text in ("يا غبي", "ورد جميل", ""):
        assert score_text(again, text) == score_text(model, text)


def test_saving_a_loaded_model_writes_its_file_byte_for_byte(tmp_path, mode_model):
    # the file holds exactly the state load_model gives, and nothing derived from it
    p, again = tmp_path / "model.json", tmp_path / "again.json"
    save_model(str(p), mode_model[0])
    save_model(str(again), load_model(str(p)))
    assert again.read_bytes() == p.read_bytes()


def test_model_format_version_checked(tmp_path):
    docs, labels, split, model = _trained(seed=5)
    p = tmp_path / "model.json"
    save_model(str(p), model)
    blob = json.loads(p.read_text(encoding="utf-8"))
    blob["format_version"] = 99
    p.write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}: unsupported model format version 99")):
        load_model(str(p))


LENGTHS = "bad model file: idf and weights disagree in length"
NOT_BASE64 = "bad model file: {} is not base64 text"
NOT_FINITE = "bad model file: {} holds a value that is not finite"


def _floats(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def _b64(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _set_value(key, at, value):
    """An edit that writes value over the float at position `at` of the array under key."""

    def edit(blob):
        values = _floats(blob[key]).copy()
        values[at] = value
        blob[key] = _b64(values)

    return edit


def _edit_level(kind, field, n, change):
    """An edit that applies change to the array at level n of the kind's trie keys or cols."""
    dtype = "<i8" if field == "keys" else "<i4"

    def edit(blob):
        levels = blob["index"][kind][field]
        levels[n - 1] = features.b64(change(features.from_b64("", levels[n - 1], dtype).copy()), dtype)

    return edit


def _swap_first_two(a):
    a[[0, 1]] = a[[1, 0]]
    return a


def _set_at(at, value):
    def change(a):
        a[at] = value
        return a

    return change


NOT_INCREASING = "bad model file: {} are not strictly increasing up to 9223372036854775807, one per column"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: b.pop("idf"), "model file lacks idf"),
        (lambda b: b.pop("bias"), "model file lacks bias"),
        (lambda b: b.pop("index"), "model file lacks index"),
        (lambda b: b.update(index=None), "bad model file: index is not an object"),
        (lambda b: b["index"].pop("char"), "bad model file: index lacks the char trie"),
        (lambda b: b["index"]["char"].pop("cols"), "bad model file: char trie lacks cols"),
        (
            lambda b: b["index"]["char"].update(end=0x10FFFF),
            "bad model file: char trie end is not 1114112: 1114111",
        ),
        (
            lambda b: b["index"]["char"]["keys"].pop(),
            "bad model file: char trie does not hold 5 levels of keys and columns",
        ),
        (
            lambda b: b["index"]["char"]["keys"].__setitem__(1, 7),
            "bad model file: char trie keys 2 is not base64 text",
        ),
        (
            lambda b: b["index"]["char"]["cols"].__setitem__(0, base64.b64encode(bytes(6)).decode()),
            "bad model file: char trie cols 1 is 6 bytes, not a whole number of int32 values",
        ),
        (_edit_level("char", "keys", 3, _swap_first_two), NOT_INCREASING.format("char trie keys 3")),
        (_edit_level("char", "keys", 1, lambda a: a[:-1]), NOT_INCREASING.format("char trie keys 1")),
        (_edit_level("char", "cols", 2, lambda a: a[:-1]), NOT_INCREASING.format("char trie keys 2")),
        # the last key below the sentinel, as the end code: still increasing
        (
            _edit_level("char", "keys", 1, _set_at(-2, 0x110000)),
            "bad model file: char trie keys 1 take in the end code",
        ),
        (_edit_level("char", "cols", 4, _set_at(0, -2)), "bad model file: char trie cols 4 are outside [-1, "),
        (
            lambda b: b["index"]["word"]["tokens"].append(b["index"]["word"]["tokens"][0]),
            "bad model file: word trie tokens are not ",
        ),
        (
            lambda b: b["index"]["word"]["tokens"].__setitem__(0, None),
            "bad model file: word trie tokens are not a list of strings",
        ),
        (lambda b: b.pop("converged"), "model file lacks converged"),
        (lambda b: b.update(weights=_b64(_floats(b["weights"])[:-50])), LENGTHS),
        (lambda b: b.update(idf=_b64(_floats(b["idf"])[:-1])), LENGTHS),
        # char grams are 2 to 5 long: no level-1 node is a gram, and column 0 is the first level-2 node's
        (_edit_level("char", "cols", 1, _set_at(0, 0)), "bad model file: column 0 is held by 2 trie nodes, not 1"),
        (_edit_level("char", "cols", 2, _set_at(0, -1)), "bad model file: column 0 is held by 0 trie nodes, not 1"),
        (
            _edit_level("char", "keys", 1, _set_at(-2, 0x110001 + 5)),
            "bad model file: char trie keys 1 extend a prefix that level 0 lacks",
        ),
        (
            _edit_level("char", "keys", 2, _set_at(0, -2)),
            "bad model file: char trie keys 2 extend a prefix that level 1 lacks",
        ),
        (lambda b: b.update(char_range=5), "bad model file"),
        (lambda b: b.update(mode="bytes"), "bad model file"),
        (lambda b: b.update(idf=_floats(b["idf"]).tolist()), NOT_BASE64.format("idf")),
        (lambda b: b.update(weights=b["weights"][:8] + "!" + b["weights"][8:]), NOT_BASE64.format("weights")),
        (lambda b: b.update(objective_trace="\u0661" + b["objective_trace"][1:]), NOT_BASE64.format("objective_trace")),
        (
            lambda b: b.update(weights=base64.b64encode(base64.b64decode(b["weights"]) + bytes(7)).decode()),
            "bad model file: weights is {} bytes, not a whole number of float64 values",
        ),
        (_set_value("idf", 3, float("nan")), NOT_FINITE.format("idf")),
        (_set_value("weights", -1, float("inf")), NOT_FINITE.format("weights")),
        (_set_value("objective_trace", 0, -float("inf")), NOT_FINITE.format("objective_trace")),
        (lambda b: b.update(duality_gap=float("nan")), "bad model file: duality_gap is not a finite number"),
        (lambda b: b.update(converged=1), "bad model file: converged is not true or false: 1"),
    ],
    ids=[
        "no_idf",
        "no_bias",
        "no_index",
        "null_index",
        "no_char_trie",
        "no_char_cols",
        "char_end",
        "char_levels",
        "int_keys",
        "cols_plus_6_bytes",
        "keys_swapped",
        "no_sentinel",
        "cols_cut",
        "key_takes_in_end",
        "col_minus_2",
        "repeated_token",
        "null_token",
        "no_converged",
        "weights_cut",
        "idf_cut",
        "col_held_twice",
        "col_held_by_none",
        "key_past_the_prefixes",
        "negative_key",
        "range",
        "mode",
        "idf_list",
        "bang_in_weights",
        "non_ascii_trace",
        "weights_plus_7_bytes",
        "nan_idf",
        "inf_weight",
        "minus_inf_trace",
        "nan_gap",
        "int_converged",
    ],
)
def test_load_model_rejects_malformed_file(tmp_path, edit, message):
    *_, model = _trained(seed=5)
    p = tmp_path / "model.json"
    save_model(str(p), model)
    blob = json.loads(p.read_text(encoding="utf-8"))
    edit(blob)
    p.write_text(json.dumps(blob), encoding="utf-8")
    message = message.format(8 * model.weights.size + 7)
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}: {message}")):
        load_model(str(p))


@pytest.mark.parametrize("text", ["{", "[1, 2]"], ids=["truncated", "list"])
def test_load_model_rejects_non_object_json(tmp_path, text):
    p = tmp_path / "model.json"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}: not a JSON model file")):
        load_model(str(p))


def test_model_objective_trace_persisted(tmp_path):
    *_, model = _trained(seed=7)
    p = tmp_path / "model.json"
    save_model(str(p), model)
    again = load_model(str(p))
    assert again.objective_trace == model.objective_trace
    assert again.objective == pytest.approx(model.objective)
