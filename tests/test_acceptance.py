"""Release gate: one test per shipped guarantee.

Each test prints a `criterion NN: PASS/FAIL (detail)` line before
asserting, so a full run reads as a checklist. Oracles are independent
of the code under test: exact rational arithmetic for the valence
miner, a convex-optimization stack for the SVM objective (cvxpy, or
scipy's SLSQP where cvxpy is missing), hand-worked numbers elsewhere.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from anchorlex import cli
from anchorlex.annotation import cohen_kappa
from anchorlex.corpus import Document, load_corpus, stratified_split, write_corpus
from anchorlex.emoji import base_form, cluster_spans, default_inventory, filter_by_seeds
from anchorlex.features import FeatureConfig
from anchorlex.lexicon import mine_class_lexicon, valence
from anchorlex.linear import fit_svm, predict_texts, train_model
from anchorlex.metrics import evaluate_predictions
from anchorlex.synth import make_anchored_corpus, make_separable_corpus
from anchorlex.violence import compile_rules, match_violence_text

from conftest import TS, make_label_set

REPO_ROOT = Path(__file__).resolve().parent.parent
DATASET_DIR = REPO_ROOT / "dataset"


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n:02d}: {detail}"


# --- criterion 1: valence miner vs exact-arithmetic recount -------------------


def _random_labeled_corpus(rng: random.Random):
    """<= 50 docs, <= 200 tokens, both partitions non-empty."""
    vocab = ["".join(p) for p in itertools.permutations("abcdefgh", 2)]
    pool = rng.sample(vocab, rng.randint(3, 20))
    n_docs = rng.randint(2, 50)
    flags = [True, False] + [rng.random() < 0.5 for _ in range(n_docs - 2)]
    rng.shuffle(flags)
    docs, labels = [], {}
    from anchorlex.corpus import LabelRecord

    for i, off in enumerate(flags):
        words = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        d = Document(id=f"d{i:03d}", text=" ".join(words), created_at=TS)
        docs.append(d)
        labels[d.id] = LabelRecord(doc_id=d.id, offensive=off)
    return docs, labels


def test_criterion_01_valence_miner_matches_exact_recount():
    t0 = time.perf_counter()
    rng = random.Random(101)
    thr = Fraction(4, 5)
    corpora = trouble = 0
    for _ in range(100):
        docs, labels = _random_labeled_corpus(rng)
        min_freq = rng.choice([1, 2, 5])
        mined = mine_class_lexicon(docs, labels, "offensive", min_freq=min_freq)

        # independent recount: whitespace split on the ascii-only texts
        from collections import Counter

        n_off: Counter = Counter()
        n_cln: Counter = Counter()
        for d in docs:
            (n_off if labels[d.id].offensive else n_cln).update(d.text.split())
        t_off, t_cln = sum(n_off.values()), sum(n_cln.values())

        exact: dict[str, Fraction] = {}
        for term in set(n_off) | set(n_cln):
            a, b = n_off.get(term, 0), n_cln.get(term, 0)
            exact[term] = Fraction(a * t_cln - b * t_off, a * t_cln + b * t_off)

        eligible = {t for t in exact if n_off.get(t, 0) + n_cln.get(t, 0) >= min_freq}
        must_in = {t for t in eligible if exact[t] > thr}
        # exactly-at-threshold terms may round a hair under 0.8 in the
        # float pipeline; both inclusions satisfy the 1e-12 tolerance
        may_in = {t for t in eligible if exact[t] == thr}

        got = [e.term for e in mined]
        set_ok = must_in <= set(got) <= (must_in | may_in)

        values_ok = all(
            e.n_off == n_off.get(e.term, 0)
            and e.n_cln == n_cln.get(e.term, 0)
            and abs(e.valence - float(exact[e.term])) <= 1e-12
            for e in mined
        )

        order_ok = True
        for e_hi, e_lo in zip(mined, mined[1:]):
            v_hi, v_lo = exact[e_hi.term], exact[e_lo.term]
            if v_hi < v_lo:
                order_ok = False
            elif v_hi == v_lo and e_hi.valence == e_lo.valence:
                key = lambda e: (-(e.n_off + e.n_cln), e.term)
                order_ok = order_ok and key(e_hi) <= key(e_lo)

        corpora += 1
        if not (set_ok and values_ok and order_ok):
            trouble += 1
    dt = time.perf_counter() - t0
    _report(
        1,
        trouble == 0 and dt < 10.0,
        f"{corpora} random corpora, {trouble} mismatches vs exact recount, {dt:.2f}s",
    )


# --- criterion 2: valence antisymmetry and scale invariance -------------------


def test_criterion_02_valence_properties_on_random_counts():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(1000):
        terms = [f"t{i}" for i in range(rng.randint(1, 8))]
        n_off = {t: rng.randint(0, 50) for t in terms}
        n_cln = {t: rng.randint(0, 50) for t in terms}
        for t in terms:
            if n_off[t] + n_cln[t] == 0:
                n_off[t] = 1
        t_off = sum(n_off.values()) + rng.randint(1, 20)
        t_cln = sum(n_cln.values()) + rng.randint(1, 20)
        k1, k2 = rng.randint(1, 9), rng.randint(1, 9)
        for t in terms:
            v = valence(n_off[t], n_cln[t], t_off, t_cln)
            swapped = valence(n_cln[t], n_off[t], t_cln, t_off)
            scaled = valence(k1 * n_off[t], k2 * n_cln[t], k1 * t_off, k2 * t_cln)
            worst = max(worst, abs(v + swapped), abs(v - scaled))
    _report(2, worst <= 1e-12, f"1000 instances, worst deviation {worst:.3e}")


# --- criterion 3: agreement coefficient ---------------------------------------


def test_criterion_03_kappa_hand_examples_and_self_agreement():
    k0 = cohen_kappa([1, 1, 0, 0], [1, 0, 0, 1])
    k5 = cohen_kappa([1, 1, 0, 0], [1, 1, 0, 1])
    rng = random.Random(303)
    self_ok = True
    for _ in range(100):
        n_cat = rng.randint(2, 4)
        seq = [rng.randrange(n_cat) for _ in range(rng.randint(2, 60))]
        if len(set(seq)) < 2:
            seq[0] = (seq[1] + 1) % n_cat
        if cohen_kappa(seq, seq) != 1.0:
            self_ok = False
    ok = abs(k0 - 0.0) <= 1e-9 and abs(k5 - 0.5) <= 1e-9 and self_ok
    _report(3, ok, f"hand examples gave {k0:.12f} and {k5:.12f}; self-agreement exact={self_ok}")


# --- criterion 4: emoji segmentation vectors + tone invariance -----------------


SKIN_TONE_MODIFIERS = tuple(chr(cp) for cp in range(0x1F3FB, 0x1F400))


def test_criterion_04_emoji_vectors_and_tone_invariance():
    from test_emoji import VECTORS

    failures = [
        i
        for i, (text, expected) in enumerate(VECTORS, start=1)
        if [(text[a:b], base_form(text[a:b])) for a, b in cluster_spans(text)] != expected
    ]
    inv = default_inventory()
    tone_breaks = []
    for base in sorted(inv):
        for tone in SKIN_TONE_MODIFIERS:
            docs = [
                Document(id="u", text=f"نص {base} هنا", created_at=TS),
                Document(id="t", text=f"نص {base}{tone} هنا", created_at=TS),
            ]
            if len(filter_by_seeds(docs, inv)) != 2:
                tone_breaks.append((base, tone))
    ok = not failures and not tone_breaks and len(VECTORS) >= 30
    _report(
        4,
        ok,
        f"{len(VECTORS)} vectors, failures={failures or 'none'}, "
        f"tone pairs broken={len(tone_breaks)}",
    )


# --- criterion 5: split bookkeeping vs the published per-split counts ----------

# the released split: 4,463 offensive tweets among 12,698, positives per part
PUBLISHED_TOTAL, PUBLISHED_POSITIVES = 12_698, 4_463
PUBLISHED_SPLIT_POSITIVES = (3_172, 404, 887)
SPLIT_RATIOS = (Fraction(7, 10), Fraction(1, 10), Fraction(2, 10))


def _documented_class_split(n: int) -> tuple[int, int, int]:
    """The stratified_split rule in exact arithmetic: dev and test get
    round-half-up(ratio * n), train keeps the remainder."""
    n_dev, n_test = (math.floor(r * n + Fraction(1, 2)) for r in SPLIT_RATIOS[1:])
    return n - n_dev - n_test, n_dev, n_test


def test_criterion_05_split_positive_counts_match_published_table():
    labels = make_label_set(PUBLISHED_TOTAL, PUBLISHED_POSITIVES, seed=0)
    ratios = tuple(float(r) for r in SPLIT_RATIOS)
    split = stratified_split(labels, ratios, seed=0)
    parts = (split.train, split.dev, split.test)
    got = {
        cls: tuple(sum(1 for i in part if labels[i].offensive is cls) for part in parts)
        for cls in (True, False)
    }
    n_pos = sum(1 for r in labels.values() if r.offensive)
    want = {
        True: _documented_class_split(n_pos),
        False: _documented_class_split(len(labels) - n_pos),
    }
    # the oracle's figures, worked by hand: 446.3 -> 446, 892.6 -> 893,
    # 823.5 -> 824, 1647.0 -> 1647
    assert want == {True: (3_124, 446, 893), False: (5_764, 824, 1_647)}
    reversed_records = list(reversed(list(labels.values())))
    order_free = stratified_split(reversed_records, ratios, seed=0) == split
    # the published positives are 71.1%, 9.1% and 19.9% of 4,463: that split
    # was not stratified on the label, and the documented rule puts 446
    # positives in dev, not 404. Only the table's totals are asserted; the
    # per-split gap to it is reported
    gap = tuple(g - p for g, p in zip(got[True], PUBLISHED_SPLIT_POSITIVES))
    ok = (
        sum(PUBLISHED_SPLIT_POSITIVES) == n_pos == PUBLISHED_POSITIVES
        and len(labels) == PUBLISHED_TOTAL
        and got == want
        and sum(len(p) for p in parts) == len(frozenset().union(*parts)) == PUBLISHED_TOTAL
        and frozenset().union(*parts) == frozenset(labels)
        and order_free
    )
    _report(
        5,
        ok,
        f"positives per split {got[True]}, negatives {got[False]}, "
        f"documented rule {want[True]}, {want[False]}, "
        f"same split from reversed input: {order_free}; "
        f"published positives {PUBLISHED_SPLIT_POSITIVES} (sum "
        f"{sum(PUBLISHED_SPLIT_POSITIVES)} of {n_pos}), gap {gap} not asserted",
    )


# --- criterion 6: anchored collection enriches the offensive rate --------------


def test_criterion_06_collection_enriches_offensive_rate(tmp_path):
    t0 = time.perf_counter()
    docs, labels = make_anchored_corpus(
        10_000, seed=0, base_offensive_rate=0.02, p_offensive_given_emoji=0.6
    )
    raw = str(tmp_path / "raw.jsonl")
    out = str(tmp_path / "anchored.jsonl")
    write_corpus(raw, docs)
    assert cli.main(["collect", "--in", raw, "--out", out]) == 0
    kept = load_corpus(out)
    in_ratio = sum(1 for d in docs if labels[d.id].offensive) / len(docs)
    out_ratio = sum(1 for d in kept if labels[d.id].offensive) / len(kept)
    dt = time.perf_counter() - t0
    ok = out_ratio >= 0.20 and out_ratio >= 10 * in_ratio and dt < 5.0
    _report(
        6,
        ok,
        f"offensive ratio {in_ratio:.3f} -> {out_ratio:.3f} "
        f"({len(kept)} kept, {dt:.2f}s)",
    )


# --- criterion 7: classifier quality, objective oracle, trace ------------------


def test_criterion_07_classifier_f1_and_objective_oracle():
    from test_linear import _random_problem, cvxpy_objective, scipy_objective
    from svm_reference import csr

    have_cvxpy = importlib.util.find_spec("cvxpy") is not None
    oracle_objective = cvxpy_objective if have_cvxpy else scipy_objective

    docs, labels = make_separable_corpus(n_docs=200, seed=0)
    split = stratified_split(labels, seed=0)
    model = train_model(docs, labels, split, seed=0)
    test_docs = [d for d in docs if d.id in split.test]
    preds = predict_texts(model, [d.text for d in test_docs])
    gold = {d.id: 1 if labels[d.id].offensive else 0 for d in test_docs}
    report = evaluate_predictions(gold, {d.id: p for d, (p, _) in zip(test_docs, preds)})

    rng = random.Random(7)
    vectors, y = _random_problem(rng, n=20, m=10)
    fit = fit_svm(csr(vectors), y, 10, C=1.0)
    oracle = oracle_objective(vectors, y, 10, C=1.0)
    rel = abs(fit.objective - oracle) / max(abs(oracle), 1e-12)

    def non_increasing(trace):
        return all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    ok = (
        report.macro_f1 >= 0.95
        and rel <= 1e-3
        and non_increasing(fit.objective_trace)
        and non_increasing(model.objective_trace)
    )
    _report(
        7,
        ok,
        f"macro-F1 {report.macro_f1:.4f}, objective rel err {rel:.2e} "
        f"vs {'cvxpy' if have_cvxpy else 'scipy'}, "
        f"trace non-increasing={non_increasing(fit.objective_trace)}",
    )


# --- criterion 8: evaluation harness hand example ------------------------------


def test_criterion_08_eval_hand_example():
    gold = {"d1": 1, "d2": 1, "d3": 0, "d4": 0}
    pred = {"d1": 1, "d2": 1, "d3": 1, "d4": 0}
    report = evaluate_predictions(gold, pred)
    expected = (0.8 + 2.0 / 3.0) / 2.0
    ok = abs(report.macro_f1 - expected) <= 1e-9
    _report(8, ok, f"macro-F1 {report.macro_f1:.12f} vs {expected:.12f}")


# --- criterion 9: violence patterns, full recall and zero false fires ----------

# one sentence per pattern variant: every verb and object stem of the
# shipped tables appears at least once, including the "slap on your
# face" and "I will hit your head" shapes
VIOLENT_SENTENCES = [
    "سأقتلك يا حقير",
    "والله يذبحك لو تتكلم",
    "راح يدبحكم كلكم واحد واحد",
    "سوف اقتل يا خاين انت",
    "تقتل انتي نفسك بهذا الكلام",
    "يقتل انتم بدون رحمة",
    "سأضرب راسك الان",
    "سوف يدوس بطنك بقدمه",
    "حيدعسك بالسيارة",
    "يجلد وجهك قدام الناس",
    "سوف يطعن رقبتك بسكين",
    "راح اكسر اسنانك كلها",
    "سأقطع رقبتك يا جبان",
    "بيفتح دماغك لو شافك",
    "حنطير راسه من مكانه",
    "كف على وجهك",
    "جزمة على راسك يا قليل الادب",
    "صفعة على عينك التانية",
    "بالجزمة على خشمك",
    "كف عالوجه يمكن يعدلك",
]

_CLEAN_SUBJECTS = ("الجو", "الطعام", "الكتاب", "الطريق", "السوق", "الدرس", "الفيلم", "المكان", "الصباح", "المساء")
_CLEAN_PREDICATES = ("جميل", "رائع", "ممتاز", "هادئ", "طويل")


def clean_fillers() -> list[str]:
    out = []
    for subj in _CLEAN_SUBJECTS:
        for pred in _CLEAN_PREDICATES:
            out.append(f"{subj} {pred} جدا هذه الايام")
    return out


def test_criterion_09_violence_recall_and_precision():
    assert len(VIOLENT_SENTENCES) == 20
    rules = compile_rules()
    missed = [s for s in VIOLENT_SENTENCES if not match_violence_text(s, rules)]
    fillers = clean_fillers()
    assert len(fillers) == 50
    false_fires = [s for s in fillers if match_violence_text(s, rules)]
    ok = not missed and not false_fires
    _report(
        9,
        ok,
        f"{20 - len(missed)}/20 violent sentences matched, "
        f"{len(false_fires)}/50 clean sentences fired",
    )


# --- criterion 10: released-data reproduction (only when data is present) ------


def test_criterion_10_released_data_reproduction():
    docs_path = DATASET_DIR / "docs.jsonl"
    labels_path = DATASET_DIR / "labels.tsv"
    if not (docs_path.exists() and labels_path.exists()):
        pytest.skip("dataset/docs.jsonl and dataset/labels.tsv not present; see README")
    from anchorlex.corpus import load_labels

    t0 = time.perf_counter()
    docs = load_corpus(str(docs_path))
    labels = load_labels(str(labels_path))
    split = stratified_split(labels, (0.7, 0.1, 0.2), seed=0)
    test_docs = [d for d in docs if d.id in split.test]

    def macro_f1(target: str, config: FeatureConfig) -> float:
        model = train_model(docs, labels, split, feature_config=config, target=target, seed=0)
        preds = predict_texts(model, [d.text for d in test_docs])
        gold = {d.id: int(labels[d.id].has(target)) for d in test_docs}
        rep = evaluate_predictions(gold, {d.id: p for d, (p, _) in zip(test_docs, preds)})
        return 100.0 * rep.macro_f1

    char_cfg = FeatureConfig(mode="char", char_range=(2, 5))
    both_cfg = FeatureConfig(mode="char+word", char_range=(2, 5), word_range=(1, 3))
    f1_char = macro_f1("offensive", char_cfg)
    f1_both = macro_f1("offensive", both_cfg)
    f1_hate = macro_f1("hate", both_cfg)
    dt = time.perf_counter() - t0
    ok = (
        abs(f1_char - 74.99) <= 2.5
        and abs(f1_both - 75.33) <= 2.5
        and abs(f1_hate - 76.16) <= 3.0
        and dt < 600.0
    )
    _report(
        10,
        ok,
        f"char {f1_char:.2f} (74.99+-2.5), char+word {f1_both:.2f} (75.33+-2.5), "
        f"hate {f1_hate:.2f} (76.16+-3.0), {dt:.0f}s",
    )


# --- criterion 11: same-seed pipeline reruns are byte-identical -----------------


def _load_pipeline_module():
    path = REPO_ROOT / "scripts" / "run_synthetic_pipeline.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_pipeline", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_criterion_11_pipeline_determinism(tmp_path):
    mod = _load_pipeline_module()
    pa = mod.run_pipeline(str(tmp_path / "a"), seed=0, n_docs=10_000)
    pb = mod.run_pipeline(str(tmp_path / "b"), seed=0, n_docs=10_000)
    diffs = [
        name
        for name in sorted(pa)
        if Path(pa[name]).read_bytes() != Path(pb[name]).read_bytes()
    ]

    def manifest_digests(root: Path) -> dict[str, list[str]]:
        out = {}
        for mp in sorted(root.glob("*.manifest.json")):
            obj = json.loads(mp.read_text(encoding="utf-8"))
            out[mp.name] = sorted(obj["outputs"].values())
        return out

    man_ok = manifest_digests(tmp_path / "a") == manifest_digests(tmp_path / "b")
    ok = not diffs and man_ok
    _report(
        11,
        ok,
        f"{len(pa)} data files byte-identical (diffs={diffs or 'none'}), "
        f"manifest output digests equal={man_ok}",
    )
