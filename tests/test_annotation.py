from __future__ import annotations

import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorlex
from anchorlex import annotation
from anchorlex.annotation import (
    MIN_SHARED,
    AggregatedLabel,
    Judgment,
    Judgments,
    adjudication_queue,
    aggregate_to_labels,
    apply_overrides,
    avg_pairwise_kappa,
    cohen_kappa,
    dump_adjudication,
    dump_gate_results,
    dump_judgments,
    gate_all,
    load_gate_answers,
    load_judgments,
    load_overrides,
    majority_vote,
    write_judgments,
)
from anchorlex.corpus import LabelRecord

import annotation_reference
from conftest import TS


def J(doc: str, ann: str, job: str = "offensive", lab: str = "1") -> Judgment:
    return Judgment(doc_id=doc, annotator_id=ann, job=job, label=lab, timestamp=TS)


# --- kappa -----------------------------------------------------------------


def test_kappa_hand_example_zero():
    # agreement 2/4 = 0.5; both marginals 50/50 -> p_e = 0.5 -> kappa 0
    a = ["1", "1", "0", "0"]
    b = ["1", "0", "0", "1"]
    assert cohen_kappa(a, b) == pytest.approx(0.0, abs=1e-9)


def test_kappa_hand_example_half():
    # p_o = 0.75; marginals a: 2/4, 2/4, b: 3/4, 1/4
    # p_e = 0.5*0.75 + 0.5*0.25 = 0.5 -> kappa = 0.25/0.5 = 0.5
    a = ["1", "1", "0", "0"]
    b = ["1", "1", "0", "1"]
    assert cohen_kappa(a, b) == pytest.approx(0.5, abs=1e-9)


def test_kappa_perfect_and_inverse():
    a = ["x", "y", "x", "y"]
    assert cohen_kappa(a, a) == pytest.approx(1.0, abs=1e-12)
    b = ["y", "x", "y", "x"]
    assert cohen_kappa(a, b) == pytest.approx(-1.0, abs=1e-12)


def test_kappa_self_agreement_random_sequences():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 50)
        seq = [rng.choice("abc") for _ in range(n)]
        if len(set(seq)) < 2:
            continue  # constant sequences are the undefined case
        assert cohen_kappa(seq, seq) == pytest.approx(1.0, abs=1e-12)


def test_kappa_undefined_when_chance_is_one():
    with pytest.raises(ValueError, match="undefined"):
        cohen_kappa(["a", "a"], ["a", "a"])


def test_kappa_input_validation():
    with pytest.raises(ValueError):
        cohen_kappa([], [])
    with pytest.raises(ValueError):
        cohen_kappa(["a"], ["a", "b"])


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
        min_size=2,
        max_size=60,
    )
)
def test_kappa_symmetric(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    try:
        k_ab = cohen_kappa(a, b)
    except ValueError:
        return  # undefined; symmetric by construction
    assert k_ab == pytest.approx(cohen_kappa(b, a), abs=1e-12)
    assert -1.0 - 1e-12 <= k_ab <= 1.0 + 1e-12
    # kappa from the pair counts is the sequence formula, bit for bit
    assert k_ab == annotation_reference.cohen_kappa(a, b)


# --- majority vote and adjudication ----------------------------------------


def test_majority_vote_full_majority_tie():
    js = [
        J("d1", "a1"), J("d1", "a2"), J("d1", "a3"),                      # full 1
        J("d2", "a1", lab="1"), J("d2", "a2", lab="1"), J("d2", "a3", lab="0"),  # majority 1
        J("d3", "a1", lab="1"), J("d3", "a2", lab="0"),                   # tie
    ]
    agg = {a.doc_id: a for a in majority_vote(Judgments.of(js))}
    assert agg["d1"].label == "1" and agg["d1"].agreement == "full"
    assert agg["d2"].label == "1" and agg["d2"].agreement == "majority"
    assert agg["d3"].agreement == "tie" and agg["d3"].label == "0"  # smallest mode


def test_majority_vote_keeps_first_appearance_order():
    js = [J("z9", "a1"), J("a1", "a1"), J("m5", "a1")]
    assert [a.doc_id for a in majority_vote(Judgments.of(js))] == ["z9", "a1", "m5"]


def test_majority_vote_separates_jobs():
    js = [J("d1", "a1", job="offensive", lab="1"), J("d1", "a1", job="vulgar", lab="0")]
    agg = majority_vote(Judgments.of(js))
    assert {(a.doc_id, a.job, a.label) for a in agg} == {("d1", "offensive", "1"), ("d1", "vulgar", "0")}


def test_adjudication_queue_non_unanimous_in_order():
    js = [
        J("d1", "a1", lab="1"), J("d1", "a2", lab="1"),
        J("d2", "a1", lab="1"), J("d2", "a2", lab="0"),
        J("d3", "a1", lab="0"), J("d3", "a2", lab="1"), J("d3", "a3", lab="1"),
    ]
    queue = adjudication_queue(majority_vote(Judgments.of(js)))
    assert [a.doc_id for a in queue] == ["d2", "d3"]
    text = dump_adjudication(queue)
    assert text.splitlines()[0] == "doc_id\tjob\tlabel\tagreement\toverride"


# --- aggregation to label records -------------------------------------------


def _votes(doc: str, job: str, labels: list[str]) -> list[Judgment]:
    return [J(doc, f"a{i}", job=job, lab=v) for i, v in enumerate(labels)]


def test_aggregate_to_labels_basic():
    js = (
        _votes("d1", "offensive", ["1", "1", "1"])
        + _votes("d1", "hate", ["religion", "religion", "none"])
        + _votes("d1", "vulgar", ["0", "0", "0"])
        + _votes("d2", "offensive", ["0", "0", "0"])
    )
    labels, dropped = aggregate_to_labels(majority_vote(Judgments.of(js)))
    assert dropped == []
    assert labels["d1"].offensive and labels["d1"].hate_targets == frozenset({"religion"})
    assert not labels["d1"].vulgar
    assert not labels["d2"].offensive


def test_aggregate_subsidiary_on_clean_doc_dropped_with_warning():
    js = _votes("d1", "offensive", ["0", "0"]) + _votes("d1", "violence", ["1", "1"])
    labels, dropped = aggregate_to_labels(majority_vote(Judgments.of(js)))
    assert not labels["d1"].offensive and not labels["d1"].violence
    assert dropped == ["d1"]
    # two such docs: both ids come back, in order
    js += _votes("d2", "offensive", ["0", "0"]) + _votes("d2", "hate", ["race", "race"])
    labels, dropped = aggregate_to_labels(majority_vote(Judgments.of(js)))
    assert not labels["d2"].offensive and not labels["d2"].hate_targets
    assert dropped == ["d1", "d2"]


def test_aggregate_requires_offensive_job():
    js = _votes("d1", "vulgar", ["1", "1"])
    with pytest.raises(ValueError, match="offensive"):
        aggregate_to_labels(majority_vote(Judgments.of(js)))


def test_apply_overrides_monotonicity():
    base = {
        "d1": LabelRecord(doc_id="d1", offensive=False),
        "d2": LabelRecord(doc_id="d2", offensive=True, vulgar=True),
    }
    # forcing a subsidiary on a clean doc must switch offensive on
    out = apply_overrides(base, [("d1", "violence", "1")])
    assert out["d1"].offensive and out["d1"].violence
    # clearing offensive must clear subsidiaries
    out = apply_overrides(base, [("d2", "offensive", "0")])
    assert not out["d2"].offensive and not out["d2"].vulgar


@pytest.mark.parametrize(
    "job, label, error",
    [
        ("offensive", "yes", "d1: offensive label must be 0/1, got 'yes'"),
        ("vulgar", "true", "d1: vulgar label must be 0/1, got 'true'"),
        ("violence", "", "d1: violence label must be 0/1, got ''"),
        ("hate", "1", "d1: unknown hate target '1'"),
        ("sarcasm", "1", "d1: unknown job 'sarcasm'"),
    ],
    ids=["offensive", "vulgar", "violence", "hate", "unknown job"],
)
def test_votes_and_overrides_share_one_label_rule(job, label, error):
    votes = {"offensive": "1", job: label}
    aggregated = [AggregatedLabel("d1", j, v, "full") for j, v in votes.items()]
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        aggregate_to_labels(aggregated)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        apply_overrides({"d1": LabelRecord("d1", True)}, [("d1", job, label)])


def test_hate_none_and_0_both_clear_the_targets():
    rec = LabelRecord("d1", True, frozenset({"race"}))
    for label in ("none", "0"):
        votes = _votes("d1", "offensive", ["1"]) + _votes("d1", "hate", [label])
        assert aggregate_to_labels(majority_vote(Judgments.of(votes)))[0]["d1"] == LabelRecord("d1", True)
        assert apply_overrides({"d1": rec}, [("d1", "hate", label)])["d1"] == LabelRecord("d1", True)


def test_apply_overrides_unknown_doc_errors():
    with pytest.raises(ValueError):
        apply_overrides({}, [("ghost", "offensive", "1")])


# --- QC gate -----------------------------------------------------------------


def test_gate_threshold_boundary():
    answers = {f"t{i}": "1" for i in range(5)}
    js = [J(f"t{i}", "good", lab="1") for i in range(4)] + [J("t4", "good", lab="0")]
    (res,) = gate_all(Judgments.of(js), answers, 0.8)
    assert res.accuracy == pytest.approx(0.8) and res.passed  # >= is a pass
    js_bad = [J(f"t{i}", "bad", lab="1") for i in range(3)] + [
        J("t3", "bad", lab="0"),
        J("t4", "bad", lab="0"),
    ]
    assert not gate_all(Judgments.of(js_bad), answers, 0.8)[0].passed


def test_gate_counts_only_offensive_judgments():
    answers = {"t0": "1", "t1": "0", "t2": "1"}
    js = [J(doc, "perfect", lab=lab) for doc, lab in answers.items()]
    js += [
        J("t0", "perfect", job="hate", lab="religion"),
        J("t1", "perfect", job="hate", lab="none"),
        J("t0", "perfect", job="vulgar", lab="0"),
        J("t2", "perfect", job="vulgar", lab="1"),
        J("t1", "hate_only", job="hate", lab="0"),
    ]
    # an annotator with no offensive judgment on a test item is not gated
    (res,) = gate_all(Judgments.of(js), answers, 0.8)
    assert res.annotator_id == "perfect"
    assert (res.n_test, res.n_correct, res.accuracy, res.passed) == (3, 3, 1.0, True)


def test_gate_no_test_items_errors():
    assert gate_all(Judgments.of([J("other", "a", lab="1")]), {"t0": "1"}, 0.8) == []


def test_gate_all_sorted_and_dump():
    js = [J("t0", "b", lab="1"), J("t0", "a", lab="0"), J("t1", "a", lab="0")]
    results = gate_all(Judgments.of(js), {"t0": "1", "t1": "0"}, 0.8)
    assert [r.annotator_id for r in results] == ["a", "b"]
    text = dump_gate_results(results)
    assert text.splitlines()[0] == "annotator_id\tn_test\tn_correct\taccuracy\tpassed"


# --- pairwise kappa over judgment files --------------------------------------


def _shared_judgments(n_items: int, flip_every: int) -> list[Judgment]:
    js = []
    for i in range(n_items):
        lab = "1" if i % 2 == 0 else "0"
        js.append(J(f"d{i}", "a1", lab=lab))
        other = lab if i % flip_every else ("0" if lab == "1" else "1")
        js.append(J(f"d{i}", "a2", lab=other))
    return js


def test_avg_pairwise_kappa_min_shared():
    js = _shared_judgments(19, flip_every=5)
    with pytest.raises(ValueError, match="no annotator pair"):
        avg_pairwise_kappa(Judgments.of(js), min_shared=20)
    js = _shared_judgments(20, flip_every=5)
    report = avg_pairwise_kappa(Judgments.of(js), min_shared=20)
    assert len(report.pairs) == 1
    assert report.pairs[0].n_shared == 20


def test_avg_pairwise_kappa_skips_undefined_pairs():
    # disjoint doc spaces so the two annotator pairs never cross-pair
    js = [J(f"e{i}", "c1", lab="1") for i in range(25)]
    js += [J(f"e{i}", "c2", lab="1") for i in range(25)]  # constant: undefined
    for i in range(25):
        lab = "1" if i % 2 == 0 else "0"
        js.append(J(f"d{i}", "b1", lab=lab))
        js.append(J(f"d{i}", "b2", lab=lab))
    report = avg_pairwise_kappa(Judgments.of(js), min_shared=20)
    defined = {(p.annotator_a, p.annotator_b) for p in report.pairs}
    assert ("b1", "b2") in defined
    assert ("c1", "c2") not in defined
    assert report.mean_kappa == pytest.approx(1.0)


def test_avg_pairwise_kappa_pools_every_job():
    js = _shared_judgments(30, flip_every=3)
    js += [J(f"d{i}", "a1", job="vulgar", lab="0") for i in range(30)]
    js += [J(f"d{i}", "a2", job="vulgar", lab="0") for i in range(30)]
    # each (doc, job) pair is one item, so the constant vulgar votes count too
    assert avg_pairwise_kappa(Judgments.of(js), min_shared=20).pairs[0].n_shared == 60


# --- file round trips --------------------------------------------------------


def test_judgments_file_round_trip(tmp_path):
    js = [J("d1", "a1"), J("d2", "a2", job="hate", lab="religion")]
    p = tmp_path / "judgments.tsv"
    write_judgments(str(p), js)
    assert load_judgments(str(p)) == Judgments.of(js)
    assert dump_judgments(js).splitlines()[0] == "doc_id\tannotator_id\tjob\tlabel\ttimestamp"


def test_judgment_validation():
    with pytest.raises(ValueError):
        Judgment(doc_id="", annotator_id="a", job="offensive", label="1", timestamp=TS)
    with pytest.raises(ValueError):
        Judgment(doc_id="d", annotator_id="a", job="offensive", label="", timestamp=TS)
    # a Judgment holds any job; load_judgments and aggregation validate jobs
    Judgment(doc_id="d", annotator_id="a", job="sarcasm", label="1", timestamp=TS)
    with pytest.raises(ValueError, match="job"):
        aggregate_to_labels(
            majority_vote(Judgments.of(
                [J("d1", "a1", job="sarcasm", lab="1"), J("d1", "a1", job="offensive", lab="1")]
            ))
        )


def test_gate_answers_and_overrides_files(tmp_path):
    ap = tmp_path / "answers.tsv"
    ap.write_text("doc_id\tlabel\nt0\t1\nt1\t0\n", encoding="utf-8")
    assert load_gate_answers(str(ap)) == {"t0": "1", "t1": "0"}
    op = tmp_path / "queue.tsv"
    op.write_text(
        "doc_id\tjob\tlabel\tagreement\toverride\nd1\toffensive\t1\ttie\t0\nd2\tvulgar\t0\tmajority\t\n",
        encoding="utf-8",
    )
    # blank override column means "no change" and is skipped
    assert load_overrides(str(op)) == [("d1", "offensive", "0")]


def test_overrides_take_exactly_the_queue_header_and_columns(tmp_path):
    op = tmp_path / "adj.tsv"
    op.write_text("doc_id\tjob\toverride\nd1\toffensive\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: bad header"):
        load_overrides(str(op))
    op.write_text("doc_id\tjob\tlabel\tagreement\toverride\nd1\toffensive\t1\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: expected 5 columns, got 4"):
        load_overrides(str(op))
    queue = [AggregatedLabel("d1", "offensive", "1", "majority")]
    op.write_text(dump_adjudication(queue), encoding="utf-8")
    assert load_overrides(str(op)) == []


def test_load_judgments_parses_each_timestamp_once_and_shares_it(tmp_path):
    p = tmp_path / "j.tsv"
    p.write_text(
        "doc_id\tannotator_id\tjob\tlabel\ttimestamp\n"
        "d1\ta1\toffensive\t1\t2021-05-01T12:00:00Z\n"
        "d1\ta2\toffensive\t0\t2021-05-01 14:00:00+02:00\n"
        "d2\ta1\toffensive\t1\t2021-05-01T12:00:00Z\n"
        "d2\ta2\toffensive\t1\t\n",
        encoding="utf-8",
    )
    js = load_judgments(str(p))
    # fromisoformat formats other than the writer's still load
    assert js.timestamps == [TS, TS, TS, None]
    assert js.timestamps[0] is js.timestamps[2]


def test_load_judgments_bad_timestamp_names_its_first_line(tmp_path):
    p = tmp_path / "j.tsv"
    p.write_text(
        "doc_id\tannotator_id\tjob\tlabel\ttimestamp\n"
        "d1\ta1\toffensive\t1\t2021-05-01T12:00:00Z\n"
        "d1\ta2\toffensive\t1\tyesterday\n"
        "d2\ta1\toffensive\t1\t2021-05-01T12:00:00Z\n"
        "d2\ta2\toffensive\t1\tyesterday\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"j\.tsv: line 3: bad timestamp 'yesterday'"):
        load_judgments(str(p))


def test_load_judgments_rejects_duplicate_judgment(tmp_path):
    p = tmp_path / "j.tsv"
    p.write_text(
        "doc_id\tannotator_id\tjob\tlabel\ttimestamp\n"
        "d1\ta1\toffensive\t1\t\n"
        "d1\ta1\thate\trace\t\n"
        "d1\ta2\toffensive\t0\t\n"
        "d1\ta1\toffensive\t0\t\n",
        encoding="utf-8",
    )
    with pytest.raises(
        ValueError,
        match=r"line 5: duplicate \(doc_id, annotator_id, job\) \('d1', 'a1', 'offensive'\), first on line 2$",
    ):
        load_judgments(str(p))


def test_load_judgments_length_is_the_row_count(tmp_path):
    p = tmp_path / "j.tsv"
    js = [J(f"d{i}", a, job) for i in range(3) for a in ("a1", "a2") for job in ("offensive", "vulgar")]
    write_judgments(str(p), js)
    assert len(load_judgments(str(p))) == len(p.read_text(encoding="utf-8").splitlines()) - 1 == 12


# --- the column read against the per-line loader --------------------------------

_VALID_ROW = st.tuples(
    st.sampled_from([f"d{i}" for i in range(30)]),
    st.sampled_from(["a0", "a1", "a2"]),
    st.sampled_from(
        [("offensive", "0"), ("offensive", "1"), ("hate", "none"), ("hate", "0"), ("hate", "race"),
         ("vulgar", "1"), ("violence", "0")]
    ),
    st.sampled_from(["", TS, "2021-05-01 14:00:00+02:00"]),  # the last one is not canonical
).map(lambda r: [r[0], r[1], *r[2], r[3]])
# each fault turns a valid row into a bad line; "dup" repeats an earlier row's key,
# and the two header faults replace line 1
_FAULTS = {
    "blank": lambda row: [],
    "short": lambda row: row[:4],
    "long": lambda row: row + ["x"],
    "empty doc": lambda row: ["", *row[1:]],
    "empty annotator": lambda row: [row[0], "", *row[2:]],
    "empty label": lambda row: [*row[:3], "", row[4]],
    "bad timestamp": lambda row: [*row[:4], "yesterday"],
    "no such day": lambda row: [*row[:4], "2021-02-30T00:00:00Z"],
    "unknown job": lambda row: [row[0], row[1], "sarcasm", "1", row[4]],
    "offensive label": lambda row: [row[0], row[1], "offensive", "none", row[4]],
    "hate label": lambda row: [row[0], row[1], "hate", "1", row[4]],
    "dup": None,
    "short header": None,
    "no header": None,
}


@st.composite
def judgment_files(draw):
    """A judgments file's text: valid rows with up to two faults put in."""
    header = "doc_id\tannotator_id\tjob\tlabel\ttimestamp"
    rows = draw(st.lists(_VALID_ROW, max_size=8, unique_by=lambda row: tuple(row[:3])))
    for fault in draw(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=2)):
        at = draw(st.integers(0, len(rows)))
        if fault in ("short header", "no header"):
            header = header.rsplit("\t", 1)[0] if fault == "short header" else ""
            continue
        if fault == "dup":
            if not rows:
                continue
            first = draw(st.integers(0, len(rows) - 1))
            at = max(at, first + 1)
            line = [*rows[first][:3], draw(st.sampled_from(["0", "1"])), ""]
        else:
            line = _FAULTS[fault](draw(_VALID_ROW))
        rows.insert(at, line)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header, *map("\t".join, rows)]
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(text=judgment_files())
def test_load_judgments_matches_the_per_line_loader(tmp_path_factory, text):
    path = str(tmp_path_factory.getbasetemp() / "judgments.tsv")  # rewritten by each example
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    want = _outcome(lambda p: Judgments.of(annotation_reference.load_judgments(p)), path)
    assert _outcome(load_judgments, path) == want
    # every file the loop reads without a blank line to skip is read as columns
    blank = "\n\n" in text.replace("\r\n", "\n").replace("\r", "\n")
    assert (annotation._clean_columns(path) is not None) == (not isinstance(want, str) and not blank)


@pytest.mark.parametrize(
    "head, tail",
    [
        (b"doc_id\tannotator_id\tjob\tlabel\ttimestamp\n", b"d\xff\ta1\toffensive\t1\t\n"),
        (b"x\n", b"\xff\n"),  # a bad header: the loop stops there, before the bad byte
    ],
    ids=["bad-byte-past-8k", "bad-header-first"],
)
def test_load_judgments_on_invalid_utf8_matches_the_per_line_loader(tmp_path, head, tail):
    # over 8 KB of good rows first: the loop decodes by chunks, so the position it reports is the chunk's
    p = tmp_path / "j.tsv"
    p.write_bytes(head + b"".join(b"d%d\ta1\toffensive\t1\t\n" % i for i in range(1000)) + tail)
    want = _outcome(lambda path: Judgments.of(annotation_reference.load_judgments(path)), str(p))
    assert isinstance(want, str)
    assert _outcome(load_judgments, str(p)) == want


def test_kappa_does_not_depend_on_hash_seed():
    # four categories, so the chance-agreement sum has an order to lose
    code = """
import random
from anchorlex.annotation import Judgment, Judgments, avg_pairwise_kappa
rng = random.Random(0)
labels = ["none", "religion", "gender", "race"]
js = [
    Judgment(f"d{d}", f"a{a}", "hate", rng.choices(labels, weights=[5, 2, 2, 1])[0])
    for d in range(200)
    for a in rng.sample(range(8), 3)
]
for p in avg_pairwise_kappa(Judgments.of(js), min_shared=5).pairs:
    print(p.annotator_a, p.annotator_b, repr(p.kappa))
"""
    src = os.path.dirname(os.path.dirname(anchorlex.__file__))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert len(outs[0].splitlines()) == 28
    assert outs[0] == outs[1]


# --- one-pass stages against the previous code --------------------------------

ANNOTATORS = [f"a{i}" for i in range(5)]
DOCS = [f"d{i}" for i in range(8)]
JOB_NAMES = ["offensive", "hate", "sarcasm"]  # sarcasm: a custom job


@st.composite
def judgment_sets(draw):
    """Up to 6 distinct labels over a few docs, annotators and jobs; in-memory
    sets may repeat a (doc, annotator, job), as only the file loader rejects it."""
    labels = draw(st.lists(st.sampled_from("0123456"), min_size=1, max_size=6, unique=True))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(DOCS),
                st.sampled_from(ANNOTATORS),
                st.sampled_from(JOB_NAMES),
                st.sampled_from(labels),
            ),
            max_size=80,
        )
    )
    return [Judgment(d, a, job, lab) for d, a, job, lab in rows]


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(js=judgment_sets())
def test_majority_vote_matches_reference(js):
    assert majority_vote(Judgments.of(js)) == annotation_reference.majority_vote(js)


@settings(max_examples=300, deadline=None)
@given(js=judgment_sets(), min_shared=st.integers(0, 8))
def test_avg_pairwise_kappa_matches_reference(js, min_shared):
    got = _outcome(avg_pairwise_kappa, Judgments.of(js), min_shared=min_shared)
    assert got == _outcome(annotation_reference.avg_pairwise_kappa, js, min_shared=min_shared)


@settings(max_examples=300, deadline=None)
@given(
    js=judgment_sets(),
    answers=st.dictionaries(st.sampled_from(DOCS), st.sampled_from("012"), min_size=1),
    threshold=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    annotator=st.sampled_from(ANNOTATORS),
)
def test_gate_matches_reference(js, answers, threshold, annotator):
    assert gate_all(Judgments.of(js), answers, threshold) == annotation_reference.gate_all(js, answers, threshold)
    # the annotator's row, or none where the reference finds no test items
    ref = _outcome(annotation_reference.gate_annotator, js, annotator, answers, threshold)
    row = [r for r in gate_all(Judgments.of(js), answers, threshold) if r.annotator_id == annotator]
    assert row == ([] if isinstance(ref, str) else [ref])


@pytest.mark.parametrize("min_shared", [4, 5, 6])
def test_avg_pairwise_kappa_min_shared_edges_match_reference(min_shared):
    # every pair shares the same 5 items; a3 and a4 are constant on one
    # category, so their pair has undefined kappa and is skipped
    js = []
    for i, (x, y) in enumerate(["00", "01", "11", "22", "20"]):
        js += [J(f"d{i}", "a1", lab=x), J(f"d{i}", "a2", lab=y)]
        js += [J(f"d{i}", "a3", lab="0"), J(f"d{i}", "a4", lab="0")]
    got = _outcome(avg_pairwise_kappa, Judgments.of(js), min_shared=min_shared)
    assert got == _outcome(annotation_reference.avg_pairwise_kappa, js, min_shared=min_shared)
    if min_shared <= 5:
        assert [(p.annotator_a, p.annotator_b, p.n_shared) for p in got.pairs] == [
            ("a1", "a2", 5),
            ("a1", "a3", 5),
            ("a1", "a4", 5),
            ("a2", "a3", 5),
            ("a2", "a4", 5),
        ]
    else:
        assert got == "no annotator pair shares >= 6 items with defined kappa"


def test_avg_pairwise_kappa_constant_annotators_match_reference():
    # every annotator constant on the same label: kappa undefined for all pairs
    js = [J(f"d{i}", a, lab="1") for i in range(25) for a in ("a1", "a2", "a3")]
    msg = "no annotator pair shares >= 20 items with defined kappa"
    assert _outcome(avg_pairwise_kappa, Judgments.of(js), MIN_SHARED) == msg
    assert _outcome(annotation_reference.avg_pairwise_kappa, js, MIN_SHARED) == msg
