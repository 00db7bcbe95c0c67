from __future__ import annotations

import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorlex import cli
from anchorlex.corpus import (
    LABEL_CLASSES,
    DatasetSplit,
    Document,
    LabelRecord,
    canonical_timestamp,
    dump_corpus,
    dump_labels,
    dump_split,
    format_timestamp,
    load_corpus,
    load_labels,
    load_split,
    parse_timestamp,
    stratified_split,
    write_corpus,
    write_labels,
    write_split,
)
from anchorlex.util import round_half_up

from conftest import TS, doc, label, make_label_set


# --- documents and labels -------------------------------------------------


def test_document_rejects_empty_id_and_nul():
    with pytest.raises(ValueError):
        Document(id="", text="x", created_at=TS)
    with pytest.raises(ValueError):
        Document(id="a", text="x\x00y", created_at=TS)


def test_label_record_monotonicity():
    with pytest.raises(ValueError):
        LabelRecord(doc_id="d", offensive=False, vulgar=True)
    with pytest.raises(ValueError):
        LabelRecord(doc_id="d", offensive=False, hate_targets=frozenset({"race"}))
    rec = LabelRecord(doc_id="d", offensive=True, hate_targets=frozenset({"race"}))
    assert rec.is_hate
    assert not LabelRecord(doc_id="d", offensive=True).is_hate


def test_label_record_has_reads_only_the_label_classes():
    rec = LabelRecord(doc_id="d", offensive=True, hate_targets=frozenset({"race"}), violence=True)
    assert [rec.has(c) for c in LABEL_CLASSES] == [True, True, False, True]
    for name in ("doc_id", "hate_targets", "is_hate", ""):
        with pytest.raises(ValueError, match=f"^unknown label class {name!r}$"):
            rec.has(name)


def test_label_record_rejects_unknown_target():
    with pytest.raises(ValueError):
        LabelRecord(doc_id="d", offensive=True, hate_targets=frozenset({"astrology"}))


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("2021-05-01T12:00:00Z", datetime(2021, 5, 1, 12, tzinfo=timezone.utc)),
        ("2021-05-01T12:00:00+00:00", datetime(2021, 5, 1, 12, tzinfo=timezone.utc)),
        ("2021-05-01T12:00:00", datetime(2021, 5, 1, 12, tzinfo=timezone.utc)),
        # non-UTC offsets convert; microseconds truncate
        ("2021-05-01T14:00:00+02:00", datetime(2021, 5, 1, 12, tzinfo=timezone.utc)),
        ("2021-05-01T12:00:00.999Z", datetime(2021, 5, 1, 12, tzinfo=timezone.utc)),
    ],
)
def test_parse_timestamp(raw, expected):
    assert parse_timestamp(raw) == expected


def test_format_timestamp_round_trip():
    dt = datetime(2021, 5, 1, 12, tzinfo=timezone.utc)
    assert format_timestamp(dt) == "2021-05-01T12:00:00Z"
    assert parse_timestamp(format_timestamp(dt)) == dt


def _outcome(f, value):
    try:
        return f(value)
    except ValueError as e:
        return f"ValueError: {e}"


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def _timestamp_strings(draw) -> str:
    year = draw(st.one_of(st.integers(1, 999), st.integers(1000, 9999)))
    # day 31, hour 24 and second 60 make impossible dates and times
    bounds = ((1, 12), (1, 31), (0, 24), (0, 59), (0, 60))
    m, d, hh, mm, ss = (draw(st.integers(lo, hi)) for lo, hi in bounds)
    date, time = f"{year:04d}-{m:02d}-{d:02d}", f"{hh:02d}:{mm:02d}:{ss:02d}"
    if draw(st.booleans()):  # the canonical shape
        return f"{date}T{time}Z"
    frac = draw(st.sampled_from(["", ".5", ".999999"]))
    tz = draw(st.sampled_from(["", "Z", "z", "+00:00", "+02:00", "-05:30", "+14:00"]))
    s = date + draw(st.sampled_from("T ")) + time + frac + tz
    if draw(st.booleans()):
        s = s.translate(_ARABIC_INDIC) if draw(st.booleans()) else s[:4].translate(_ARABIC_INDIC) + s[4:]
    return draw(st.sampled_from(["", " ", "\n"])) + s + draw(st.sampled_from(["", " ", "\t"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_timestamp_strings(), st.text(max_size=25)))
@example("2021-02-30T00:00:00Z")
@example("2023-02-29T12:00:00Z")
@example("2021-05-01T24:00:00Z")
@example("2021-05-01T23:59:60Z")
def test_canonical_timestamp_matches_parse_then_format(value):
    # same string or same error as the full parse; the fast path is only a shortcut
    oracle = _outcome(lambda v: format_timestamp(parse_timestamp(v)), value)
    assert _outcome(canonical_timestamp, value) == oracle


def test_canonical_timestamp_keeps_a_canonical_string_and_rejects_impossible_ones():
    s = "2021-05-01T12:00:00Z"
    assert canonical_timestamp(s) is s
    assert canonical_timestamp("2021-05-01 14:00:00.5+02:00") == s
    for bad in ("2021-02-30T00:00:00Z", "2021-05-01T24:00:00Z", "0001-01-01T00:00:00+01:00"):
        with pytest.raises(ValueError, match=f"^bad timestamp {re.escape(repr(bad))}: "):
            canonical_timestamp(bad)


def test_corpus_jsonl_round_trip(tmp_path):
    docs = [doc(0, "hello \U0001F437"), doc(1, "tab\tand \"quote\"")]
    p = tmp_path / "c.jsonl"
    write_corpus(str(p), docs)
    assert load_corpus(str(p)) == docs


def test_corpus_ignores_every_key_past_the_three_fields(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "text": "x", "created_at": "2021-05-01T12:00:00Z", "lang": 0, "src": "t"}\n', encoding="utf-8")
    assert load_corpus(str(p)) == [Document(id="a", text="x", created_at=TS)]
    assert dump_corpus(load_corpus(str(p))) == '{"created_at": "2021-05-01T12:00:00Z", "id": "a", "text": "x"}\n'


# quotes, backslashes, control characters, U+2028, non-BMP characters and lone surrogates
FIELD_TEXT = st.text(
    alphabet=st.sampled_from(['"', "\\", "\x01", "\x1f", "\x7f", "\n", "\t", "\u2028", "\U0001F437", "\ud83d", "ي"])
    | st.characters(),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(
            Document,
            id=FIELD_TEXT.filter(lambda t: t and not {"\t", "\r", "\n"} & set(t)),
            text=FIELD_TEXT.filter(lambda t: "\x00" not in t),
            created_at=FIELD_TEXT,
        ),
        max_size=4,
    )
)
def test_dump_corpus_jsonl_equals_json_dumps_of_each_row(docs):
    rows = [
        json.dumps(
            {"id": d.id, "text": d.text, "created_at": d.created_at},
            ensure_ascii=False,
            sort_keys=True,
        )
        for d in docs
    ]
    assert dump_corpus(docs) == "".join(r + "\n" for r in rows)


def test_corpus_missing_field_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "text": "x", "created_at": "2021-05-01T12:00:00Z"}\n{"id": "b"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2.*text"):
        load_corpus(str(p))


@pytest.mark.parametrize("escape", ["\\ud83d", "\\uDCFF", "\\ude00\\ud83d", "\\udfff x"])
@pytest.mark.parametrize("field", ["text", "id", "lang"])
def test_corpus_lone_surrogate_escape_names_its_line(tmp_path, capsys, escape, field):
    row = {"id": "b", "text": "يا غبي", "created_at": "2021-05-01T12:00:00Z", "lang": "ar"}
    row[field] = "@@"
    good = '{"id": "a", "text": "x \\ud83d\\ude00 \\\\ud83d", "created_at": "2021-05-01T12:00:00Z"}'
    p = tmp_path / "bad.jsonl"
    p.write_text(good + "\n" + json.dumps(row).replace("@@", escape) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 2: lone surrogate"):
        load_corpus(str(p))
    # the stages that read a corpus exit 2 naming the line, and write nothing
    for stage in ("normalize", "collect"):
        out = tmp_path / f"{stage}.jsonl"
        assert cli.main([stage, "--in", str(p), "--out", str(out)]) == 2
        assert f"{p}: line 2: lone surrogate" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("sep", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
def test_corpus_id_with_a_row_separator_names_its_line(tmp_path, capsys, sep):
    bad_id = f"d{sep}x"
    with pytest.raises(ValueError, match="holds a tab, CR or LF"):
        Document(id=bad_id, text="x", created_at=TS)
    p = tmp_path / "bad.jsonl"
    row = json.dumps({"id": bad_id, "text": "y", "created_at": TS})
    p.write_text(dump_corpus([doc(0, "x")]) + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}: line 2: document id {bad_id!r}")):
        load_corpus(str(p))
    out = tmp_path / "kept.jsonl"
    assert cli.main(["collect", "--in", str(p), "--out", str(out)]) == 2
    assert f"{p}: line 2: document id" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_surrogate_pair_escape_is_one_character(tmp_path):
    p = tmp_path / "ok.jsonl"
    # an escaped pair, and an escaped backslash before "ud83d", are no lone surrogates
    p.write_text(
        '{"id": "a", "text": "\\ud83d\\ude00 \\uD83D\\uDE00 \\\\ud83d", "created_at": "2021-05-01T12:00:00Z"}\n',
        encoding="utf-8",
    )
    assert load_corpus(str(p))[0].text == "\U0001F600 \U0001F600 \\ud83d"


def test_corpus_duplicate_id(tmp_path):
    p = tmp_path / "dup.jsonl"
    write_corpus(str(p), [doc(0, "x")])
    raw = p.read_text(encoding="utf-8")
    p.write_text(raw + raw, encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_corpus(str(p))


def test_labels_round_trip(tmp_path):
    recs = [
        label(0),
        label(1, offensive=True, hate_targets=("race", "religion")),
        label(2, offensive=True, vulgar=True, violence=True),
    ]
    p = tmp_path / "labels.tsv"
    write_labels(str(p), recs)
    got = load_labels(str(p))
    assert got == {r.doc_id: r for r in recs}
    # hate_targets serialize sorted
    line = dump_labels(recs).splitlines()[2]
    assert "race,religion" in line


def test_labels_bad_header(tmp_path):
    p = tmp_path / "labels.tsv"
    p.write_text("doc\toffensive\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_labels(str(p))


# --- splits ----------------------------------------------------------------


def test_split_parts_disjoint():
    with pytest.raises(ValueError):
        DatasetSplit(train=frozenset({"a"}), dev=frozenset({"a"}), test=frozenset())


def test_stratified_split_exact_class_counts():
    labels = {}
    for i in range(10):
        labels[f"p{i}"] = LabelRecord(doc_id=f"p{i}", offensive=True)
    for i in range(20):
        labels[f"n{i}"] = LabelRecord(doc_id=f"n{i}", offensive=False)
    split = stratified_split(labels, (0.7, 0.1, 0.2), seed=3)
    pos = {d for d, r in labels.items() if r.offensive}
    assert len(split.dev & pos) == 1 and len(split.test & pos) == 2
    assert len(split.train & pos) == 7
    neg = set(labels) - pos
    assert len(split.dev & neg) == 2 and len(split.test & neg) == 4
    assert len(split.train & neg) == 14
    assert split.train | split.dev | split.test == frozenset(labels)


def test_stratified_split_deterministic_and_seed_sensitive():
    labels = make_label_set(300, 90, seed=1)
    a = stratified_split(labels, seed=5)
    b = stratified_split(labels, seed=5)
    c = stratified_split(labels, seed=6)
    assert (a.train, a.dev, a.test) == (b.train, b.dev, b.test)
    assert (a.train, a.dev, a.test) != (c.train, c.dev, c.test)


def test_stratified_split_tiny_class_goes_to_train():
    labels = {
        "p0": LabelRecord(doc_id="p0", offensive=True),
        "p1": LabelRecord(doc_id="p1", offensive=True),
        **{f"n{i}": LabelRecord(doc_id=f"n{i}", offensive=False) for i in range(10)},
    }
    with pytest.warns(UserWarning, match="assigning all to train"):
        split = stratified_split(labels)
    assert {"p0", "p1"} <= split.train


def test_stratified_split_bad_ratios():
    labels = make_label_set(10, 3)
    with pytest.raises(ValueError):
        stratified_split(labels, (0.5, 0.2, 0.2))  # does not sum to 1
    with pytest.raises(ValueError):
        stratified_split(labels, (0.9, -0.1, 0.2))
    # nan fails every comparison, the sum check's too, so only a finiteness check catches it
    for bad in ((float("nan"), 0.1, 0.2), (0.5, float("nan"), 0.5)):
        with pytest.raises(ValueError, match="--ratios must be finite"):
            stratified_split(labels, bad)


@settings(max_examples=40, deadline=None)
@given(
    n_total=st.integers(min_value=3, max_value=120),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_stratified_split_partition_invariants(n_total, frac, seed):
    n_pos = min(n_total, max(0, round(frac * n_total)))
    labels = make_label_set(n_total, n_pos, seed=seed)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = stratified_split(labels, (0.7, 0.1, 0.2), seed=seed)
    ids = frozenset(labels)
    assert split.train | split.dev | split.test == ids
    assert not (split.train & split.dev or split.train & split.test or split.dev & split.test)
    for positive in (True, False):
        cls = {d for d, r in labels.items() if r.offensive is positive}
        if len(cls) < 3:
            assert cls <= split.train
            continue
        assert len(split.dev & cls) == round_half_up(0.1 * len(cls))
        assert len(split.test & cls) == round_half_up(0.2 * len(cls))


def test_split_file_round_trip(tmp_path):
    labels = make_label_set(40, 12, seed=2)
    split = stratified_split(labels, seed=9)
    p = tmp_path / "split.txt"
    write_split(str(p), split)
    # a split read back equals the split written, whatever seed drew it
    assert load_split(str(p)) == split
    text = dump_split(split)
    assert text.startswith("train:")
    # ids listed sorted inside each section
    lines = text.splitlines()
    sec = lines[1 : 1 + len(split.train)]
    assert sec == sorted(sec)


def test_load_split_names_the_line_of_an_overlap(tmp_path):
    p = tmp_path / "split.txt"
    p.write_text("train:\na\nb\ndev:\nc\ntest:\nd\nb\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_split(str(p))
    assert str(exc.value) == f"{p}: line 8: doc id 'b' already in section 'train'"


def test_split_part_lookup():
    s = DatasetSplit(frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    assert s.part("dev") == frozenset({"b"})
    with pytest.raises(ValueError):
        s.part("validation")
