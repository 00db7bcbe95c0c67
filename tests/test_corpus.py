from __future__ import annotations

import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus_reference
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


# a documents line whose field is not a JSON string -> the error after "line 1: "
NON_STRING_FIELDS = {
    '{"id": true, "text": "t", "created_at": "2021-05-01T12:00:00Z"}': "field id must be a string, got bool",
    '{"id": 1e400, "text": "t", "created_at": "2021-05-01T12:00:00Z"}': "field id must be a string, got float",
    '{"id": "d1", "text": ["a", "b"], "created_at": "2021-05-01T12:00:00Z"}': "field text must be a string, got list",
    '{"id": "d1", "text": "t", "created_at": 20210501}': "field created_at must be a string, got int",
}


@pytest.mark.parametrize("line", list(NON_STRING_FIELDS), ids=["bool id", "huge id", "list text", "int created_at"])
def test_a_document_field_that_is_not_a_string_names_its_line(tmp_path, capsys, line):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{raw}: line 1: {NON_STRING_FIELDS[line]}") + "$"):
        load_corpus(str(raw))
    assert cli.main(["normalize", "--in", str(raw), "--out", str(tmp_path / "out.jsonl")]) == 2
    assert f"error: {raw}: line 1: {NON_STRING_FIELDS[line]}\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.jsonl"]


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


# JSON's own whitespace but LF (CR also ends a line of the file), the other characters
# .strip() strips (line breaks only to str.splitlines, not to a text file), a BOM, and nothing
_JSON_WS = [" ", "\t", "\r"]
_OTHER_WS = ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "\ufeff"]
_WS = st.one_of(st.just(""), st.text(st.sampled_from(_JSON_WS), max_size=2), st.sampled_from(_OTHER_WS))
_VALID_TEXT = st.sampled_from(['"x"', '"يا غبي"', '"a\\tb"', '"\\ud83d\\ude00"', '"\\\\ud83d"'])
_TEXT = _VALID_TEXT | st.sampled_from(['""', '"\\u0000"', '"\\ud83d"', "5", "null", "true", '["a"]', "1e400"])
_DATE = st.sampled_from(
    ['"2021-05-01T12:00:00Z"', '"2021-05-01 14:00:00+02:00"', '"2021-02-30T00:00:00Z"', '"2021-05-01T24:00:00Z"',
     '"soon"', '""', "20210501"]
)
_ID = st.sampled_from(['"a"', '"b"', '"c"', '"d"', '"e"'])


def _row(id_: str, text: str, created_at: str, extra: str = "") -> str:
    return f'{{"id": {id_}, "text": {text}, "created_at": {created_at}{extra}}}'


_GOOD_ROW = st.builds(_row, _ID, _VALID_TEXT, st.just(f'"{TS}"'))
# missing, empty, non-string and repeated fields, impossible dates, bad ids, non-objects,
# truncated and extra values
_ANY_ROW = st.one_of(
    st.builds(
        _row,
        _ID | st.sampled_from(['""', '"a\\tb"', "1", "null"]),
        _TEXT,
        _DATE,
        st.sampled_from(["", ', "lang": "ar"', ', "id": "z"', ', "text": null', ', "created_at": 1']),
    ),
    st.sampled_from(["", "[1]", '"s"', "1", "null", "{}", '{"id": "a"}', "{", '{"id": "a"', "x", "[" * 50]),
)
_LINE = st.builds(
    lambda pre, body, extra, post: pre + body + extra + post,
    _WS,
    st.one_of(_GOOD_ROW, _GOOD_ROW, _ANY_ROW),
    st.sampled_from(["", "", "", "", " {}", "[]", " 1", ",", "x"]),
    _WS,
)


def _docs_or_error(load, path):
    try:
        return [(d.id, d.text, d.created_at) for d in load(path)]
    except ValueError as e:
        return str(e)


@settings(max_examples=250, deadline=None)
@given(lines=st.lists(_LINE, max_size=6), eol=st.sampled_from(["\n", "\r\n"]), last=st.booleans())
def test_load_corpus_matches_the_json_loads_loop(tmp_path_factory, lines, eol, last):
    path = str(tmp_path_factory.getbasetemp() / "oracle.jsonl")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(eol.join(lines) + (eol if last else ""))
    assert _docs_or_error(load_corpus, path) == _docs_or_error(corpus_reference.load_corpus, path)


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


@pytest.mark.parametrize("column", ["offensive", "vulgar", "violence"])
def test_labels_bad_bit_names_its_line_once(tmp_path, column):
    p = tmp_path / "labels.tsv"
    bits = {"offensive": "1", "vulgar": "0", "violence": "0", column: "2"}
    p.write_text(
        "doc_id\toffensive\thate_targets\tvulgar\tviolence\n"
        "d1\t1\t\t0\t0\n"
        f"d2\t{bits['offensive']}\t\t{bits['vulgar']}\t{bits['violence']}\n",
        encoding="utf-8",
    )
    error = f"{p}: line 3: column {column} must be 0 or 1, got '2'"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
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
    p = tmp_path / "split.tsv"
    write_split(str(p), split)
    # a split read back equals the split written, whatever seed drew it
    assert load_split(str(p)) == split
    # a headed TSV: train rows, then dev, then test, ids sorted inside each part
    rows = [line.split("\t") for line in dump_split(split).splitlines()]
    assert rows[0] == ["doc_id", "part"]
    expected = [[d, name] for name in ("train", "dev", "test") for d in sorted(split.part(name))]
    assert rows[1:] == expected


def test_load_split_names_the_line_of_an_overlap(tmp_path):
    p = tmp_path / "split.tsv"
    p.write_text("doc_id\tpart\na\ttrain\nb\ttrain\nc\tdev\nd\ttest\nb\ttest\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_split(str(p))
    assert str(exc.value) == f"{p}: line 6: duplicate doc_id 'b', first on line 3"


@pytest.mark.parametrize("part", ["validation", "Train", "train:", ""])
def test_load_split_names_the_line_of_an_unknown_part(tmp_path, part):
    p = tmp_path / "split.tsv"
    p.write_text(f"doc_id\tpart\na\ttrain\nb\t{part}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_split(str(p))
    assert str(exc.value) == f"{p}: line 3: unknown split part {part!r}"


def test_split_part_lookup():
    s = DatasetSplit(frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    assert s.part("dev") == frozenset({"b"})
    with pytest.raises(ValueError):
        s.part("validation")
