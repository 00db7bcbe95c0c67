from __future__ import annotations

import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlex.util import (
    atomic_write_text,
    canonical_json,
    read_table,
    read_tsv,
    round_half_up,
    sha256_file,
    sha256_text,
    split_tsv,
)

import tsv_reference


@pytest.mark.parametrize(
    "x,expected",
    [
        (0.0, 0),
        (0.4999, 0),
        (0.5, 1),
        (1.5, 2),
        (2.5, 3),
        (-0.5, 0),
        (-1.5, -1),
        (-0.51, -1),
        (446.3, 446),
        (446.5, 447),
        (2.4999999, 2),
    ],
)
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


def test_atomic_write_creates_and_overwrites(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(str(p), "one\n")
    assert p.read_text(encoding="utf-8") == "one\n"
    atomic_write_text(str(p), "two\n")
    assert p.read_text(encoding="utf-8") == "two\n"
    # no temp droppings left behind
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_unicode(tmp_path):
    p = tmp_path / "ar.txt"
    atomic_write_text(str(p), "يا \U0001F437\n")
    assert p.read_text(encoding="utf-8") == "يا \U0001F437\n"


def test_canonical_json_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a  # compact separators
    assert json.loads(a) == {"a": [1, 2], "b": 1, "c": {"x": 1, "y": 0}}


def test_sha256_text_matches_file(tmp_path):
    content = "line\nكلب\n"
    p = tmp_path / "f.txt"
    p.write_text(content, encoding="utf-8")
    assert sha256_file(str(p)) == sha256_text(content)
    assert len(sha256_text("")) == 64


# --- table readers ----------------------------------------------------------

# tab, the three line breaks, csv's quote and escape characters, NUL,
# NEL (a line break to str.splitlines, not to a text file), a comment
# mark, a space and Arabic
_ALPHABET = ["\t", "\n", "\r", '"', "\\", "\x00", "\x85", "#", " ", "a", "\u0643", "\u0644"]
_FIELD = st.text(st.sampled_from([c for c in _ALPHABET if c not in "\t\n\r"]), max_size=4)
_LINE = st.one_of(
    st.lists(_FIELD, min_size=3, max_size=3).map("\t".join),
    st.text(st.sampled_from(_ALPHABET), max_size=8),
)
_TABLE = st.builds(
    lambda head, lines, eol: head + eol.join(lines),
    st.one_of(  # half the headers are right
        st.sampled_from(["a\tb\tc\n", "a\tb\tc\r\n", "a\tb\tc\r"]),
        st.sampled_from(["", "\n", "a\tb\n", "a\tb\tc\t\n", "a\tb\tc"]),
    ),
    st.lists(_LINE, max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
)


def _rows_or_error_line(read, path, key):
    """The rows, or the error's line with, for a repeated key, the line that key was first on."""
    try:
        return list(read(path, ["a", "b", "c"], key))
    except ValueError as e:
        msg = str(e)[len(path) :]
        return re.match(r": line (\d+): ", msg).group(1), re.findall(r": duplicate .*, first on line (\d+)$", msg)


@settings(max_examples=400, deadline=None)
@given(text=_TABLE, key=st.integers(1, 3))
def test_read_tsv_matches_csv_reader(tmp_path_factory, text, key):
    path = str(tmp_path_factory.mktemp("tsv") / "t.tsv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    want = _rows_or_error_line(tsv_reference.read_tsv, path, key)
    assert _rows_or_error_line(read_tsv, path, key) == want


@settings(max_examples=400, deadline=None)
@given(text=_TABLE, key=st.integers(1, 3))
def test_split_tsv_reads_every_file_read_tsv_reads_without_a_skip(tmp_path_factory, text, key):
    path = str(tmp_path_factory.getbasetemp() / "split.tsv")  # rewritten by each example
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    got = split_tsv(path, ["a", "b", "c"], key)
    try:
        rows = [row for _, row in read_tsv(path, ["a", "b", "c"], key)]
    except ValueError:
        assert got is None
        return
    if "\n\n" in text.replace("\r\n", "\n").replace("\r", "\n"):  # a blank line to skip
        assert got is None
    else:
        assert got == [[row[i] for row in rows] for i in range(3)]


@pytest.mark.parametrize(
    "header, text",
    [
        (["a", "b", "c"], "a\tb\tc\n1\t2\t3\t4\n5\t6\n"),  # a long row, then a short one
        (["a", "b", "c"], "a\tb\tc\n1\t2\n3\t4\t5\t6\n"),  # a short row, then a long one
        (["a", "b", "c"], "a\tb\tc\n1\t2\t3\t4\t5\n\n6\t7\t8\n"),  # a long row, then a blank line
        (["a"], "a\nx\n\ny\n"),  # a blank line among one-column rows
    ],
    ids=["long-short", "short-long", "long-blank", "one-column-blank"],
)
def test_split_tsv_refuses_rows_that_as_many_fields_would_misplace(tmp_path, header, text):
    # each file has as many fields as its rows need, but not on the rows' own lines
    p = tmp_path / "t.tsv"
    p.write_text(text, encoding="utf-8")
    assert split_tsv(str(p), header, 1) is None


def test_read_table_line_numbers_count_skipped_lines(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("# comment\n\n \t \n  # indented\na\tb\n\n#x\ty\nc\t\n", encoding="utf-8")
    assert list(read_table(str(p))) == [(5, ["a", "b"]), (8, ["c", ""])]
