"""Small shared helpers: the headed-TSV codec (`dump_tsv`, `read_tsv`,
`split_tsv`), the headerless `read_table`, atomic writes, digests,
canonical JSON.

A headed TSV is a header line, then one row a line: tab-separated str
fields with no quoting or escapes, and a unique key in its first columns.
`read_tsv` reads row by row and names the line of any error; `split_tsv`
reads a file with nothing to report as columns, in bulk, and leaves every
other file to `read_tsv`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from operator import itemgetter
from typing import Iterable, Iterator, Sequence


def dump_tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The header line, then one line per row of pre-formatted str fields
    (no tab, CR or LF), each line ending in LF."""
    lines = ["\t".join(header)]
    lines += map("\t".join, rows)
    return "\n".join(lines) + "\n"


def read_tsv(path: str, header: list[str], key: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, columns) of each non-empty line after the header.

    Line 1 must equal `header`, every row must have as many columns, and no
    row's first `key` columns may equal an earlier row's; a violation is a
    ValueError starting `path: line N:`.
    """
    with open(path, encoding="utf-8") as fh:
        got = fh.readline().rstrip("\n").split("\t")
        if got != header:
            raise ValueError(f"{path}: line 1: bad header {got!r}, expected {header!r}")
        n = len(header)
        key_of = itemgetter(*range(key))  # a str for one column, else a tuple
        first: dict[object, int] = {}
        for lineno, line in enumerate(fh, start=2):
            if line == "\n":
                continue
            row = line.rstrip("\n").split("\t")
            if len(row) != n:
                raise ValueError(f"{path}: line {lineno}: expected {n} columns, got {len(row)}")
            if first.setdefault(key_of(row), lineno) != lineno:
                k = key_of(row)
                what = header[0] if key == 1 else f"({', '.join(header[:key])})"
                raise ValueError(f"{path}: line {lineno}: duplicate {what} {k!r}, first on line {first[k]}")
            yield lineno, row


def split_tsv(path: str, header: list[str], key: int) -> list[list[str]] | None:
    """The columns of a headed TSV from one split of the whole text, or None.

    None unless `read_tsv` would read the file with nothing to skip and
    nothing to raise: line 1 is `header`, no line is blank, every row has
    as many columns, and no key repeats. The caller reads a None file with
    `read_tsv`, whose error names the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:  # the newline translation of read_tsv
            text = fh.read()
    except UnicodeDecodeError:  # read_tsv decodes by chunks and may stop on another error first
        return None
    if not text.endswith("\n"):
        text += "\n"
    n = len(header)
    rows = text.count("\n") - 1
    if not text.startswith("\t".join(header) + "\n") or "\n\n" in text:
        return None
    # A tab after each LF makes every LF end one field, and the split end in "".
    # Once each row's last field ends in LF, the LFs fall on the row bounds.
    flat = text.replace("\n", "\n\t").split("\t")
    del text
    if len(flat) != n * (rows + 1) + 1:
        return None
    cols = [flat[i:-1:n] for i in range(n, 2 * n)]
    del flat
    cut = {v: v[:-1] for v in set(cols[-1])}  # a shared str per distinct last field
    if not all(v.endswith("\n") for v in cut):
        return None
    cols[-1] = list(map(cut.__getitem__, cols[-1]))
    # equal hashes of two different keys only send the file to read_tsv
    if len(set(map(hash, zip(*cols[:key])))) != rows:
        return None
    return cols


def read_table(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, columns) of each line of a headerless table that is
    neither blank nor a `#` comment; the caller checks the columns."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line.rstrip("\n").split("\t")


def atomic_write_text(path: str, text: str) -> None:
    """Write UTF-8 via temp file + rename so readers never see a partial file."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no trailing whitespace games."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def round_half_up(x: float) -> int:
    """round() is banker's; split bookkeeping wants plain .5-goes-up."""
    return int(math.floor(x + 0.5))
