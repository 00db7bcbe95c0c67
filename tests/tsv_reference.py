"""The headered-TSV loop the loaders used before `anchorlex.util.read_tsv`.

csv.reader on tabs with QUOTE_NONE: no quoting or escapes, so a row is
the line split on tabs, and an empty line is an empty row. It stops at
csv's field size limit (131,072 characters by default), which
`read_tsv` does not have. A row whose first `key` columns repeat an
earlier row's is refused, as each loader checked for itself. `tests/test_util.py` requires `read_tsv` to give the same
rows, and fail on the same line, for any shorter input.
"""

from __future__ import annotations

import csv


def read_tsv(path: str, header: list[str], key: int) -> list[tuple[int, list[str]]]:
    out: list[tuple[int, list[str]]] = []
    seen: dict[tuple[str, ...], int] = {}
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            got = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: line 1: empty file, expected a header row") from None
        if got != header:
            raise ValueError(f"{path}: line 1: bad header {got!r}, expected {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} columns")
            k = tuple(row[:key])
            if k in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate key {k!r}, first on line {seen[k]}")
            seen[k] = lineno
            out.append((lineno, row))
    return out
