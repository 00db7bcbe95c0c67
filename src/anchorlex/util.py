"""Small shared helpers: table readers, atomic writes, digests, canonical JSON."""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from typing import Iterator


def read_tsv(path: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, columns) of each non-empty line after the header.

    Line 1 must equal `header` and every row must have as many columns;
    a mismatch is a ValueError starting `path: line N:`.
    """
    with open(path, encoding="utf-8") as fh:
        got = fh.readline().rstrip("\n").split("\t")
        if got != header:
            raise ValueError(f"{path}: line 1: bad header {got!r}, expected {header!r}")
        n = len(header)
        for lineno, line in enumerate(fh, start=2):
            if line == "\n":
                continue
            row = line.rstrip("\n").split("\t")
            if len(row) != n:
                raise ValueError(f"{path}: line {lineno}: expected {n} columns, got {len(row)}")
            yield lineno, row


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
