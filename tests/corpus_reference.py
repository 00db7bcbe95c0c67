"""The corpus loader before its one-call decode, kept verbatim as a differential oracle.

`load_corpus` skipped a line that `.strip()` left empty, decoded every
other line with `json.loads`, and checked the three fields one at a time
in `_doc_from_mapping`. It caught only `json.JSONDecodeError`, so a huge
integer escaped as a ValueError naming no line and deep nesting as a
`RecursionError`. `anchorlex.corpus.load_corpus` must return the same
documents, or fail with the same message, on every input without those two.
"""

from __future__ import annotations

import json
from typing import Mapping

from anchorlex.corpus import Document, canonical_timestamp

_DOC_FIELDS = ("id", "text", "created_at")


def _doc_from_mapping(obj: Mapping[str, object]) -> Document:
    for name in _DOC_FIELDS:
        value = obj.get(name)
        if value is None or value == "":
            raise ValueError(f"missing field {name}")
        if not isinstance(value, str):
            raise ValueError(f"field {name} must be a string, got {type(value).__name__}")
    return Document(id=obj["id"], text=obj["text"], created_at=canonical_timestamp(obj["created_at"]))


def load_corpus(path: str) -> list[Document]:
    """Read a corpus JSONL file; raises ValueError naming the offending line."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: bad JSON: {e}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected an object")
            # only a \ud800-\udfff escape decodes to a surrogate (a pair becomes one
            # character); a one-character search first keeps lines without escapes cheap
            if "\\" in line and ("\\ud" in line or "\\uD" in line):
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}: line {lineno}: lone surrogate escape in a JSON string") from None
            try:
                doc = _doc_from_mapping(obj)
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
            if doc.id in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate id {doc.id!r}")
            seen.add(doc.id)
            docs.append(doc)
    return docs
