"""Corpus containers, label records, and deterministic stratified splitting.

File formats:
  corpus JSONL  one object per line: id, text, created_at (ISO-8601); other keys
                are ignored
  labels TSV    header: doc_id, offensive, hate_targets, vulgar, violence; one row
                per doc_id
  split TSV     header: doc_id, part (train, dev or test); one row per doc_id,
                train rows first, then dev, then test, ids sorted in each part

No stage reads `created_at`. It is validated once on load and kept as the
canonical UTC string YYYY-MM-DDTHH:MM:SSZ, which is written back as is.

`load_corpus` decodes a line with one `raw_decode` call where that is exactly
`json.loads`, and sends every other line through `json.loads` itself.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring
from typing import Iterable, Mapping

from .util import atomic_write_text, dump_tsv, read_tsv, round_half_up

HATE_TARGETS = frozenset(
    {"gender", "race", "ideology", "social_class", "religion", "disability"}
)

# the label classes a record carries, read by LabelRecord.has
LABEL_CLASSES = ("offensive", "hate", "vulgar", "violence")

_SPLIT_NAMES = ("train", "dev", "test")


def parse_timestamp(value: str) -> datetime:
    """ISO-8601 -> aware UTC datetime at seconds precision.

    Naive inputs are taken as UTC; a trailing 'Z' is accepted.
    """
    s = value.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        # an offset can carry year 1 or 9999 past the range datetime holds
        return dt.astimezone(timezone.utc).replace(microsecond=0)
    except (ValueError, OverflowError) as e:
        raise ValueError(f"bad timestamp {value!r}: {e}") from None


def format_timestamp(dt: datetime) -> str:
    # isoformat pads the year to four digits; strftime's %Y does not below 1000
    return dt.astimezone(timezone.utc).isoformat(timespec="seconds")[:-6] + "Z"


# some Pythons read hour 24 as the next day's midnight, so it is not taken
# as already canonical
_CANONICAL_TS = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}Z")


def canonical_timestamp(value: str) -> str:
    """format_timestamp(parse_timestamp(value)); a canonical value is only checked."""
    if _CANONICAL_TS.fullmatch(value):
        try:
            datetime.fromisoformat(value[:-1])
            return value
        except ValueError:
            pass
    return format_timestamp(parse_timestamp(value))


@dataclass(slots=True)
class Document:
    id: str
    text: str
    created_at: str  # canonical UTC, see canonical_timestamp

    def __post_init__(self) -> None:
        # an id is one field of the TSV rows that stages write
        if not self.id or "\t" in self.id or "\n" in self.id or "\r" in self.id:
            raise ValueError(f"document id {self.id!r} is empty or holds a tab, CR or LF")
        if "\x00" in self.text:
            raise ValueError(f"document {self.id!r}: text contains NUL")


@dataclass(frozen=True)
class LabelRecord:
    doc_id: str
    offensive: bool
    hate_targets: frozenset[str] = frozenset()
    vulgar: bool = False
    violence: bool = False

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        bad = set(self.hate_targets) - HATE_TARGETS
        if bad:
            raise ValueError(f"{self.doc_id}: unknown hate targets {sorted(bad)}")
        # hate/vulgar/violence are refinements of offensive, never independent
        if (self.hate_targets or self.vulgar or self.violence) and not self.offensive:
            raise ValueError(f"{self.doc_id}: hate/vulgar/violence labels require offensive=1")

    @property
    def is_hate(self) -> bool:
        return bool(self.hate_targets)

    def has(self, label_class: str) -> bool:
        """Whether the record is positive for label_class, one of LABEL_CLASSES."""
        if label_class not in LABEL_CLASSES:
            raise ValueError(f"unknown label class {label_class!r}")
        return self.is_hate if label_class == "hate" else getattr(self, label_class)


# --- corpus I/O ---------------------------------------------------------

_DOC_FIELDS = ("id", "text", "created_at")
_DECODER = json.JSONDecoder()  # configured as json.loads' own


def _doc_from_mapping(obj: Mapping[str, object]) -> Document:
    id_, text, created_at = obj.get("id"), obj.get("text"), obj.get("created_at")
    if not (type(id_) is str and id_ and type(text) is str and text and type(created_at) is str and created_at):
        for name in _DOC_FIELDS:  # names the first bad field
            value = obj.get(name)
            if value is None or value == "":
                raise ValueError(f"missing field {name}")
            if not isinstance(value, str):
                raise ValueError(f"field {name} must be a string, got {type(value).__name__}")
    return Document(id=id_, text=text, created_at=canonical_timestamp(created_at))


def load_corpus(path: str) -> list[Document]:
    """Read a corpus JSONL file; raises ValueError naming the offending line.

    json.loads skips space, tab, LF and CR, raw_decodes, and allows only those four after
    the value (fewer than .strip()): a line that starts with its value takes raw_decode."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj, end = _DECODER.raw_decode(line)
            except (ValueError, RecursionError):
                end = 0  # no value is empty: the line goes to json.loads
            if not end or line[end:].strip(" \t\n\r"):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as e:
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


def tsv_field(text: str) -> str:
    """text with each tab, LF and CR made a space, so it stays one field of one TSV row."""
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def dump_corpus(docs: Iterable[Document]) -> str:
    # the bytes of json.dumps(row, ensure_ascii=False, sort_keys=True), which quotes each str
    # with encode_basestring, without building an encoder per row
    enc = encode_basestring
    lines = [
        f'{{"created_at": {enc(d.created_at)}, "id": {enc(d.id)}, "text": {enc(d.text)}}}'
        for d in docs
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_corpus(path: str, docs: Iterable[Document]) -> None:
    atomic_write_text(path, dump_corpus(docs))


# --- label I/O ----------------------------------------------------------

_LABEL_HEADER = ["doc_id", "offensive", "hate_targets", "vulgar", "violence"]


def _parse_bit(value: str, lineno: int, col: str) -> bool:
    if value not in ("0", "1"):
        raise ValueError(f"line {lineno}: column {col} must be 0 or 1, got {value!r}")
    return value == "1"


def load_labels(path: str) -> dict[str, LabelRecord]:
    """Read a labels TSV into an insertion-ordered doc_id -> LabelRecord map."""
    out: dict[str, LabelRecord] = {}
    for lineno, (doc_id, off, targets, vul, vio) in read_tsv(path, _LABEL_HEADER, 1):
        try:
            rec = LabelRecord(
                doc_id=doc_id,
                offensive=_parse_bit(off, lineno, "offensive"),
                hate_targets=frozenset(t for t in targets.split(",") if t),
                vulgar=_parse_bit(vul, lineno, "vulgar"),
                violence=_parse_bit(vio, lineno, "violence"),
            )
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
        out[doc_id] = rec
    return out


def dump_labels(records: Iterable[LabelRecord]) -> str:
    rows = (
        (r.doc_id, "1" if r.offensive else "0", ",".join(sorted(r.hate_targets)),
         "1" if r.vulgar else "0", "1" if r.violence else "0")
        for r in records
    )
    return dump_tsv(_LABEL_HEADER, rows)


def write_labels(path: str, records: Iterable[LabelRecord]) -> None:
    atomic_write_text(path, dump_labels(records))


# --- splits -------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSplit:
    train: frozenset[str]
    dev: frozenset[str]
    test: frozenset[str]

    def __post_init__(self) -> None:
        if self.train & self.dev or self.train & self.test or self.dev & self.test:
            raise ValueError("split parts must be disjoint")

    def part(self, name: str) -> frozenset[str]:
        if name not in _SPLIT_NAMES:
            raise ValueError(f"unknown split part {name!r}")
        return getattr(self, name)


def stratified_split(
    labels: Mapping[str, LabelRecord] | Iterable[LabelRecord],
    ratios: tuple[float, float, float] = (0.70, 0.10, 0.20),
    seed: int = 0,
) -> DatasetSplit:
    """Split doc ids train/dev/test, stratified on the offensive label.

    Within each class: dev and test sizes are round_half_up(ratio * n_class)
    (0.5 rounds up, unlike Python's round), the remainder goes to train.
    Deterministic in (label set, ratios, seed); input iteration order does
    not matter. A class with fewer than 3 members is left whole in train
    (with a warning).
    """
    if isinstance(labels, Mapping):
        records = list(labels.values())
    else:
        records = list(labels)
    if not records:
        raise ValueError("empty label set")
    if len(ratios) != 3:
        raise ValueError("ratios must be (train, dev, test)")
    if not all(math.isfinite(r) and r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"--ratios must be finite, non-negative and sum to 1, got {ratios!r}")

    by_class: dict[bool, list[str]] = {}
    for r in records:
        by_class.setdefault(r.offensive, []).append(r.doc_id)

    rng = random.Random(seed)
    parts: dict[str, set[str]] = {name: set() for name in _SPLIT_NAMES}
    for cls in sorted(by_class):
        ids = sorted(by_class[cls])
        rng.shuffle(ids)
        n = len(ids)
        if n < 3:
            warnings.warn(
                f"class offensive={cls} has only {n} item(s); assigning all to train",
                stacklevel=2,
            )
            parts["train"].update(ids)
            continue
        n_dev = round_half_up(ratios[1] * n)
        n_test = round_half_up(ratios[2] * n)
        n_train = n - n_dev - n_test
        parts["train"].update(ids[:n_train])
        parts["dev"].update(ids[n_train : n_train + n_dev])
        parts["test"].update(ids[n_train + n_dev :])
    return DatasetSplit(
        train=frozenset(parts["train"]),
        dev=frozenset(parts["dev"]),
        test=frozenset(parts["test"]),
    )


_SPLIT_HEADER = ["doc_id", "part"]


def dump_split(split: DatasetSplit) -> str:
    rows = ((doc_id, name) for name in _SPLIT_NAMES for doc_id in sorted(split.part(name)))
    return dump_tsv(_SPLIT_HEADER, rows)


def write_split(path: str, split: DatasetSplit) -> None:
    atomic_write_text(path, dump_split(split))


def load_split(path: str) -> DatasetSplit:
    parts: dict[str, set[str]] = {name: set() for name in _SPLIT_NAMES}
    for lineno, (doc_id, part) in read_tsv(path, _SPLIT_HEADER, 1):
        if part not in parts:
            raise ValueError(f"{path}: line {lineno}: unknown split part {part!r}")
        parts[part].add(doc_id)
    return DatasetSplit(
        train=frozenset(parts["train"]),
        dev=frozenset(parts["dev"]),
        test=frozenset(parts["test"]),
    )
