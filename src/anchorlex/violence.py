"""Rule-based matcher for violence-promoting verb/object patterns.

Lexical classes hold normalized Arabic stems; a closed affix table
expands them to surface forms (auditable by construction, and cheap:
overgenerated forms that never occur in text cost nothing). Two rule
shapes: an expanded verb followed within a small token gap by an
expanded object (V_THEN_O), and a hitting noun + "on" + body part
(HITNOUN_ON_BODY).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .textnorm import normalize, tokenize
from .util import dump_tsv, read_table

CLASS_NAMES = ("head", "body", "human", "verb_kill", "verb_hit", "verb_cut", "hit_noun")
_VERB_CLASSES = frozenset({"verb_kill", "verb_hit", "verb_cut"})
_NOUN_CLASSES = frozenset({"head", "body", "hit_noun"})

V_THEN_O = "V_then_O"
HITNOUN_ON_BODY = "HITNOUN_ON_BODY"

# "on" (preposition), normalized: alef maksura -> yaa
ON_TOKEN = normalize("على")  # على -> علي


@dataclass(frozen=True)
class PatternRule:
    name: str
    shape: str
    verb_class: str  # the trigger class; a hit_noun for HITNOUN_ON_BODY
    object_classes: tuple[str, ...]
    max_gap: int = 2

    def __post_init__(self) -> None:
        if self.shape not in (V_THEN_O, HITNOUN_ON_BODY):
            raise ValueError(f"unknown rule shape {self.shape!r}")
        if self.max_gap < 0:
            raise ValueError("max_gap must be >= 0")
        if not self.object_classes:
            raise ValueError(f"rule {self.name!r} has no object classes")


# The closed affix inventory; expansion size is a fixed function of it.
# pure prepends: conjunctions, tense/aspect markers, their combos
VERB_PREFIXES = (
    "و", "ف", "س", "ب", "ح", "وس", "وب", "وح", "فس", "فب", "فح",
)
# substituted for the leading imperfect yaa of a verb stem, giving
# first/second/plural person variants (hamza already normalized to alef)
PERSON_MARKERS = ("ا", "ن", "ت", "ي")
NOUN_PREFIXES = ("و", "ف", "ال", "بال", "عال")
NOUN_SUFFIXES = ("ك", "كم", "كن", "ه", "ها", "هم", "ي", "نا")
# object pronouns that attach directly to a verb token ("I will kill you")
OBJECT_PRONOUN_SUFFIXES = ("ك", "كم", "كن", "ه", "ها", "هم")


def _verb_variants(stem: str) -> set[str]:
    variants = {stem}
    if stem.startswith("ي") and len(stem) > 2:
        variants.update(m + stem[1:] for m in PERSON_MARKERS)
    return variants


def expand(stem: str, kind: str) -> frozenset[str]:
    """All surface forms of one normalized stem.

    kind "verb": person variants of a yaa-initial stem, then every verb
    prefix. kind "noun": every noun prefix x every pronoun suffix; a stem
    ending in taa-marbuta (heh after normalization) also contributes the
    -t- connective form before suffixes (raqaba+ka -> raqabatka). kind
    "literal": the stem itself only.
    """
    stem = normalize(stem)
    if not stem:
        raise ValueError("empty stem")
    if kind == "verb":
        variants = _verb_variants(stem)
        forms = set(variants)
        forms.update(p + v for p in VERB_PREFIXES for v in variants)
        return frozenset(forms)
    if kind == "noun":
        bases = {stem}
        suffix_bases = {stem}
        if stem.endswith(("ه", "ة")):
            # ambiguous after taa-marbuta folding; generate both joins
            suffix_bases.add(stem[:-1] + "ت")
        forms = set()
        for p in ("", *NOUN_PREFIXES):
            for b in bases:
                forms.add(p + b)
            for s in NOUN_SUFFIXES:
                for b in suffix_bases:
                    forms.add(p + b + s)
        return frozenset(forms)
    if kind == "literal":
        return frozenset({stem})
    raise ValueError(f"unknown expansion kind {kind!r}")


def kind_of(class_name: str) -> str:
    if class_name in _VERB_CLASSES:
        return "verb"
    if class_name in _NOUN_CLASSES:
        return "noun"
    return "literal"  # human: standalone pronouns match as-is


def default_classes() -> dict[str, tuple[str, ...]]:
    ref = resources.files("anchorlex.data").joinpath("violence_classes.tsv")
    with resources.as_file(ref) as p:
        return load_classes(str(p))


def default_rules() -> tuple[PatternRule, ...]:
    ref = resources.files("anchorlex.data").joinpath("violence_rules.tsv")
    with resources.as_file(ref) as p:
        return load_rules(str(p))


def load_classes(path: str) -> dict[str, tuple[str, ...]]:
    """Classes TSV: name<TAB>member1,member2,... as {name: members}; members
    normalized on load."""
    out: dict[str, tuple[str, ...]] = {}
    for lineno, cols in read_table(path):
        where = f"{path}: line {lineno}"
        if len(cols) != 2:
            raise ValueError(f"{where}: expected name<TAB>members")
        name = cols[0].strip()
        if name in out:
            raise ValueError(f"{where}: duplicate class {name!r}")
        if name not in CLASS_NAMES:
            raise ValueError(f"{where}: unknown lexical class {name!r}")
        members = tuple(normalize(m.strip()) for m in cols[1].split(",") if m.strip())
        if not members:
            raise ValueError(f"{where}: class {name!r} has no members")
        out[name] = members
    if not out:
        raise ValueError(f"{path}: no classes defined")
    return out


def load_rules(path: str) -> tuple[PatternRule, ...]:
    """Rules TSV: name<TAB>shape<TAB>verb_class<TAB>objects(comma)<TAB>max_gap."""
    rules: list[PatternRule] = []
    for lineno, cols in read_table(path):
        if len(cols) != 5:
            raise ValueError(f"{path}: line {lineno}: expected 5 columns")
        try:
            rules.append(
                PatternRule(
                    name=cols[0].strip(),
                    shape=cols[1].strip(),
                    verb_class=cols[2].strip(),
                    object_classes=tuple(c.strip() for c in cols[3].split(",") if c.strip()),
                    max_gap=int(cols[4]),
                )
            )
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    if not rules:
        raise ValueError(f"{path}: no rules defined")
    return tuple(rules)


@dataclass(frozen=True)
class PatternMatch:
    rule: str
    start: int  # token index of the trigger
    end: int  # one past the object token
    tokens: tuple[str, ...]


_Compiled = list[tuple[PatternRule, frozenset[str], frozenset[str]]]


def compile_rules(
    rules: Sequence[PatternRule] | None = None,
    classes: Mapping[str, Sequence[str]] | None = None,
) -> _Compiled:
    """Each rule with its trigger class's surface forms and the union of its
    object classes' forms."""
    rules = rules if rules is not None else default_rules()
    classes = classes if classes is not None else default_classes()
    needed = {r.verb_class for r in rules} | {
        c for r in rules for c in r.object_classes
    }
    missing = needed - set(classes)
    if missing:
        raise ValueError(f"rules reference undefined classes {sorted(missing)}")
    forms = {
        name: frozenset(form for stem in members for form in expand(stem, kind_of(name)))
        for name, members in classes.items()
    }
    return [
        (r, forms[r.verb_class], frozenset().union(*(forms[c] for c in r.object_classes)))
        for r in rules
    ]


def _verb_with_object_suffix(token: str, verb_forms: frozenset[str]) -> bool:
    for suf in OBJECT_PRONOUN_SUFFIXES:
        if len(token) > len(suf) and token.endswith(suf) and token[: -len(suf)] in verb_forms:
            return True
    return False


def match_violence(
    tokens: Sequence[str],
    compiled: _Compiled,
) -> list[PatternMatch]:
    """All rule matches over a normalized token sequence.

    One match per (rule, trigger position), spanning to the nearest
    object. For rules whose objects include <human>, a verb carrying an
    attached object pronoun matches as a single token.
    """
    out: list[PatternMatch] = []
    n = len(tokens)
    for rule, trigger_forms, object_forms in compiled:
        takes_human = "human" in rule.object_classes
        for i, tok in enumerate(tokens):
            if rule.shape == V_THEN_O:
                if takes_human and _verb_with_object_suffix(
                    tok, trigger_forms
                ):
                    out.append(
                        PatternMatch(rule.name, i, i + 1, (tok,))
                    )
                    continue
                if tok not in trigger_forms:
                    continue
                for j in range(i + 1, min(n, i + 2 + rule.max_gap)):
                    if tokens[j] in object_forms:
                        out.append(
                            PatternMatch(rule.name, i, j + 1, tuple(tokens[i : j + 1]))
                        )
                        break
            else:  # HITNOUN_ON_BODY
                if tok not in trigger_forms:
                    continue
                span_end = None
                for j in range(i + 1, min(n, i + 2 + rule.max_gap)):
                    tj = tokens[j]
                    # contracted "on-the-X" carries the preposition inside
                    if tj in object_forms and tj.startswith("عال"):
                        span_end = j + 1
                        break
                    if tj == ON_TOKEN:
                        for k in range(j + 1, min(n, j + 2 + rule.max_gap)):
                            if tokens[k] in object_forms:
                                span_end = k + 1
                                break
                        break
                if span_end is not None:
                    out.append(
                        PatternMatch(
                            rule.name, i, span_end, tuple(tokens[i:span_end])
                        )
                    )
    out.sort(key=lambda m: (m.start, m.end, m.rule))
    return out


def match_violence_text(text: str, compiled: _Compiled) -> list[PatternMatch]:
    """Normalize + tokenize, then match."""
    return match_violence(tokenize(normalize(text)), compiled)


def dump_matches(rows: Iterable[tuple[str, PatternMatch]]) -> str:
    lines = ((doc_id, m.rule, str(m.start), str(m.end), " ".join(m.tokens)) for doc_id, m in rows)
    return dump_tsv(["doc_id", "rule", "start", "end", "span"], lines)
