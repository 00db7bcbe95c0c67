"""The violence matcher before its suffixed-form set, kept verbatim as a differential oracle.

`match_violence` tested a token for an attached object pronoun by
trying each suffix in `OBJECT_PRONOUN_SUFFIXES` with `endswith` and a
slice (`_verb_with_object_suffix`). It took `compile_rules` entries of
three: the rule, its trigger forms and its object forms; pass
`[c[:3] for c in compiled]`. `violence.match_violence` must return the
same matches on every token sequence.
"""

from __future__ import annotations

from typing import Sequence

from anchorlex.violence import OBJECT_PRONOUN_SUFFIXES, ON_TOKEN, V_THEN_O, PatternMatch, PatternRule

_Compiled = list[tuple[PatternRule, frozenset[str], frozenset[str]]]


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
