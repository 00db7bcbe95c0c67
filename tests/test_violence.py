from __future__ import annotations

import random
import re

import pytest

import violence_reference
from anchorlex import cli
from anchorlex.textnorm import normalize
from anchorlex.violence import (
    CLASSES_PATH,
    OBJECT_PRONOUN_SUFFIXES,
    ON_TOKEN,
    PERSON_MARKERS,
    RULES_PATH,
    VERB_PREFIXES,
    PatternRule,
    compile_rules,
    dump_matches,
    expand,
    kind_of,
    load_classes,
    load_rules,
    match_violence,
    match_violence_text,
)

# Arabic snippets used repeatedly (already in normalized form)
KILL = "يقتل"  # yaqtul: he kills
HIT = "يضرب"  # yadrib: he hits
HEAD = "راس"  # ras: head
NECK = "رقبه"  # raqaba (taa marbuta folded): neck
YOU = "انت"  # anta: you
SLAP = "كف"  # kaff: slap
FACE = "وجه"  # wajh: face
ON = normalize("على")  # 'ala -> 'ali after maksura folding

RULES = compile_rules(load_rules(RULES_PATH), load_classes(CLASSES_PATH))  # the bundled tables


# --- expansion -------------------------------------------------------------


def test_verb_expansion_person_and_prefix_forms():
    forms = expand(KILL, "verb")
    # bare person variants: ya-, a-, na-, ta-
    for marker in ("ي", "ا", "ن", "ت"):
        assert marker + KILL[1:] in forms
    # future/conjunction prefixes on top of person variants
    assert "س" + "ي" + KILL[1:] in forms  # sa-yaqtul
    assert "س" + "ا" + KILL[1:] in forms  # sa-aqtul ("I will kill")
    assert "و" + KILL in forms  # wa-yaqtul
    assert "وس" + KILL in forms  # wa-sa-yaqtul


def test_verb_expansion_from_hit_stem():
    # saadrib ("I will hit") must come out of the ya-initial stem
    forms = expand(HIT, "verb")
    assert "سا" + HIT[1:] in forms


def test_noun_expansion_prefixes_and_suffixes():
    forms = expand(HEAD, "noun")
    assert HEAD in forms
    assert HEAD + "ك" in forms  # rasak: your head
    assert "ال" + HEAD in forms  # al-ras
    assert "عال" + HEAD in forms  # 'al-ras (contracted on+the)
    assert "بال" + HEAD + "هم" in forms  # bil-ras-hum


def test_noun_expansion_taa_marbuta_connective():
    forms = expand(NECK, "noun")
    # both joins: raqabatak (connective t) and raqabahak (folded heh kept)
    assert NECK[:-1] + "تك" in forms
    assert NECK + "ك" in forms
    # bare stem too
    assert NECK in forms


def test_literal_expansion_is_identity():
    assert expand(YOU, "literal") == frozenset({YOU})


def test_expand_normalizes_stem_first():
    # stem given with taa marbuta proper; folds to heh then expands
    raw = "رقبة"
    assert expand(raw, "noun") == expand(NECK, "noun")


def test_expand_rejects_empty_and_unknown_kind():
    with pytest.raises(ValueError):
        expand("", "verb")
    with pytest.raises(ValueError):
        expand(HEAD, "adverb")


def test_kind_of_classes():
    assert kind_of("verb_kill") == "verb"
    assert kind_of("verb_hit") == "verb"
    assert kind_of("verb_cut") == "verb"
    assert kind_of("head") == "noun"
    assert kind_of("body") == "noun"
    assert kind_of("hit_noun") == "noun"
    assert kind_of("human") == "literal"


# --- matching --------------------------------------------------------------


def test_match_verb_then_object_within_gap():
    for gap_words in ([], ["غدا"], ["غدا", "قريبا"]):
        toks = [HIT] + gap_words + [HEAD + "ك"]
        matches = match_violence(toks, RULES)
        assert any(m.rule == "hit_human_or_body" for m in matches), toks


def test_match_gap_limit_excludes_distant_object():
    toks = [HIT, "a", "b", "c", HEAD + "ك"]  # gap 3 > max_gap 2
    assert match_violence(toks, RULES) == []


def test_match_kill_human_pronoun():
    toks = [KILL, YOU]
    assert any(m.rule == "kill_human" for m in match_violence(toks, RULES))


def test_match_verb_with_attached_object_pronoun():
    # one token: sa-aqtul-uk ("I will kill you")
    tok = "ساقتلك"
    matches = match_violence([tok], RULES)
    assert any(m.rule == "kill_human" and m.tokens == (tok,) for m in matches)


def test_match_hitnoun_on_body():
    # kaff 'ala wajhak: "a slap on your face"
    toks = [SLAP, ON, FACE + "ك"]
    matches = match_violence(toks, RULES)
    assert any(m.rule == "hitnoun_on_body" for m in matches)


def test_match_hitnoun_contracted_on_body():
    # kaff 'al-wajh: contracted "on the face"
    toks = [SLAP, "عال" + FACE]
    matches = match_violence(toks, RULES)
    assert any(m.rule == "hitnoun_on_body" for m in matches)


def test_match_hitnoun_needs_connective():
    # slap then body with no 'ala in between: no pattern
    assert match_violence([SLAP, FACE], RULES) == []


def test_match_text_wrapper_normalizes():
    # raw text with unnormalized 'ala and a future verb
    matches = match_violence_text("سأضرب رأسك", RULES)
    assert any(m.rule == "hit_human_or_body" for m in matches)


def test_no_match_on_clean_text():
    assert match_violence_text("الجو جميل اليوم", RULES) == []
    assert match_violence_text("أحب القهوة كثيرا", RULES) == []


def test_match_positions_and_order():
    toks = [HIT, HEAD, "x", KILL, YOU]
    matches = match_violence(toks, RULES)
    assert [m.rule for m in matches] == ["hit_human_or_body", "kill_human"]
    first = matches[0]
    assert (first.start, first.end) == (0, 2)
    assert first.tokens == (HIT, HEAD)


def test_one_match_per_rule_and_trigger():
    # two candidate objects for one verb: only the nearest is reported
    toks = [HIT, HEAD, FACE]
    matches = [m for m in match_violence(toks, RULES) if m.rule == "hit_human_or_body"]
    assert len(matches) == 1
    assert matches[0].tokens == (HIT, HEAD)


# A small table with both shapes: a V_then_O rule that takes <human> (and so
# suffixed verbs), one that does not, and a HITNOUN_ON_BODY rule.
SMALL = compile_rules(
    (
        PatternRule("kill_human", "V_then_O", "verb_kill", ("human", "body"), 1),
        PatternRule("cut_head", "V_then_O", "verb_cut", ("head",), 0),
        PatternRule("slap_on_body", "HITNOUN_ON_BODY", "hit_noun", ("body",), 1),
    ),
    {
        "verb_kill": (KILL,),
        "verb_cut": ("يقطع",),
        "human": (YOU, "انتم"),
        "head": (HEAD,),
        "body": (FACE, NECK),
        "hit_noun": (SLAP,),
    },
)


def _token_pool(compiled, rng: random.Random) -> list[str]:
    """A few tokens of every kind for every rule, so that random sequences of
    them reach every branch of the matcher."""

    def some(forms, k):
        return rng.sample(sorted(forms), min(k, len(forms)))

    fillers = ["غدا", "والله", "x", ON_TOKEN + "ه", "ك", "ها"]
    pool = [ON_TOKEN] * 3 + fillers + ["عال" + w for w in fillers[:2]]
    for _, triggers, objects, _ in compiled:
        pool += some(triggers, 3) + some(objects, 3) + some([o for o in objects if o.startswith("عال")], 2)
        # a suffix on a trigger form (matched alone only if the rule takes <human>) and on a non-verb
        pool += [w + s for w in some(triggers, 2) + some(objects, 1) for s in OBJECT_PRONOUN_SUFFIXES]
    return pool


@pytest.mark.parametrize("compiled", [RULES, SMALL], ids=["bundled", "small"])
def test_matcher_matches_suffix_loop_reference(compiled):
    rng = random.Random(0)
    pool = _token_pool(compiled, rng)
    reference = [c[:3] for c in compiled]
    seen = set()
    for _ in range(3000):
        tokens = rng.choices(pool, k=rng.randint(0, 10))
        got = match_violence(tokens, compiled)
        assert got == violence_reference.match_violence(tokens, reference), tokens
        seen.update((m.rule, m.end - m.start == 1) for m in got)
    # the draws reach every rule, and a suffixed verb matching alone
    assert {rule for rule, _ in seen} == {r.name for r, *_ in compiled}
    assert any(alone for _, alone in seen)


# --- tables and loaders ----------------------------------------------------


def test_default_tables_cover_expected_classes():
    classes = load_classes(CLASSES_PATH)
    assert set(classes) == {
        "head",
        "body",
        "human",
        "verb_kill",
        "verb_hit",
        "verb_cut",
        "hit_noun",
    }
    # members arrive normalized
    for members in classes.values():
        for m in members:
            assert normalize(m) == m
    rules = load_rules(RULES_PATH)
    assert {r.name for r in rules} == {
        "kill_human",
        "hit_human_or_body",
        "cut_head",
        "hitnoun_on_body",
    }


def test_loaders_round_trip(tmp_path):
    cp = tmp_path / "classes.tsv"
    cp.write_text("head\tرأس,دماغ\nhuman\tانت\nverb_kill\tيقتل\n", encoding="utf-8")
    classes = load_classes(str(cp))
    assert classes["head"] == (HEAD, "دماغ")  # normalized hamza
    rp = tmp_path / "rules.tsv"
    rp.write_text("kill_human\tV_then_O\tverb_kill\thuman\t2\n", encoding="utf-8")
    rules = load_rules(str(rp))
    assert rules[0] == PatternRule(
        name="kill_human",
        shape="V_then_O",
        verb_class="verb_kill",
        object_classes=("human",),
        max_gap=2,
    )
    compiled = compile_rules(rules, classes)
    # the rule, its trigger forms, its object forms, and (it takes <human>)
    # every trigger form with an object pronoun attached
    suffixed = frozenset(v + s for v in expand(KILL, "verb") for s in OBJECT_PRONOUN_SUFFIXES)
    assert "ساقتلك" in suffixed and len(suffixed) == 6 * len(expand(KILL, "verb"))
    assert compiled == [(rules[0], expand(KILL, "verb"), expand(YOU, "literal"), suffixed)]
    # and the screen: every form a match can start at
    assert compiled.screen == expand(KILL, "verb") | suffixed
    assert match_violence([YOU, "غدا"], compiled) == []
    assert any(m.rule == "kill_human" for m in match_violence([KILL, YOU], compiled))


def test_compile_missing_class_errors():
    rules = (
        PatternRule(
            name="r", shape="V_then_O", verb_class="verb_x", object_classes=("human",), max_gap=2
        ),
    )
    with pytest.raises(ValueError, match="verb_x"):
        compile_rules(rules, load_classes(CLASSES_PATH))


def test_rule_validation():
    with pytest.raises(ValueError):
        PatternRule(name="r", shape="CIRCLE", verb_class="verb_kill", object_classes=("human",), max_gap=2)
    with pytest.raises(ValueError):
        PatternRule(name="r", shape="V_then_O", verb_class="verb_kill", object_classes=(), max_gap=2)
    with pytest.raises(ValueError):
        PatternRule(name="r", shape="V_then_O", verb_class="verb_kill", object_classes=("human",), max_gap=-1)


# classes file text -> the error after "<path>: "
BAD_CLASS_FILES = {
    "head\tرأس\nbody\t , \n": "line 2: class 'body' has no members",
    "head\tرأس\n# c\nweather\tx\n": "line 3: unknown lexical class 'weather'",
    "head\tرأس\nhead\tدماغ\n": "line 2: duplicate class 'head'",
    "# only a comment\n": "no classes defined",
}


def test_lexical_class_validation(tmp_path):
    p = tmp_path / "classes.tsv"
    for text, error in BAD_CLASS_FILES.items():
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {error}')}$"):
            load_classes(str(p))
    # a verb's forms are its person variants, bare or under one verb prefix
    variants = {KILL} | {m + KILL[1:] for m in PERSON_MARKERS}
    assert expand(KILL, "verb") == variants | {p + v for p in VERB_PREFIXES for v in variants}


# rules file text -> the error after "<path>: "
BAD_RULE_FILES = {
    "kill_human\tV_then_O\tverb_kill\thuman\n": "line 1: expected 5 columns",
    "r\tCIRCLE\tverb_kill\thuman\t2\n": "line 1: unknown rule shape 'CIRCLE'",
    "kill_human\tV_then_O\tverb_kill\thuman\t2\n# again\nkill_human\tV_then_O\tverb_kill\thead\t1\n": (
        "line 3: duplicate rule 'kill_human'"
    ),
    "# only a comment\n": "no rules defined",
}


def test_rule_file_validation(tmp_path, capsys):
    p = tmp_path / "rules.tsv"
    corpus = tmp_path / "in.jsonl"
    corpus.write_text('{"id": "a", "text": "سأقتلك", "created_at": "2021-05-01T12:00:00Z"}\n', encoding="utf-8")
    out = tmp_path / "out.tsv"
    for text, error in BAD_RULE_FILES.items():
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {error}')}$"):
            load_rules(str(p))
        # match-violence exits 2 naming the file, and writes neither output nor manifest
        assert cli.main(["match-violence", "--in", str(corpus), "--out", str(out), "--rules", str(p)]) == 2
        assert f"error: {p}: {error}\n" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["in.jsonl", "rules.tsv"]


def test_dump_matches_format():
    matches = match_violence([HIT, HEAD], RULES)
    text = dump_matches([("docA", m) for m in matches])
    lines = text.splitlines()
    assert lines[0] == "doc_id\trule\tstart\tend\tspan"
    assert lines[1].startswith("docA\thit_human_or_body\t0\t2\t")
