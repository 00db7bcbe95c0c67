from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emoji_reference
from anchorlex import cli
from anchorlex import emoji_ranges as er
from anchorlex.emoji import (
    CLUSTER_START,
    SEEDS_PATH,
    base_form,
    cluster_spans,
    codepoints_hex,
    doc_bases,
    dump_emoji_stats,
    emoji_stats,
    filter_by_seeds,
    load_seed_inventory,
    parse_codepoints,
    sample_per_emoji,
)

from conftest import doc, label

ZWJ = "‍"
VS16 = "️"
VS15 = "︎"
TONE = {3: "\U0001F3FD", 6: "\U0001F3FF"}

# Hand-built segmentation vectors: text -> [(display, base), ...].
# Covers plain scalars, FE0F/FE0E variants, tone modifier sequences,
# ZWJ chains (with and without tones/FE0F inside), flags, keycaps,
# tag sequences, interleaved text, and degenerate inputs.
VECTORS = [
    # 1-3: no emoji at all
    ("", []),
    ("hello world", []),
    ("يا كلب 123 #tag", []),
    # 4-6: plain pictographic scalars, BMP and supplementary
    ("☕", [("☕", "☕")]),
    ("\U0001F437", [("\U0001F437", "\U0001F437")]),
    ("❤", [("❤", "❤")]),
    # 7-9: presentation selectors strip from the base
    ("❤" + VS16, [("❤" + VS16, "❤")]),
    ("☎" + VS15, [("☎" + VS15, "☎")]),
    ("☕" + VS16 + "x", [("☕" + VS16, "☕")]),
    # 10-12: skin tone modifier sequences collapse to the untoned base
    ("\U0001F44D\U0001F3FF", [("\U0001F44D\U0001F3FF", "\U0001F44D")]),
    ("✌\U0001F3FD", [("✌\U0001F3FD", "✌")]),
    ("✌" + VS16 + "\U0001F3FD", [("✌" + VS16 + "\U0001F3FD", "✌")]),
    # 13: a lone modifier is its own cluster; base falls back to itself
    ("\U0001F3FF", [("\U0001F3FF", "\U0001F3FF")]),
    # 14-17: ZWJ sequences stay one cluster; tones/VS16 inside strip
    (
        "\U0001F468" + ZWJ + "\U0001F469" + ZWJ + "\U0001F466",
        [("\U0001F468‍\U0001F469‍\U0001F466", "\U0001F468‍\U0001F469‍\U0001F466")],
    ),
    (
        "\U0001F469\U0001F3FD" + ZWJ + "\U0001F680",
        [("\U0001F469\U0001F3FD‍\U0001F680", "\U0001F469‍\U0001F680")],
    ),
    (
        "❤" + VS16 + ZWJ + "\U0001F525",
        [("❤️‍\U0001F525", "❤‍\U0001F525")],
    ),
    (
        "\U0001F46E\U0001F3FD" + ZWJ + "♀" + VS16,
        [("\U0001F46E\U0001F3FD‍♀️", "\U0001F46E‍♀")],
    ),
    # 18: two-person ZWJ sequence with two different tones
    (
        "\U0001F468\U0001F3FB" + ZWJ + "\U0001F91D" + ZWJ + "\U0001F468\U0001F3FF",
        [
            (
                "\U0001F468\U0001F3FB‍\U0001F91D‍\U0001F468\U0001F3FF",
                "\U0001F468‍\U0001F91D‍\U0001F468",
            )
        ],
    ),
    # 19-20: dangling ZWJ is not absorbed
    ("\U0001F44D" + ZWJ, [("\U0001F44D", "\U0001F44D")]),
    ("\U0001F44D" + ZWJ + "x", [("\U0001F44D", "\U0001F44D")]),
    # 21: lone ZWJ is not an emoji
    (ZWJ, []),
    # 22-24: flags pair up regional indicators left to right
    ("\U0001F1EA\U0001F1EC", [("\U0001F1EA\U0001F1EC", "\U0001F1EA\U0001F1EC")]),
    (
        "\U0001F1EA\U0001F1EC\U0001F1F8\U0001F1E6",
        [
            ("\U0001F1EA\U0001F1EC", "\U0001F1EA\U0001F1EC"),
            ("\U0001F1F8\U0001F1E6", "\U0001F1F8\U0001F1E6"),
        ],
    ),
    (
        "\U0001F1EA\U0001F1EC\U0001F1F8",
        [
            ("\U0001F1EA\U0001F1EC", "\U0001F1EA\U0001F1EC"),
            ("\U0001F1F8", "\U0001F1F8"),
        ],
    ),
    # 25-27: keycap sequences; FE0F strips from the base
    ("2" + VS16 + "⃣", [("2️⃣", "2⃣")]),
    ("#⃣", [("#⃣", "#⃣")]),
    ("3" + VS16 + "⃣" + "3", [("3️⃣", "3⃣")]),
    # 28: plain digits and hashes are not emoji
    ("42 #x *y", []),
    # 29: tag sequence (subdivision flag) keeps its tags in the base
    (
        "\U0001F3F4\U000E0067\U000E0062\U000E0073\U000E0063\U000E0074\U000E007F",
        [
            (
                "\U0001F3F4\U000E0067\U000E0062\U000E0073\U000E0063\U000E0074\U000E007F",
                "\U0001F3F4\U000E0067\U000E0062\U000E0073\U000E0063\U000E0074\U000E007F",
            )
        ],
    ),
    # 30-32: interleaved text, adjacency, repetition keep order and count
    (
        "a\U0001F437b\U0001F436c",
        [("\U0001F437", "\U0001F437"), ("\U0001F436", "\U0001F436")],
    ),
    (
        "\U0001F52A\U0001F44A",
        [("\U0001F52A", "\U0001F52A"), ("\U0001F44A", "\U0001F44A")],
    ),
    (
        "يا\U0001F437 خنزير \U0001F437",
        [("\U0001F437", "\U0001F437"), ("\U0001F437", "\U0001F437")],
    ),
]


@pytest.mark.parametrize("text,expected", VECTORS, ids=range(1, len(VECTORS) + 1))
def test_extraction_vectors(text, expected):
    got = [(text[a:b], base_form(text[a:b])) for a, b in cluster_spans(text)]
    assert got == expected


def test_vector_suite_is_large_enough():
    assert len(VECTORS) >= 30


def test_base_form_direct():
    assert base_form("\U0001F44D\U0001F3FF") == "\U0001F44D"
    assert base_form("❤️") == "❤"
    assert base_form("\U0001F3FD") == "\U0001F3FD"  # fallback, never empty
    assert base_form("\U0001F469\U0001F3FD‍\U0001F680") == "\U0001F469‍\U0001F680"


# Code points on either side of every range the segmenter tells apart:
# the regional indicators, the skin tones, the end of the pictographic
# table, the tag block, the selectors and joiners, keycap bases, BMP
# pictographs (U+2139 is also a word character), a lone surrogate, and
# ordinary Arabic text.
BOUNDARY = (
    [0x1F1E5, 0x1F1E6, 0x1F1FF]
    + [0x1F3FA, 0x1F3FB, 0x1F3FF, 0x1F400]
    + [0x1FFFD, 0x1FFFE]
    + [0xE0020, 0xE007F]
    + [0xFE0E, 0xFE0F, 0x20E3, 0x200D]
    + [ord(c) for c in "0123456789#*"]
    + [0x00A9, 0x2139, 0xD800]
    + [ord(c) for c in "كلب يا "]
)
# whole sequences of those code points, which uniform draws rarely line up
SEQUENCES = [
    "1" + VS16 + "⃣",
    "#⃣",
    ZWJ + "\U0001F400",
    "\U0001F3FA\U000E0020\U0001F3FB",
    "\U0001F1E6" * 3,
]


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from([*map(chr, BOUNDARY), *SEQUENCES]), max_size=12).map("".join))
def test_segmenter_matches_character_loop_reference(text):
    spans = cluster_spans(text)
    assert spans == emoji_reference.cluster_spans(text)
    for a, b in spans:
        assert base_form(text[a:b]) == emoji_reference.base_form(text[a:b])
    assert base_form(text) == emoji_reference.base_form(text)


def test_pictographic_table_is_sorted_disjoint_and_consolidated():
    table = er.EXTENDED_PICTOGRAPHIC
    assert all(lo <= hi for lo, hi in table)
    # each range starts past the end of the previous one plus a gap
    assert all(prev_hi + 1 < lo for (_, prev_hi), (lo, _) in zip(table, table[1:]))


def test_pictographic_table_avoids_every_other_class():
    # the segmenter's alternatives are tried in order; this keeps them
    # from competing for the same code point
    others = {
        *range(er.RI_LO, er.RI_HI + 1),
        *range(er.SKIN_TONE_LO, er.SKIN_TONE_HI + 1),
        er.VS15,
        er.VS16,
        er.ZWJ,
        er.KEYCAP_MARK,
        *range(er.TAG_LO, er.TAG_HI + 1),
        *er.KEYCAP_BASES,
    }
    for lo, hi in er.EXTENDED_PICTOGRAPHIC:
        assert not any(lo <= cp <= hi for cp in others), (hex(lo), hex(hi))


def test_cluster_start_holds_every_code_point_that_begins_a_cluster():
    # the pattern's lookahead: a starter it missed would lose its cluster
    starters = {
        *range(er.RI_LO, er.RI_HI + 1),
        *er.KEYCAP_BASES,
        *(cp for lo, hi in er.EXTENDED_PICTOGRAPHIC for cp in range(lo, hi + 1)),
        *range(er.SKIN_TONE_LO, er.SKIN_TONE_HI + 1),
    }
    gate = re.compile(CLUSTER_START)
    assert [hex(cp) for cp in sorted(starters) if not gate.fullmatch(chr(cp))] == []
    # what it is for: Arabic, ASCII letters and spaces fail it
    assert not any(map(gate.match, "كلب يا dog \u0640\u064b"))


def test_doc_bases_dedupes():
    assert doc_bases("\U0001F437 \U0001F437\U0001F3FF") == {"\U0001F437"}


def test_codepoints_hex_round_trip():
    s = "\U0001F468‍\U0001F466"
    assert parse_codepoints(codepoints_hex(s)) == s
    assert codepoints_hex("\U0001F437") == "1F437"


# --- seed inventory --------------------------------------------------------


def test_default_inventory_loads():
    inv = load_seed_inventory(SEEDS_PATH)
    assert len(inv) >= 15
    assert inv["\U0001F437"] == "animal_dehumanization"
    assert inv["\U0001F52A"] == "violence_symbol"
    assert "x" not in inv
    # bundled bases are already base forms (no tones, no VS)
    for b in inv:
        assert base_form(b) == b


def test_inventory_rejects_duplicates_and_bad_category(tmp_path):
    p = tmp_path / "seeds.tsv"
    # a toned or VS16 form folds onto the base already listed
    for variant in ("1F437 1F3FF", "1F437 FE0F"):
        p.write_text(f"1F437\tanimal_dehumanization\n{variant}\tother\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 2: duplicate seed base 1F437$"):
            load_seed_inventory(str(p))
    p.write_text("1F437\tcute\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 1: unknown seed category 'cute'$"):
        load_seed_inventory(str(p))


def test_inventory_file_round_trip(tmp_path):
    inv = load_seed_inventory(SEEDS_PATH)
    p = tmp_path / "seeds.tsv"
    rows = [f"{codepoints_hex(b)}\t{c}\ta comment the loader ignores\n" for b, c in inv.items()]
    p.write_text("# codepoints<TAB>category<TAB>comment\n" + "".join(rows), encoding="utf-8")
    assert load_seed_inventory(str(p)) == inv


# seed file text -> the error after "<path>: "
BAD_SEED_FILES = {
    "no category": ("1F437\n", "line 1: expected codepoints<TAB>category"),
    "bad codepoint": ("1F437\tother\n1F4ZZ\tother\n", "line 2: bad codepoint field '1F4ZZ'"),
    "empty codepoints": ("\tother\n", "line 1: empty codepoint field"),
    "duplicate base": ("1F437\tother\n# pig again\n1F437\tadult\n", "line 3: duplicate seed base 1F437"),
    "only comments": ("# codepoints<TAB>category\n\n", "seed inventory is empty"),
    "empty file": ("", "seed inventory is empty"),
}


def test_load_inventory_bad_line(tmp_path, capsys):
    p = tmp_path / "seeds.tsv"
    corpus = tmp_path / "in.jsonl"
    corpus.write_text('{"id": "a", "text": "\U0001F437", "created_at": "2021-05-01T12:00:00Z"}\n', encoding="utf-8")
    out = tmp_path / "out.jsonl"
    for case, (text, error) in BAD_SEED_FILES.items():
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {error}')}$"):
            load_seed_inventory(str(p))
        # collect exits 2 naming the file, and writes neither output nor manifest
        assert cli.main(["collect", "--in", str(corpus), "--out", str(out), "--seeds", str(p)]) == 2, case
        assert f"error: {p}: {error}\n" in capsys.readouterr().err, case
        assert sorted(f.name for f in tmp_path.iterdir()) == ["in.jsonl", "seeds.tsv"], case


# --- filtering -------------------------------------------------------------


def test_filter_by_seeds_keeps_order_and_matches_tones():
    inv = load_seed_inventory(SEEDS_PATH)
    docs = [
        doc(0, "no emoji here"),
        doc(1, "pig \U0001F437"),
        doc(2, "toned pig \U0001F437\U0001F3FF"),
        doc(3, "neutral \U0001F600"),
        doc(4, "knife \U0001F52A️"),
    ]
    kept = filter_by_seeds(docs, inv)
    assert [d.id for d in kept] == ["d001", "d002", "d004"]


# a keycap, a flag, a lone skin tone, a ZWJ sequence and a VS16 form,
# with their parts and near misses as the strings' building blocks
_SCREEN_SEEDS = ("1" + VS16 + "⃣", "\U0001F1F8\U0001F1E6", TONE[3],
                 "\U0001F3F3" + VS16 + ZWJ + "\U0001F308", "☠" + VS16)
_SCREEN_PIECES = [*_SCREEN_SEEDS, "1", "2⃣", "⃣", "\U0001F1F8", "\U0001F1EA\U0001F1EC",
                  "\U0001F3F3", "\U0001F308", "☠", "\U0001F44D", VS16, VS15, ZWJ, TONE[6],
                  "ك", "ل", " "]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_SCREEN_PIECES), max_size=8).map("".join), max_size=6))
def test_filter_by_seeds_matches_segmenting_every_text(texts):
    inv = {base_form(s): "other" for s in _SCREEN_SEEDS}
    docs = [doc(i, t) for i, t in enumerate(texts)]
    assert filter_by_seeds(docs, inv) == [d for d in docs if doc_bases(d.text) & inv.keys()]


def test_filter_by_seeds_empty_inventory():
    # no seed file loads as one (test_load_inventory_bad_line); in memory it keeps nothing
    assert filter_by_seeds([doc(0, "\U0001F437")], {}) == []


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(sorted(load_seed_inventory(SEEDS_PATH))),
    tone=st.sampled_from(sorted(range(0x1F3FB, 0x1F400))),
    prefix=st.text(alphabet="ab كلب", max_size=6),
)
def test_filter_tone_invariance(base, tone, prefix):
    # a toned variant must hit the inventory exactly when the untoned does
    inv = load_seed_inventory(SEEDS_PATH)
    plain = doc(0, prefix + base)
    toned = doc(1, prefix + base + chr(tone))
    assert bool(filter_by_seeds([plain], inv)) == bool(filter_by_seeds([toned], inv))


# --- stats and sampling ----------------------------------------------------


def _stats_fixture():
    docs = [
        doc(0, "x \U0001F437"),
        doc(1, "y \U0001F437\U0001F3FF \U0001F437"),
        doc(2, "z \U0001F52A"),
        doc(3, "plain text"),
    ]
    labels = {
        "d000": label(0, offensive=True, hate_targets=("race",)),
        "d001": label(1),
        "d002": label(2, offensive=True),
        "d003": label(3),
    }
    return docs, labels


def test_emoji_stats_counts_docs_not_occurrences():
    docs, labels = _stats_fixture()
    stats = {s.base: s for s in emoji_stats(docs, labels, load_seed_inventory(SEEDS_PATH))}
    pig = stats["\U0001F437"]
    assert pig.n_total == 2  # d001 counts once despite two pigs
    assert pig.n_offensive == 1 and pig.offensive_pct == pytest.approx(50.0)
    assert pig.n_hate == 1 and pig.hate_pct == pytest.approx(50.0)
    knife = stats["\U0001F52A"]
    assert knife.n_total == 1 and knife.offensive_pct == pytest.approx(100.0)


def test_emoji_stats_sorted_by_offensive_pct_then_base():
    docs, labels = _stats_fixture()
    stats = emoji_stats(docs, labels, load_seed_inventory(SEEDS_PATH))
    pcts = [s.offensive_pct for s in stats]
    assert pcts == sorted(pcts, reverse=True)


def test_emoji_stats_counts_only_seed_bases():
    docs, labels = _stats_fixture()
    docs.append(doc(4, "w \U0001F339 \U0001F437"))  # the rose is not a seed
    labels["d004"] = label(4)
    before = emoji_stats(docs, labels, load_seed_inventory(SEEDS_PATH))
    stats = {s.base: s for s in before}
    assert set(stats) == {"\U0001F437", "\U0001F52A"}
    assert stats["\U0001F437"].n_total == 3
    # a doc with no seed emoji adds nothing, so it needs no label
    docs.append(doc(5, "only \U0001F339"))
    assert "d005" not in labels
    assert emoji_stats(docs, labels, load_seed_inventory(SEEDS_PATH)) == before


def test_emoji_stats_requires_labels():
    docs, labels = _stats_fixture()
    del labels["d001"]
    with pytest.raises(ValueError, match="d001"):
        emoji_stats(docs, labels, load_seed_inventory(SEEDS_PATH))


def test_dump_emoji_stats_format():
    docs, labels = _stats_fixture()
    text = dump_emoji_stats(emoji_stats(docs, labels, load_seed_inventory(SEEDS_PATH)))
    lines = text.splitlines()
    assert lines[0] == "base\tcategory\tn_total\tn_offensive\toffensive_pct\tn_hate\thate_pct"
    assert any("\t50.00\t" in ln for ln in lines[1:])
    assert any(ln.startswith("1F437\t") for ln in lines[1:])


def test_sample_per_emoji_deterministic_and_capped():
    docs = [doc(i, f"t{i} \U0001F437") for i in range(20)]
    docs += [doc(100 + i, f"s{i} \U0001F52A") for i in range(2)]
    inv = load_seed_inventory(SEEDS_PATH)
    a = sample_per_emoji(docs, inv, k=5, seed=1)
    b = sample_per_emoji(docs, inv, k=5, seed=1)
    assert {k_: [d.id for d in v] for k_, v in a.items()} == {
        k_: [d.id for d in v] for k_, v in b.items()
    }
    assert len(a["\U0001F437"]) == 5
    assert len(a["\U0001F52A"]) == 2  # capped at population
    assert all("\U0001F437" in d.text for d in a["\U0001F437"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(0, 6), split=st.integers(1, 20))
def test_sample_per_emoji_growing_inventory_keeps_existing_draws(seed, k, split):
    # each base draws from its own RNG, so adding entries to the
    # inventory leaves the draws of the bases already in it alone
    full = load_seed_inventory(SEEDS_PATH)
    bases = list(full)
    small = {b: full[b] for b in bases[:split]}
    docs = [doc(i, f"t{i} " + b * (1 + i % 2)) for i, b in enumerate(bases * 4)]
    docs += [doc(500 + i, f"mix {b} {c}") for i, (b, c) in enumerate(zip(bases, bases[3:]))]
    before = sample_per_emoji(docs, small, k=k, seed=seed)
    after = sample_per_emoji(docs, full, k=k, seed=seed)
    assert set(before) == set(small)
    assert {b: [d.id for d in v] for b, v in before.items()} == {
        b: [d.id for d in after[b]] for b in before
    }


def test_sample_per_emoji_rejects_negative_k():
    with pytest.raises(ValueError):
        sample_per_emoji([doc(0, "\U0001F437")], load_seed_inventory(SEEDS_PATH), k=-1)
    empty = sample_per_emoji([doc(0, "\U0001F437")], load_seed_inventory(SEEDS_PATH), k=0)
    assert all(v == [] for v in empty.values())
