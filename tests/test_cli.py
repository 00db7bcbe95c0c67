from __future__ import annotations

import argparse
import base64
import json
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from anchorlex import cli, features
from anchorlex.annotation import Judgment, load_gate_answers, load_judgments, load_overrides, write_judgments
from anchorlex.corpus import (
    Document,
    load_corpus,
    load_labels,
    load_split,
    tsv_field,
    write_corpus,
    write_labels,
)
from anchorlex.emoji import SEEDS_PATH
from anchorlex.linear import load_model
from anchorlex.util import sha256_file
from anchorlex.violence import CLASSES_PATH, RULES_PATH

from separable_corpus import make_separable_corpus

TS = "2021-05-01T12:00:00Z"


def usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One trained pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    docs, labels = make_separable_corpus(n_docs=120, seed=3)
    paths = SimpleNamespace(
        root=root,
        corpus=str(root / "docs.jsonl"),
        labels=str(root / "labels.tsv"),
        split=str(root / "split.tsv"),
        model=str(root / "model.json"),
        preds=str(root / "preds.tsv"),
        judgments=str(root / "judgments.tsv"),
    )
    write_corpus(paths.corpus, docs)
    write_judgments(paths.judgments, [Judgment(d.id, a, "offensive", str(k % 2), TS)
                                      for k, d in enumerate(docs) for a in ("a1", "a2", "a3")])
    write_labels(paths.labels, labels.values())
    assert cli.main(["split", "--labels", paths.labels, "--out", paths.split, "--seed", "1"]) == 0
    assert (
        cli.main(
            [
                "train",
                "--in", paths.corpus,
                "--labels", paths.labels,
                "--split", paths.split,
                "--out", paths.model,
                "--mode", "word",
                "--word-ngrams", "1,2",
            ]
        )
        == 0
    )
    assert cli.main(["predict", "--model", paths.model, "--in", paths.corpus, "--out", paths.preds]) == 0
    return paths


# --- exit codes ------------------------------------------------------------


def test_no_command_prints_usage_returns_1(capsys):
    assert cli.main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert usage_error(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(tmp_path):
    assert usage_error(["collect", "--out", str(tmp_path / "x.jsonl")]) == 1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_missing_input_file_returns_2(tmp_path, capsys):
    rc = cli.main(["normalize", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl")])
    assert rc == 2
    assert "anchorlex normalize: error:" in capsys.readouterr().err


def test_bad_ratios_return_2(ws, tmp_path, capsys):
    out = str(tmp_path / "s.tsv")
    assert cli.main(["split", "--labels", ws.labels, "--out", out, "--ratios", "0.5,0.5"]) == 2
    assert cli.main(["split", "--labels", ws.labels, "--out", out, "--ratios", "a,b,c"]) == 2
    err = capsys.readouterr().err
    assert "bad --ratios" in err
    for ratios in ("nan,0.1,0.2", "0.5,nan,0.5"):
        assert cli.main(["split", "--labels", ws.labels, "--out", out, "--ratios", ratios]) == 2
        assert "--ratios must be finite, non-negative and sum to 1" in capsys.readouterr().err
    assert not os.path.exists(out)


# --- corpus-shaping commands -------------------------------------------------


def test_collect_keeps_only_seed_docs(tmp_path, capsys):
    docs = [
        Document(id="d1", text="يا خنزير \U0001F437", created_at=TS),
        Document(id="d2", text="وردة جميلة \U0001F339", created_at=TS),
        Document(id="d3", text="صباح الخير", created_at=TS),
    ]
    inp, out = str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")
    write_corpus(inp, docs)
    assert cli.main(["collect", "--in", inp, "--out", out]) == 0
    kept = load_corpus(out)
    assert [d.id for d in kept] == ["d1"]
    assert "kept 1/3" in capsys.readouterr().out

    man = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
    assert man["command"] == "collect"
    assert inp in man["inputs"] and out in man["outputs"]
    assert man["version"]


def test_collect_has_one_documents_format(tmp_path):
    # JSONL is the only documents format, so a flag to choose one is unknown
    inp, out = str(tmp_path / "in.jsonl"), tmp_path / "out.jsonl"
    write_corpus(inp, [Document(id="d1", text="سكين \U0001F52A", created_at=TS)])
    assert usage_error(["collect", "--in", inp, "--out", str(out), "--format", "tsv"]) == 1
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


def test_collect_then_dedup_keep_a_year_below_1000(tmp_path):
    # collect writes the year with four digits, so dedup reads its output back
    raw, kept, deduped = (str(tmp_path / n) for n in ("raw.jsonl", "kept.jsonl", "dedup.jsonl"))
    rows = [
        {"id": "d1", "text": "يا خنزير قذر \U0001F437", "created_at": "0999-01-01T00:00:00Z"},
        {"id": "d2", "text": "سكين على رقبتك يا حقير \U0001F52A", "created_at": "1000-01-01T01:00:00+02:00"},
    ]
    Path(raw).write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    assert cli.main(["collect", "--in", raw, "--out", kept]) == 0
    assert cli.main(["dedup", "--in", kept, "--out", deduped]) == 0
    want = ["0999-01-01T00:00:00Z", "0999-12-31T23:00:00Z"]
    assert [d.created_at for d in load_corpus(kept)] == want
    assert [d.created_at for d in load_corpus(deduped)] == want


def test_dedup_drops_short_and_exact(tmp_path, capsys):
    docs = [
        Document(id="a", text="كلام طويل بما يكفي هنا", created_at=TS),
        Document(id="b", text="كلام طويل بما يكفي هنا", created_at=TS),
        Document(id="c", text="هه", created_at=TS),
        Document(id="d", text="جملة مختلفة تماما عن السابقة", created_at=TS),
    ]
    inp, out = str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")
    write_corpus(inp, docs)
    assert cli.main(["dedup", "--in", inp, "--out", out]) == 0
    assert [d.id for d in load_corpus(out)] == ["a", "d"]
    assert "kept 2, dropped 2" in capsys.readouterr().out

    drop_lines = open(out + ".dropped.tsv", encoding="utf-8").read().splitlines()
    assert drop_lines[0] == "doc_id\treason\tduplicate_of"
    reasons = {ln.split("\t")[1] for ln in drop_lines[1:]}
    assert reasons == {"short", "exact"}


def test_dedup_default_jaccard_is_0_8(tmp_path):
    # bigram shingles: a-d vs a-e share 3 of 4 (0.75), p-t vs p-u share 4 of 5 (0.8)
    texts = {"a": "a b c d", "b": "a b c d e", "p": "p q r s t", "q": "p q r s t u"}
    inp, out = str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")
    write_corpus(inp, [Document(id=i, text=t, created_at=TS) for i, t in texts.items()])
    assert cli.main(["dedup", "--in", inp, "--out", out]) == 0
    assert [d.id for d in load_corpus(out)] == ["a", "b", "p"]
    drops = open(out + ".dropped.tsv", encoding="utf-8").read().splitlines()[1:]
    assert drops == ["q\tnear\tp"]


def test_normalize_rewrites_text(tmp_path):
    docs = [Document(id="d1", text="يَا أخي @someone", created_at=TS)]
    inp, out = str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")
    write_corpus(inp, docs)
    assert cli.main(["normalize", "--in", inp, "--out", out]) == 0
    assert load_corpus(out)[0].text == "يا اخي @USER"
    # the rule set is fixed: a flag to change it is unknown
    assert usage_error(["normalize", "--in", inp, "--out", out, "--keep-diacritics"]) == 1


def test_split_command_writes_parts(ws):
    split = load_split(ws.split)
    assert len(split.train) == 84 and len(split.dev) == 12 and len(split.test) == 24
    man = json.loads(open(ws.split + ".manifest.json", encoding="utf-8").read())
    assert man["seed"] == 1
    assert man["config"]["ratios"] == "0.7,0.1,0.2"


def test_mine_lexicon_finds_class_markers(ws, tmp_path):
    out = str(tmp_path / "lex.tsv")
    assert cli.main(["mine-lexicon", "--in", ws.corpus, "--labels", ws.labels, "--out", out]) == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "term\tn_off\tn_cln\tvalence"
    terms = {ln.split("\t")[0] for ln in lines[1:]}
    assert terms  # offensive markers never appear in clean docs
    assert all(float(ln.split("\t")[3]) >= 0.8 for ln in lines[1:])
    assert "سلام" not in terms


@pytest.mark.parametrize("v", ["nan", "inf", "-inf"])
def test_mine_lexicon_rejects_non_finite_min_valence(ws, tmp_path, capsys, v):
    out = tmp_path / "lex.tsv"
    argv = ["mine-lexicon", "--in", ws.corpus, "--labels", ws.labels, "--out", str(out)]
    assert cli.main(argv + [f"--min-valence={v}"]) == 2
    assert "error: --min-valence must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_emoji_stats_command(tmp_path):
    docs = [
        Document(id="d1", text="خنزير \U0001F437", created_at=TS),
        Document(id="d2", text="\U0001F437\U0001F3FF تاني", created_at=TS),
        Document(id="d3", text="وردة \U0001F339", created_at=TS),
    ]
    labels = [
        {"doc_id": "d1", "offensive": True},
        {"doc_id": "d2", "offensive": False},
        {"doc_id": "d3", "offensive": False},
    ]
    from anchorlex.corpus import LabelRecord

    inp, lab, out = str(tmp_path / "c.jsonl"), str(tmp_path / "l.tsv"), str(tmp_path / "s.tsv")
    write_corpus(inp, docs)
    write_labels(lab, [LabelRecord(**kw) for kw in labels])
    assert cli.main(["emoji-stats", "--in", inp, "--labels", lab, "--out", out]) == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("base\tcategory\tn_total")
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert rows["1F437"][2] == "2"  # tone variant folds into the base
    assert "1F339" not in rows  # rose is not a seed


@pytest.mark.parametrize("stage", ["mine-lexicon", "emoji-stats"])
def test_a_doc_without_a_label_record_names_the_corpus_and_labels(tmp_path, capsys, stage):
    from anchorlex.corpus import LabelRecord

    inp, lab, out = tmp_path / "c.jsonl", tmp_path / "l.tsv", tmp_path / "o.tsv"
    docs = [Document(id="d1", text="يا كلب \U0001F437", created_at=TS), Document(id="d2", text="صباح \U0001F437", created_at=TS)]
    write_corpus(str(inp), docs)
    write_labels(str(lab), [LabelRecord(doc_id="d1", offensive=True)])
    assert cli.main([stage, "--in", str(inp), "--labels", str(lab), "--out", str(out)]) == 2
    assert f"error: {inp}, {lab}: document 'd2' has no label record\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "l.tsv"]


def test_sample_command_deterministic(tmp_path):
    docs = [Document(id=f"d{i}", text=f"نص {i} \U0001F437", created_at=TS) for i in range(6)]
    inp = str(tmp_path / "c.jsonl")
    write_corpus(inp, docs)
    out1, out2 = str(tmp_path / "s1.tsv"), str(tmp_path / "s2.tsv")
    assert cli.main(["sample", "--in", inp, "--out", out1, "--k", "3", "--seed", "9"]) == 0
    assert cli.main(["sample", "--in", inp, "--out", out2, "--k", "3", "--seed", "9"]) == 0
    t1 = open(out1, encoding="utf-8").read()
    assert t1 == open(out2, encoding="utf-8").read()
    lines = t1.splitlines()
    assert lines[0] == "base\tdoc_id\ttext"
    assert sum(1 for ln in lines[1:] if ln.startswith("1F437\t")) == 3


def test_sample_keeps_each_draw_on_one_row_like_the_tsv_corpus(tmp_path):
    docs = [Document(id=f"d{i}", text=f"a\tb\rc\nd\r\n{i} \U0001F437", created_at=TS) for i in range(3)]
    inp, out = str(tmp_path / "c.jsonl"), str(tmp_path / "s.tsv")
    write_corpus(inp, docs)
    assert cli.main(["sample", "--in", inp, "--out", out, "--k", "3"]) == 0
    # read with universal newlines, as the table readers read
    with open(out, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    assert sorted(rows) == [["1F437", d.id, tsv_field(d.text)] for d in docs]


@pytest.mark.parametrize(
    "flag, content, named",
    [
        (
            "--rules",
            "r1\tV_then_O\tverb_x\thuman\t2\n",
            "{path}, {classes}: rules reference undefined classes ['verb_x']",
        ),
        ("--classes", "head\tراس\n", "{rules}, {path}: rules reference undefined classes ['body', "),
    ],
    ids=["rules", "classes"],
)
def test_undefined_rule_class_names_its_files(tmp_path, capsys, flag, content, named):
    inp, out, path = tmp_path / "c.jsonl", tmp_path / "m.tsv", tmp_path / "given.tsv"
    write_corpus(str(inp), [Document(id="d1", text="سأقتلك يا وغد", created_at=TS)])
    path.write_text(content, encoding="utf-8")
    assert cli.main(["match-violence", "--in", str(inp), "--out", str(out), flag, str(path)]) == 2
    assert f"error: {named.format(path=path, rules=RULES_PATH, classes=CLASSES_PATH)}" in capsys.readouterr().err
    assert not out.exists()


def test_match_violence_command(tmp_path):
    docs = [
        Document(id="d1", text="سأقتلك يا وغد", created_at=TS),
        Document(id="d2", text="صباح الخير جميعا", created_at=TS),
    ]
    inp, out = str(tmp_path / "c.jsonl"), str(tmp_path / "m.tsv")
    write_corpus(inp, docs)
    assert cli.main(["match-violence", "--in", inp, "--out", out]) == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "doc_id\trule\tstart\tend\tspan"
    assert all(ln.split("\t")[0] == "d1" for ln in lines[1:])
    assert len(lines) > 1


# --- annotation commands -----------------------------------------------------


def _judgment_file(path: str) -> None:
    judgments = []
    for doc in range(24):
        truth = "1" if doc % 2 else "0"
        for ann in ("a1", "a2", "a3"):
            label = truth
            if ann == "a3" and doc % 8 == 0:
                label = "1" if truth == "0" else "0"
            judgments.append(Judgment(f"d{doc:03d}", ann, "offensive", label, TS))
    write_judgments(path, judgments)


def test_aggregate_kappa_gate_commands(tmp_path, capsys):
    jpath = str(tmp_path / "judgments.tsv")
    _judgment_file(jpath)

    labels_out = str(tmp_path / "labels.tsv")
    queue_out = str(tmp_path / "queue.tsv")
    assert cli.main(["aggregate", "--judgments", jpath, "--out", labels_out, "--queue", queue_out]) == 0
    labels = load_labels(labels_out)
    assert len(labels) == 24
    assert sum(1 for r in labels.values() if r.offensive) == 12
    qlines = open(queue_out, encoding="utf-8").read().splitlines()
    assert qlines[0] == "doc_id\tjob\tlabel\tagreement\toverride"
    assert len(qlines) == 4  # disagreements only (a3 flipped on 3 docs)
    assert "24 docs labeled, 3 queue items, 0 docs with" in capsys.readouterr().out

    kfile = tmp_path / "kappa.txt"
    assert cli.main(["kappa", "--judgments", jpath, "--out", str(kfile)]) == 0
    kout = kfile.read_text(encoding="utf-8")
    assert kout.startswith("mean_kappa\t")
    assert "a1\ta2\t24\t1.000000" in kout

    answers = str(tmp_path / "answers.tsv")
    with open(answers, "w", encoding="utf-8") as fh:
        fh.write("doc_id\tlabel\n")
        for doc in range(8):
            fh.write(f"d{doc:03d}\t{'1' if doc % 2 else '0'}\n")
    gfile = tmp_path / "gate.txt"
    assert cli.main(["gate", "--judgments", jpath, "--answers", answers, "--out", str(gfile)]) == 0
    gout = gfile.read_text(encoding="utf-8")
    assert gout.startswith("annotator_id\tn_test\tn_correct\taccuracy\tpassed")
    assert "a1\t8\t8\t1.000000\t1" in gout
    assert "a3\t8\t7\t0.875000\t1" in gout
    assert capsys.readouterr().out == ""

    # each writes its manifest next to its output
    for name, command in ((kfile, "kappa"), (gfile, "gate")):
        assert json.loads(Path(f"{name}.manifest.json").read_text(encoding="utf-8"))["command"] == command


def test_aggregate_reports_dropped_votes_without_a_warning(tmp_path, capsys):
    jpath = str(tmp_path / "judgments.tsv")
    judgments = []
    for doc in range(4):
        for ann in ("a1", "a2"):
            judgments.append(Judgment(f"d{doc}", ann, "offensive", "0", TS))
            if doc < 3:  # subsidiary votes that contradict the clean majority
                judgments.append(Judgment(f"d{doc}", ann, "violence", "1", TS))
    write_judgments(jpath, judgments)
    out = str(tmp_path / "labels.tsv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["aggregate", "--judgments", jpath, "--out", out]) == 0
    assert caught == []
    captured = capsys.readouterr()
    assert "UserWarning" not in captured.err
    assert "aggregate: 4 docs labeled, 0 queue items, 3 docs with hate/vulgar/violence votes dropped" in captured.out
    assert not any(r.violence for r in load_labels(out).values())


def test_duplicate_judgment_exits_2(tmp_path, capsys):
    jpath = str(tmp_path / "judgments.tsv")
    _judgment_file(jpath)
    with open(jpath, "a", encoding="utf-8") as fh:
        fh.write("d005\ta2\toffensive\t0\t\n")  # a2 already judged d005 on line 18
    answers = str(tmp_path / "answers.tsv")
    with open(answers, "w", encoding="utf-8") as fh:
        fh.write("doc_id\tlabel\nd000\t0\n")
    out = str(tmp_path / "out.tsv")
    for argv in (
        ["aggregate", "--judgments", jpath, "--out", out],
        ["kappa", "--judgments", jpath, "--out", out],
        ["gate", "--judgments", jpath, "--answers", answers, "--out", out],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "line 74: duplicate (doc_id, annotator_id, job) ('d005', 'a2', 'offensive'), first on line 18" in err
    assert not (tmp_path / "out.tsv").exists()


_JUDGMENTS = "doc_id\tannotator_id\tjob\tlabel\ttimestamp\nd1\ta1\toffensive\t1\t\nd1\ta2\toffensive\t1\t\n"


@pytest.mark.parametrize(
    "table, argv, where",
    [
        (
            "doc_id\toffensive\thate_targets\tvulgar\tviolence\nd1\t1\t\t0\t0\nd2\t0\t\t0\t0\nd1\t0\t\t0\t0\n",
            ["split", "--labels", "{t}", "--out", "{o}"],
            "line 4: duplicate doc_id 'd1', first on line 2",
        ),
        (
            "doc_id\tlabel\tscore\nd1\t1\t0.5\n\nd1\t0\t-0.5\n",
            ["evaluate", "--gold", "{labels}", "--pred", "{t}", "--out", "{o}"],
            "line 4: duplicate doc_id 'd1', first on line 2",
        ),
        (
            "doc_id\tlabel\nd1\t1\nd1\t0\n",
            ["gate", "--judgments", "{judgments}", "--answers", "{t}", "--out", "{o}"],
            "line 3: duplicate doc_id 'd1', first on line 2",
        ),
        (
            _JUDGMENTS + "d1\ta1\thate\tnone\t\nd1\ta1\toffensive\t0\t\n",
            ["aggregate", "--judgments", "{t}", "--out", "{o}"],
            "line 5: duplicate (doc_id, annotator_id, job) ('d1', 'a1', 'offensive'), first on line 2",
        ),
        (
            "doc_id\tjob\tlabel\tagreement\toverride\nd1\toffensive\t1\tfull\t1\nd1\toffensive\t1\tfull\t0\n",
            ["aggregate", "--judgments", "{judgments}", "--overrides", "{t}", "--out", "{o}"],
            "line 3: duplicate (doc_id, job) ('d1', 'offensive'), first on line 2",
        ),
    ],
    ids=["labels", "predictions", "gate-answers", "judgments", "overrides"],
)
def test_keyed_table_with_a_repeated_key_exits_2(tmp_path, capsys, table, argv, where):
    paths = {name: str(tmp_path / f"{name}.tsv") for name in ("t", "labels", "judgments", "o")}
    Path(paths["t"]).write_text(table, encoding="utf-8")
    labels = "doc_id\toffensive\thate_targets\tvulgar\tviolence\nd1\t1\t\t0\t0\n"
    Path(paths["labels"]).write_text(labels, encoding="utf-8")
    Path(paths["judgments"]).write_text(_JUDGMENTS, encoding="utf-8")
    assert cli.main([a.format(**paths) for a in argv]) == 2
    assert f"error: {paths['t']}: {where}\n" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["judgments.tsv", "labels.tsv", "t.tsv"]


def test_aggregate_with_overrides(tmp_path):
    jpath = str(tmp_path / "j.tsv")
    _judgment_file(jpath)
    overrides = str(tmp_path / "adj.tsv")
    with open(overrides, "w", encoding="utf-8") as fh:
        fh.write("doc_id\tjob\tlabel\tagreement\toverride\n")
        fh.write("d000\toffensive\t0\tmajority\t1\n")
    out = str(tmp_path / "labels.tsv")
    assert cli.main(["aggregate", "--judgments", jpath, "--out", out, "--overrides", overrides]) == 0
    labels = load_labels(out)
    assert labels["d000"].offensive is True


def test_rejected_override_names_its_file(tmp_path, capsys):
    jpath = str(tmp_path / "j.tsv")
    _judgment_file(jpath)
    overrides = tmp_path / "adj.tsv"
    overrides.write_text("doc_id\tjob\tlabel\tagreement\toverride\nzz\toffensive\t0\ttie\t1\n", encoding="utf-8")
    out = tmp_path / "labels.tsv"
    argv = ["aggregate", "--judgments", jpath, "--out", str(out), "--overrides", str(overrides)]
    assert cli.main(argv) == 2
    assert f"error: {overrides}: override for unknown doc 'zz'" in capsys.readouterr().err
    assert not out.exists()


def test_header_only_gate_answers_name_their_file(tmp_path, capsys):
    jpath = str(tmp_path / "j.tsv")
    _judgment_file(jpath)
    answers = tmp_path / "answers.tsv"
    answers.write_text("doc_id\tlabel\n", encoding="utf-8")
    out = tmp_path / "gate.tsv"
    assert cli.main(["gate", "--judgments", jpath, "--answers", str(answers), "--out", str(out)]) == 2
    assert f"error: {answers}: gate needs at least one test answer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
def test_gate_threshold_must_be_in_the_unit_interval(tmp_path, capsys, threshold):
    jpath = str(tmp_path / "j.tsv")
    _judgment_file(jpath)
    answers = tmp_path / "answers.tsv"
    answers.write_text("doc_id\tlabel\nd000\t0\n", encoding="utf-8")
    out = tmp_path / "gate.tsv"
    argv = ["gate", "--judgments", jpath, "--answers", str(answers), "--threshold", threshold, "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"error: threshold must be in [0, 1], got {float(threshold)}\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["answers.tsv", "j.tsv"]


@pytest.mark.parametrize(
    "job, label, error",
    [
        # a1's first vote, the only offensive one
        ("offensive", "yes", "line 2: d001: offensive label must be 0/1, got 'yes'"),
        # a1's second vote, after its offensive 1
        ("vulgar", "true", "line 3: d001: vulgar label must be 0/1, got 'true'"),
        ("violence", "2", "line 3: d001: violence label must be 0/1, got '2'"),
        ("hate", "sports", "line 3: d001: unknown hate target 'sports'"),
        ("sarcasm", "1", "line 3: d001: unknown job 'sarcasm'"),
    ],
    ids=["offensive", "vulgar", "violence", "hate", "job"],
)
def test_aggregate_rejects_a_label_outside_its_job_naming_the_judgments(tmp_path, capsys, job, label, error):
    votes = {"offensive": "1", job: label}  # two annotators agree on each job
    jpath = tmp_path / "j.tsv"
    write_judgments(str(jpath), [Judgment("d001", a, j, v, TS) for a in ("a1", "a2") for j, v in votes.items()])
    out = tmp_path / "labels.tsv"
    assert cli.main(["aggregate", "--judgments", str(jpath), "--out", str(out)]) == 2
    assert f"error: {jpath}: {error}\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.tsv"]


def test_aggregate_rejects_a_minority_label_outside_its_job(tmp_path, capsys):
    jpath = tmp_path / "j.tsv"
    votes = (("a1", "1"), ("a2", "1"), ("a3", "yes"))  # the majority 1 fits the rule, one vote does not
    write_judgments(str(jpath), [Judgment("d1", a, "offensive", v, TS) for a, v in votes])
    out = tmp_path / "labels.tsv"
    assert cli.main(["aggregate", "--judgments", str(jpath), "--out", str(out)]) == 2
    assert f"error: {jpath}: line 4: d1: offensive label must be 0/1, got 'yes'\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.tsv"]


def test_kappa_without_a_qualifying_pair_names_the_judgments(tmp_path, capsys):
    jpath = tmp_path / "j.tsv"
    write_judgments(str(jpath), [Judgment("d1", a, "offensive", "1", TS) for a in ("a1", "a2")])
    out = tmp_path / "kappa.tsv"
    assert cli.main(["kappa", "--judgments", str(jpath), "--out", str(out)]) == 2
    error = f"error: {jpath}: no annotator pair shares >= 20 items with defined kappa\n"
    assert error in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.tsv"]


def test_kappa_and_gate_reject_a_label_outside_the_offensive_rule(tmp_path, capsys):
    # 25 shared offensive items; a2 writes `yes` once, which kappa used to count as a category
    rows = [(f"d{i}", a, "yes" if (a, i) == ("a2", 7) else str(i % 2)) for i in range(25) for a in ("a1", "a2")]
    jpath = tmp_path / "j.tsv"
    write_judgments(str(jpath), [Judgment(d, a, "offensive", v, TS) for d, a, v in rows])
    answers = tmp_path / "answers.tsv"
    answers.write_text("doc_id\tlabel\nd0\t0\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    error = f"error: {jpath}: line 17: d7: offensive label must be 0/1, got 'yes'\n"
    assert cli.main(["kappa", "--judgments", str(jpath), "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert cli.main(["gate", "--judgments", str(jpath), "--answers", str(answers), "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["answers.tsv", "j.tsv"]


@pytest.mark.parametrize("answer", ["yes", "2", "none"])
def test_gate_rejects_an_answer_outside_the_offensive_rule(tmp_path, capsys, answer):
    jpath = str(tmp_path / "j.tsv")
    _judgment_file(jpath)
    answers = tmp_path / "answers.tsv"
    answers.write_text(f"doc_id\tlabel\nd001\t1\nd000\t{answer}\n", encoding="utf-8")
    out = tmp_path / "gate.tsv"
    assert cli.main(["gate", "--judgments", jpath, "--answers", str(answers), "--out", str(out)]) == 2
    error = f"error: {answers}: line 3: d000: offensive label must be 0/1, got {answer!r}\n"
    assert error in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["answers.tsv", "j.tsv"]


# Each headered reader: its header, one good row, and a command that reads
# `bad` through it (j: a judgments file, g: a labels file).
HEADER_READERS = {
    "labels": (
        load_labels,
        "doc_id\toffensive\thate_targets\tvulgar\tviolence",
        "d000\t1\t\t0\t0",
        lambda bad, j, g, out: ["split", "--labels", bad, "--out", out],
    ),
    "judgments": (
        load_judgments,
        "doc_id\tannotator_id\tjob\tlabel\ttimestamp",
        "d000\ta1\toffensive\t1\t",
        lambda bad, j, g, out: ["kappa", "--judgments", bad, "--out", out],
    ),
    "gate answers": (
        load_gate_answers,
        "doc_id\tlabel",
        "d000\t0",
        lambda bad, j, g, out: ["gate", "--judgments", j, "--answers", bad, "--out", out],
    ),
    "overrides": (
        load_overrides,
        "doc_id\tjob\tlabel\tagreement\toverride",
        "d000\toffensive\t0\tmajority\t1",
        lambda bad, j, g, out: ["aggregate", "--judgments", j, "--overrides", bad, "--out", out],
    ),
    "predictions": (
        cli.load_predictions,
        "doc_id\tlabel\tscore",
        "d000\t1\t0.5",
        lambda bad, j, g, out: ["evaluate", "--gold", g, "--pred", bad, "--out", out],
    ),
}
# case -> (file text from header and row, line the error names; None: it loads)
TABLE_CASES = {
    "empty file": (lambda h, r: "", 1),
    "wrong header": (lambda h, r: f"id{h[6:]}\n{r}\n", 1),
    "short row": (lambda h, r: f"{h}\n{r.rsplit(chr(9), 1)[0]}\n", 2),
    "long row": (lambda h, r: f"{h}\n{r}\tx\n", 2),
    "blank line": (lambda h, r: f"{h}\n\n{r}\n\n", None),
}


@pytest.mark.parametrize("case", list(TABLE_CASES))
@pytest.mark.parametrize("reader", list(HEADER_READERS))
def test_header_readers_on_malformed_tables(tmp_path, capsys, reader, case):
    load, header, row, argv = HEADER_READERS[reader]
    text, lineno = TABLE_CASES[case]
    bad = tmp_path / "bad.tsv"
    bad.write_text(text(header, row), encoding="utf-8")
    if lineno is None:
        clean = tmp_path / "clean.tsv"
        clean.write_text(f"{header}\n{row}\n", encoding="utf-8")
        assert load(str(bad)) == load(str(clean)) and load(str(clean))
        return
    error = f"{bad}: line {lineno}: "
    with pytest.raises(ValueError, match=re.escape(error)):
        load(str(bad))
    jpath = str(tmp_path / "j.tsv")
    _judgment_file(jpath)
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc_id\toffensive\thate_targets\tvulgar\tviolence\nd000\t1\t\t0\t0\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert cli.main(argv(str(bad), jpath, str(gold), str(out))) == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.tsv.manifest.json").exists()


# reader -> (the ws file it is given a copy of, the line that gets a stray byte,
# the command that reads the copy `bad` and writes `out`)
UTF8_READERS = {
    "corpus jsonl": ("corpus", 3, lambda ws, bad, out: ["collect", "--in", bad, "--out", out]),
    "labels tsv": ("labels", 2, lambda ws, bad, out: ["split", "--labels", bad, "--out", out]),
    "split file": (
        "split",
        2,
        lambda ws, bad, out: ["train", "--in", ws.corpus, "--labels", ws.labels, "--split", bad, "--out", out],
    ),
    "model json": ("model", 1, lambda ws, bad, out: ["predict", "--model", bad, "--in", ws.corpus, "--out", out]),
    "rules table": (
        None,
        5,
        lambda ws, bad, out: ["match-violence", "--in", ws.corpus, "--rules", bad, "--out", out],
    ),
    # a line past the first 8 KB, the size of a text decoder's chunk
    "judgments tsv": ("judgments", 300, lambda ws, bad, out: ["kappa", "--judgments", bad, "--out", out]),
}


@pytest.mark.parametrize("reader", list(UTF8_READERS))
def test_input_that_is_not_utf8_names_its_file_and_line(ws, tmp_path, capsys, reader):
    name, lineno, argv = UTF8_READERS[reader]
    good = Path(getattr(ws, name) if name else RULES_PATH)
    lines = good.read_bytes().splitlines(keepends=True)
    if reader == "judgments tsv":  # the stray byte lies past the first 8 KB
        assert sum(map(len, lines[: lineno - 1])) > 8192
    lines[lineno - 1] = lines[lineno - 1][:-1] + b"\xff\n"
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(b"".join(lines))
    assert cli.main(argv(ws, str(bad), str(out))) == 2
    assert f"error: {bad}: line {lineno}: not valid UTF-8\n" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [bad]


def test_split_reads_a_field_past_the_csv_field_limit(tmp_path):
    # csv.reader stops at 131,072 characters a field; the labels reader has no limit
    long_id = "d" * 200_000
    labels = tmp_path / "labels.tsv"
    rows = "".join(f"{d}\t{i % 2}\t\t0\t0\n" for i, d in enumerate([long_id, "a", "b", "c", "e", "f"]))
    labels.write_text("doc_id\toffensive\thate_targets\tvulgar\tviolence\n" + rows, encoding="utf-8")
    out = str(tmp_path / "split.tsv")
    assert cli.main(["split", "--labels", str(labels), "--out", out]) == 0
    split = load_split(out)
    assert long_id in split.train | split.dev | split.test


def test_ids_that_look_like_section_headers_round_trip_through_split(tmp_path, capsys):
    docs, labels = make_separable_corpus(n_docs=40, seed=5)
    # ids that a one-id-a-line section format read as a header or stripped
    odd = {d.id: new for d, new in zip(docs, ("dev:", " pad", "a b:", "test:", "x "))}
    docs = [Document(odd.get(d.id, d.id), d.text, d.created_at) for d in docs]
    labels = {odd.get(i, i): replace(r, doc_id=odd.get(i, i)) for i, r in labels.items()}
    p = {name: str(tmp_path / name) for name in ("docs.jsonl", "labels.tsv", "split.tsv", "model.json", "preds.tsv")}
    write_corpus(p["docs.jsonl"], docs)
    write_labels(p["labels.tsv"], labels.values())
    assert cli.main(["split", "--labels", p["labels.tsv"], "--out", p["split.tsv"]]) == 0
    split = load_split(p["split.tsv"])
    printed = f"split: train={len(split.train)} dev={len(split.dev)} test={len(split.test)}"
    assert printed in capsys.readouterr().out
    assert split.train | split.dev | split.test == set(labels)
    argv = ["train", "--in", p["docs.jsonl"], "--labels", p["labels.tsv"], "--split", p["split.tsv"]]
    assert cli.main(argv + ["--out", p["model.json"], "--mode", "word"]) == 0
    assert load_model(p["model.json"]).space.n_docs == len(split.train)
    assert cli.main(["predict", "--model", p["model.json"], "--in", p["docs.jsonl"], "--out", p["preds.tsv"]]) == 0
    for part in ("train", "dev", "test"):
        out = tmp_path / f"eval_{part}.txt"
        argv = ["evaluate", "--gold", p["labels.tsv"], "--pred", p["preds.tsv"], "--split", p["split.tsv"]]
        assert cli.main(argv + ["--part", part, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == f"n\t{len(split.part(part))}"


# a split file -> the error train and evaluate report, after `PATH: `
SPLIT_FILE_ERRORS = {
    "section format": ("train:\nd000\ndev:\nd001\n", "line 1: bad header ['train:'], expected ['doc_id', 'part']"),
    "duplicate id": (
        "doc_id\tpart\nd000\ttrain\nd001\tdev\nd000\ttest\n",
        "line 4: duplicate doc_id 'd000', first on line 2",
    ),
    "unknown part": ("doc_id\tpart\nd000\ttrain\nd001\tvalidation\n", "line 3: unknown split part 'validation'"),
}


@pytest.mark.parametrize("case", list(SPLIT_FILE_ERRORS))
def test_a_bad_split_file_fails_train_and_evaluate(ws, tmp_path, capsys, case):
    text, where = SPLIT_FILE_ERRORS[case]
    bad = tmp_path / "split.txt"
    bad.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    for argv in (
        ["train", "--in", ws.corpus, "--labels", ws.labels, "--split", str(bad), "--out", out],
        ["evaluate", "--gold", ws.labels, "--pred", ws.preds, "--split", str(bad), "--out", out],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: {where}\n" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["split.txt"]


# --- model commands ----------------------------------------------------------


def test_train_writes_loadable_model(ws):
    model = load_model(ws.model)
    assert model.space.config.mode == "word"
    assert model.seed == 0
    man = json.loads(open(ws.model + ".manifest.json", encoding="utf-8").read())
    assert man["command"] == "train"
    assert man["config"]["mode"] == "word"
    assert set(man["inputs"]) == {ws.corpus, ws.labels, ws.split}


def test_train_and_explain_read_text_one_way(ws, tmp_path):
    # training and explain always normalize: neither has a flag to skip it
    argv = ["train", "--in", ws.corpus, "--labels", ws.labels, "--split", ws.split, "--out", str(tmp_path / "m")]
    assert usage_error(argv + ["--no-normalize"]) == 1
    out = str(tmp_path / "ex.txt")
    assert usage_error(["explain", "--model", ws.model, "--text", "غبي", "--no-preprocess", "--out", out]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0"])
def test_train_rejects_bad_C_and_leaves_no_model(ws, tmp_path, capsys, c):
    out = tmp_path / "model.json"
    argv = ["train", "--in", ws.corpus, "--labels", ws.labels, "--split", ws.split]
    assert cli.main(argv + ["--out", str(out), f"--C={c}"]) == 2
    assert "C must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [("--char-ngrams", "2,x"), ("--word-ngrams", "3,2"), ("--char-ngrams", "2"), ("--word-ngrams", "0,1"),
     ("--char-ngrams", "1,2,3")],
)
def test_train_names_a_bad_ngram_flag_and_leaves_no_model(ws, tmp_path, capsys, flag, value):
    out = tmp_path / "model.json"
    argv = ["train", "--in", ws.corpus, "--labels", ws.labels, "--split", ws.split, "--out", str(out)]
    assert cli.main(argv + [flag, value]) == 2
    assert f"error: {flag} {value!r}: expected LO,HI with 1 <= LO <= HI" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_predict_output_format(ws):
    lines = open(ws.preds, encoding="utf-8").read().splitlines()
    assert lines[0] == "doc_id\tlabel\tscore"
    assert len(lines) == 121
    for ln in lines[1:3]:
        doc_id, label, score = ln.split("\t")
        assert label in ("0", "1")
        float(score)


def test_load_predictions_validation(tmp_path):
    good = tmp_path / "p.tsv"
    good.write_text("doc_id\tlabel\tscore\nd1\t1\t0.5\nd2\t0\t-0.5\n", encoding="utf-8")
    assert cli.load_predictions(str(good)) == {"d1": 1, "d2": 0}

    bad_header = tmp_path / "h.tsv"
    bad_header.write_text("id\tlabel\tscore\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        cli.load_predictions(str(bad_header))

    dup = tmp_path / "d.tsv"
    dup.write_text("doc_id\tlabel\tscore\nd1\t1\t0.5\nd1\t0\t0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        cli.load_predictions(str(dup))

    badlab = tmp_path / "b.tsv"
    badlab.write_text("doc_id\tlabel\tscore\nd1\t2\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="0/1"):
        cli.load_predictions(str(badlab))

    short = tmp_path / "s.tsv"
    short.write_text("doc_id\tlabel\tscore\nd1\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 columns"):
        cli.load_predictions(str(short))

    # only an empty line is skipped; one of spaces is a row
    spaces = tmp_path / "w.tsv"
    spaces.write_text("doc_id\tlabel\tscore\nd1\t1\t0.5\n  \n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3: expected 3 columns, got 1"):
        cli.load_predictions(str(spaces))


def test_evaluate_command(ws, tmp_path, capsys):
    full = tmp_path / "full.txt"
    assert cli.main(["evaluate", "--gold", ws.labels, "--pred", ws.preds, "--out", str(full)]) == 0
    assert full.read_text(encoding="utf-8").splitlines()[0] == "n\t120"
    assert capsys.readouterr().out == ""

    out = str(tmp_path / "eval.txt")
    rc = cli.main(
        ["evaluate", "--gold", ws.labels, "--pred", ws.preds, "--split", ws.split, "--part", "test", "--out", out]
    )
    assert rc == 0
    text = open(out, encoding="utf-8").read()
    assert text.splitlines()[0] == "n\t24"
    assert "macro_f1\t" in text


def test_split_errors_that_span_files_name_them(ws, tmp_path, capsys):
    split = tmp_path / "split.tsv"
    split.write_text("doc_id\tpart\nzz\ttrain\nd000\tdev\n", encoding="utf-8")
    out = str(tmp_path / "out")
    assert cli.main(["train", "--in", ws.corpus, "--labels", ws.labels, "--split", str(split), "--out", out]) == 2
    error = f"error: {ws.corpus}, {ws.labels}, {split}: train split matches no documents\n"
    assert error in capsys.readouterr().err
    argv = ["evaluate", "--gold", ws.labels, "--pred", ws.preds, "--split", str(split), "--part", "test", "--out", out]
    assert cli.main(argv) == 2
    assert f"error: {ws.labels}, {ws.preds}, {split}: no predictions to evaluate\n" in capsys.readouterr().err
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc_id\toffensive\thate_targets\tvulgar\tviolence\nzz\t1\t\t0\t0\n", encoding="utf-8")
    assert cli.main(["evaluate", "--gold", str(gold), "--pred", ws.preds, "--out", out]) == 2
    assert f"error: {gold}, {ws.preds}: predictions for unlabeled docs" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.tsv", "split.tsv"]


def test_explain_command_stdout(ws, tmp_path, capsys):
    out = tmp_path / "ex.txt"
    rc = cli.main(["explain", "--model", ws.model, "--text", "غبي", "--samples", "100", "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "token\tattribution" in text
    assert "غبي\t" in text
    # the explanation goes to --out, and nothing to stdout
    assert capsys.readouterr().out == ""
    assert json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))["command"] == "explain"


def test_explain_command_doc_id(ws, tmp_path, capsys):
    out = str(tmp_path / "ex.txt")
    rc = cli.main(
        ["explain", "--model", ws.model, "--in", ws.corpus, "--doc-id", "d000001", "--samples", "80", "--out", out]
    )
    assert rc == 0
    assert "token\tattribution" in open(out, encoding="utf-8").read()

    bad = str(tmp_path / "bad.txt")
    assert cli.main(["explain", "--model", ws.model, "--in", ws.corpus, "--doc-id", "zzz", "--out", bad]) == 2
    assert cli.main(["explain", "--model", ws.model, "--out", bad]) == 2
    assert not os.path.exists(bad)
    err = capsys.readouterr().err
    assert "error:" in err


def test_explain_text_and_in_exclude_each_other(ws, tmp_path, capsys):
    out = str(tmp_path / "ex.txt")
    argv = ["explain", "--model", ws.model, "--text", "غبي", "--in", ws.corpus, "--out", out]
    assert usage_error(argv) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert cli.main(["explain", "--model", ws.model, "--doc-id", "d000001", "--out", out]) == 2
    assert "explain needs --text, or --in with --doc-id" in capsys.readouterr().err
    # --doc-id names a doc of --in only: with --text it is refused, not ignored
    assert cli.main(["explain", "--model", ws.model, "--text", "غبي", "--doc-id", "d000001", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--doc-id" in err and "--text" in err
    assert list(tmp_path.iterdir()) == []


def test_explain_writes_the_top_ten_tokens(ws, tmp_path):
    out = tmp_path / "ex.txt"
    text = " ".join(f"w{i}" for i in range(12))
    argv = ["explain", "--model", ws.model, "--text", text, "--samples", "50", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = out.read_text(encoding="utf-8").split("token\tattribution\n")[1].splitlines()
    assert len(rows) == 10


def _edited_model(ws, tmp_path, edit) -> str:
    blob = json.loads(open(ws.model, encoding="utf-8").read())
    edit(blob)
    path = str(tmp_path / "edited.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, ensure_ascii=False)
    return path


def _floats(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def _b64(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _as_v1(blob):
    """The model as format v1 wrote it: decimal float lists, `normalized`, no solver certificate."""
    for key in ("idf", "weights", "objective_trace"):
        blob[key] = _floats(blob[key]).tolist()
    del blob["duality_gap"], blob["converged"]
    blob.update(format_version=1, normalized=True)


def _as_v2(blob):
    """The model as format v2 wrote it: no gram index."""
    del blob["index"]
    blob.update(format_version=2)


def _as_v3(blob):
    """The model in the shape format v3 wrote: a vocabulary beside the gram index, tied to it by a digest."""
    blob["index"]["digest"] = "0" * 64
    blob.update(format_version=3, vocabulary=[])


def _edit_word_level(field, n, change):
    """An edit that applies change to the array at level n of the word trie's keys or cols."""
    dtype = "<i8" if field == "keys" else "<i4"

    def edit(blob):
        levels = blob["index"]["word"][field]
        levels[n - 1] = features.b64(change(features.from_b64("", levels[n - 1], dtype).copy()), dtype)

    return edit


def _at(at, value):
    def change(a):
        a[at] = value
        return a

    return change


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: b.pop("idf"), "model file lacks idf"),
        (
            lambda b: b.update(weights=_b64(_floats(b["weights"])[:-50])),
            "bad model file: idf and weights disagree in length",
        ),
        (
            lambda b: b.update(weights=_b64(_floats(b["weights"])[:-1])),
            "bad model file: idf and weights disagree in length ({1} idf values, {2} weights)",
        ),
        (_as_v1, "unsupported model format version 1: retrain the model"),
        (_as_v2, "unsupported model format version 2: retrain the model"),
        (_as_v3, "unsupported model format version 3: retrain the model"),
        # word grams of 1 or 2 tokens: level-1 node 0 is the first token, whose unigram is column 0
        (_edit_word_level("cols", 1, _at(0, -1)), "bad model file: column 0 is held by 0 trie nodes, not 1"),
        (_edit_word_level("cols", 2, _at(0, 0)), "bad model file: column 0 is held by 2 trie nodes, not 1"),
        (lambda b: b["index"].pop("word"), "bad model file: index lacks the word trie"),
        (lambda b: b["index"].update(word=[]), "bad model file: index lacks the word trie"),
        (lambda b: b["index"]["word"].pop("tokens"), "bad model file: word trie lacks tokens"),
        (
            lambda b: b["index"]["word"]["keys"].__setitem__(0, "AAAA!AAA"),
            "bad model file: word trie keys 1 is not base64 text",
        ),
        (
            lambda b: b["index"]["word"]["keys"].__setitem__(1, base64.b64encode(bytes(12)).decode()),
            "bad model file: word trie keys 2 is 12 bytes, not a whole number of int64 values",
        ),
        (
            _edit_word_level("keys", 1, lambda a: a[::-1].copy()),
            "bad model file: word trie keys 1 are not strictly increasing up to 9223372036854775807, one per column",
        ),
        (
            _edit_word_level("keys", 2, lambda a: np.append(a, a[-1])),
            "bad model file: word trie keys 2 are not strictly increasing up to 9223372036854775807, one per column",
        ),
        (_edit_word_level("cols", 1, _at(0, 10**6)), "bad model file: word trie cols 1 are outside [-1, "),
        (
            lambda b: b["index"]["word"]["cols"].append(b["index"]["word"]["cols"][-1]),
            "bad model file: word trie does not hold 2 levels of keys and columns",
        ),
        # the last key below the sentinel, as the end code: still increasing
        (
            lambda b: _edit_word_level("keys", 1, _at(-2, b["index"]["word"]["end"]))(b),
            "bad model file: word trie keys 1 take in the end code",
        ),
        (
            lambda b: b["index"]["word"]["tokens"].__setitem__(1, b["index"]["word"]["tokens"][0]),
            "bad model file: word trie tokens are not ",
        ),
        (
            lambda b: b["index"]["word"]["tokens"].append(7),
            "bad model file: word trie tokens are not a list of strings",
        ),
        (
            lambda b: b["index"]["word"].update(end=b["index"]["word"]["end"] + 1),
            "bad model file: word trie tokens are not ",
        ),
        (
            lambda b: b["index"]["word"].update(end=True),
            "bad model file: word trie tokens are not True distinct strings",
        ),
        (lambda b: b.update(word_range=[1, 2.0]), "bad model file: bad n-gram range (1, 2.0)"),
        (lambda b: b.update(char_range=[True, 5]), "bad model file: bad n-gram range (True, 5)"),
        (lambda b: b.update(weights=None), "bad model file: weights is not base64 text"),
        (
            lambda b: b.update(weights=_b64([float("nan"), *_floats(b["weights"])[1:]])),
            "bad model file: weights holds a value that is not finite",
        ),
        (lambda b: b.update(idf=True), "bad model file: idf is not base64 text"),
        (lambda b: b.update(idf=json.dumps(_floats(b["idf"]).tolist())), "bad model file: idf is not base64 text"),
        (lambda b: b.update(objective_trace="12"), "bad model file: objective_trace is not base64 text"),
        (lambda b: b.update(weights=1.5), "bad model file: weights is not base64 text"),
        (lambda b: b.update(idf=_floats(b["idf"]).tolist()), "bad model file: idf is not base64 text"),
        (lambda b: b.update(weights=b["weights"][:8] + "!" + b["weights"][8:]), "bad model file: weights is not base64 text"),
        (lambda b: b.update(weights="\u0663" + b["weights"][1:]), "bad model file: weights is not base64 text"),
        (
            lambda b: b.update(idf=base64.b64encode(base64.b64decode(b["idf"]) + bytes(7)).decode()),
            "bad model file: idf is {} bytes, not a whole number of float64 values",
        ),
        (
            lambda b: b.update(idf=_b64([*_floats(b["idf"])[:-1], float("inf")])),
            "bad model file: idf holds a value that is not finite",
        ),
        (lambda b: b.update(target=7), "bad model file: unknown target 7"),
        (lambda b: b.update(bias=True), "bad model file: bias is not a finite number"),
        (lambda b: b.update(C="1"), "bad model file: C is not a finite number"),
        (lambda b: b.update(C=float("inf")), "bad model file: C is not a finite number"),
        (lambda b: b.update(duality_gap="0.1"), "bad model file: duality_gap is not a finite number"),
        (lambda b: b.update(converged="true"), "bad model file: converged is not true or false: 'true'"),
        (lambda b: b.update(seed=3.7), "bad model file: seed is not an integer: 3.7"),
        (lambda b: b.update(n_train_docs="84"), "bad model file: n_train_docs is not an integer: '84'"),
    ],
    ids=[
        "no_idf",
        "weights_cut_by_50",
        "weights_one_short",
        "v1_file",
        "v2_file",
        "v3_file",
        "col_held_by_none",
        "col_held_twice",
        "no_word_trie",
        "list_word_trie",
        "no_tokens",
        "bang_in_keys",
        "keys_of_12_bytes",
        "keys_reversed",
        "sentinel_twice",
        "col_past_the_grams",
        "three_levels_of_cols",
        "key_takes_in_end",
        "repeated_token",
        "int_token",
        "end_past_the_tokens",
        "bool_end",
        "float_bound",
        "bool_bound",
        "null_weight",
        "nan_weight",
        "bool_idf",
        "string_idf",
        "string_trace",
        "scalar_weights",
        "list_idf",
        "bang_in_weights",
        "non_ascii_weights",
        "idf_plus_7_bytes",
        "inf_idf",
        "int_target",
        "bool_bias",
        "string_C",
        "inf_C",
        "string_gap",
        "string_converged",
        "float_seed",
        "string_n_train_docs",
    ],
)
def test_predict_and_explain_reject_broken_model(ws, tmp_path, capsys, edit, message):
    model = _edited_model(ws, tmp_path, edit)
    n_grams = len(_floats(json.loads(Path(ws.model).read_text(encoding="utf-8"))["idf"]))
    message = message.format(8 * n_grams + 7, n_grams, n_grams - 1)
    preds = str(tmp_path / "preds.tsv")
    assert cli.main(["predict", "--model", model, "--in", ws.corpus, "--out", preds]) == 2
    out, err = capsys.readouterr()
    assert f"{model}: {message}" in err and out == "" and "Traceback" not in err
    assert not (tmp_path / "preds.tsv").exists() and not (tmp_path / "preds.tsv.manifest.json").exists()
    ex = str(tmp_path / "ex.txt")
    assert cli.main(["explain", "--model", model, "--text", "غبي", "--samples", "20", "--out", ex]) == 2
    out, err = capsys.readouterr()
    assert f"{model}: {message}" in err and out == "" and "Traceback" not in err
    assert not (tmp_path / "ex.txt").exists() and not (tmp_path / "ex.txt.manifest.json").exists()


def test_predict_and_explain_build_no_index(ws, tmp_path, monkeypatch):
    def no_build(*args):
        raise AssertionError("the gram index was built, not loaded")

    monkeypatch.setattr(features, "_trie", no_build)
    preds, ex = str(tmp_path / "preds.tsv"), str(tmp_path / "ex.txt")
    assert cli.main(["predict", "--model", ws.model, "--in", ws.corpus, "--out", preds]) == 0
    assert Path(preds).read_bytes() == Path(ws.preds).read_bytes()
    argv = ["explain", "--model", ws.model, "--text", "يا غبي جدا", "--samples", "50", "--out", ex]
    assert cli.main(argv) == 0


# JSON the decoder refuses with no JSONDecodeError: Python's digit limit for int(),
# and the decoder's recursion limit
UNDECODABLE_JSON = {
    "5000-digit integer": ('{"id": "d1", "n": ' + "7" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    "100000 nested arrays": ("[" * 100_000, "maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("body", list(UNDECODABLE_JSON), ids=list(UNDECODABLE_JSON))
def test_json_past_the_decoder_limits_names_its_file(ws, tmp_path, capsys, body):
    text, reason = UNDECODABLE_JSON[body]
    raw = tmp_path / "raw.jsonl"
    raw.write_text(f'{{"id": "d0", "text": "x", "created_at": "{TS}"}}\n{text}\n', encoding="utf-8")
    for stage in ("normalize", "collect"):
        assert cli.main([stage, "--in", str(raw), "--out", str(tmp_path / "out.jsonl")]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"anchorlex {stage}: error: {raw}: line 2: bad JSON: {reason}") and out == ""
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    for argv in (["predict", "--in", ws.corpus], ["explain", "--text", "غبي", "--samples", "20"]):
        assert cli.main([*argv, "--model", str(model), "--out", str(tmp_path / "out.tsv")]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"anchorlex {argv[0]}: error: {model}: not a JSON model file: {reason}") and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "raw.jsonl"]


def test_report_command(ws, tmp_path, capsys):
    lex = str(tmp_path / "lex.tsv")
    assert cli.main(["mine-lexicon", "--in", ws.corpus, "--labels", ws.labels, "--out", lex]) == 0
    capsys.readouterr()
    out = str(tmp_path / "report.txt")
    rc = cli.main(["report", "--corpus", ws.corpus, "--labels", ws.labels, "--out", out, "--lexicon", lex])
    assert rc == 0
    text = open(out, encoding="utf-8").read()
    assert "documents\t120" in text
    assert "offensive\t60\t50.00%" in text
    assert "[lexicon] lex.tsv" in text  # basename only, so report bytes are relocatable
    section = text.split("[lexicon] lex.tsv\n", 1)[1]
    assert section.splitlines()[0] == "term\tn_off\tn_cln\tvalence"
    assert len(section.splitlines()) <= 11


def test_report_excerpts_ten_rows_per_file(ws, tmp_path):
    table = tmp_path / "eval.tsv"
    table.write_text("row\n" + "".join(f"r{i}\n" for i in range(15)), encoding="utf-8")
    out = tmp_path / "report.txt"
    argv = ["report", "--corpus", ws.corpus, "--labels", ws.labels, "--out", str(out), "--eval", str(table)]
    assert cli.main(argv) == 0
    excerpt = out.read_text(encoding="utf-8").split("[eval] eval.tsv\n")[1]
    assert excerpt == "row\n" + "".join(f"r{i}\n" for i in range(10))


# the one-value settings that became constants: each flag is now unknown
REMOVED_OPTIONS = [
    ("dedup --in {corpus} --out {o}", "--min-tokens", "3"),
    ("dedup --in {corpus} --out {o}", "--shingle-size", "2"),
    ("dedup --in {corpus} --out {o}", "--jaccard", "0.8"),
    ("kappa --judgments {judgments} --out {o}", "--min-shared", "20"),
    ("kappa --judgments {judgments} --out {o}", "--job", "offensive"),
    ("explain --model {model} --text غبي --samples 20 --out {o}", "--kernel-width", "0.25"),
    ("explain --model {model} --text غبي --samples 20 --out {o}", "--top-k", "10"),
    ("report --corpus {corpus} --labels {labels} --out {o}", "--head", "10"),
    ("emoji-stats --in {corpus} --labels {labels} --out {o}", "--all-bases", None),
]


@pytest.mark.parametrize("argv, flag, value", REMOVED_OPTIONS, ids=[flag for _, flag, _ in REMOVED_OPTIONS])
def test_a_removed_option_is_a_usage_error(stage_inputs, tmp_path, capsys, argv, flag, value):
    f = dict(stage_inputs, o=str(tmp_path / "out"))
    args = [t.format(**f) for t in argv.split()]
    assert cli.main(args) == 0  # the stage runs without it
    for p in tmp_path.iterdir():
        p.unlink()
    capsys.readouterr()
    assert usage_error([*args, flag, *filter(None, [value])]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_manifest_flag_overrides_default_path(tmp_path):
    docs = [Document(id="d1", text="نص بسيط", created_at=TS)]
    inp, out = str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")
    man_path = str(tmp_path / "custom.manifest.json")
    write_corpus(inp, docs)
    assert cli.main(["normalize", "--in", inp, "--out", out, "--manifest", man_path]) == 0
    assert json.loads(open(man_path, encoding="utf-8").read())["command"] == "normalize"
    assert not (tmp_path / "out.jsonl.manifest.json").exists()


# --- the one-stage parser ------------------------------------------------------

STAGES = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _valid_argvs(stage: str) -> tuple[list[str], list[str]]:
    """argv with the stage's required flags only, and argv with every flag, each given a value of its type."""
    p = STAGES[stage]
    # one flag of a mutually exclusive group is enough
    left_out = {id(a) for g in p._mutually_exclusive_groups for a in g._group_actions[1:]}
    required, every = [stage], [stage]
    for a in p._actions:
        if not a.option_strings or a.dest == "help" or id(a) in left_out:
            continue
        words = [a.option_strings[0]]
        if a.nargs != 0:
            words.append(str(a.choices[-1]) if a.choices else {int: "3", float: "0.5"}.get(a.type, "f.tsv"))
        every += words
        required += words if a.required else []
    return required, every


def _parse(parser, argv, capsys):
    """vars(args) with the stage parser's help text, or the exit code and output of a parse that exits."""
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as e:
        out = capsys.readouterr()
        return e.code, out.out, out.err
    stage_parser = args.pop("_parser", None)
    return args, stage_parser and stage_parser.format_help()


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_one_stage_parser_parses_like_the_full_parser(stage, capsys):
    one = cli.build_parser(stage)
    subparsers = next(a for a in one._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == [stage]
    # only the called stage has arguments beyond -h
    assert [name for name, p in subparsers.items() if len(p._actions) > 1] == [stage]
    required, every = _valid_argvs(stage)
    cases = [required, every, [stage, "--help"], required[:-2], every + ["--no-such-flag"], [stage, "-x", "1"]]
    for argv in cases:
        got, want = _parse(one, argv, capsys), _parse(cli.build_parser(), argv, capsys)
        assert got == want, argv
    # the cases do what they say: every flag parses, and a missing required flag is a usage error
    assert isinstance(_parse(one, every, capsys)[0], dict)
    assert _parse(one, required[:-2], capsys)[0] == 1


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["no-such-stage"], ["--no-such-flag", "train"]])
def test_an_argv_that_names_no_stage_gets_the_full_parser(argv, capsys):
    got = _parse(cli.build_parser(argv[0] if argv else None), argv, capsys)
    assert got == _parse(cli.build_parser(), argv, capsys)
    code = usage_error(argv) if argv else cli.main(argv)
    assert code == (0 if argv in (["--help"], ["--version"]) else 1)


# --- run manifests -----------------------------------------------------------


@pytest.fixture(scope="module")
def stage_inputs(ws, tmp_path_factory):
    """ws's files plus one of every other kind a stage reads; a given seeds,
    classes or rules file is a copy of the bundled one, at another path."""
    root = tmp_path_factory.mktemp("stagein")
    f = {k: getattr(ws, k) for k in ("corpus", "labels", "split", "model", "preds")}
    bundled = {"seeds": SEEDS_PATH, "classes": CLASSES_PATH, "rules": RULES_PATH}
    for name, path in bundled.items():
        f[name], f[f"bundled_{name}"] = str(root / os.path.basename(path)), path
        Path(f[name]).write_bytes(Path(path).read_bytes())
    f.update(
        judgments=str(root / "judgments.tsv"),
        answers=str(root / "answers.tsv"),
        overrides=str(root / "overrides.tsv"),
        excerpt=str(root / "excerpt.tsv"),
    )
    _judgment_file(f["judgments"])
    Path(f["answers"]).write_text("doc_id\tlabel\nd000\t0\nd001\t1\n", encoding="utf-8")
    Path(f["overrides"]).write_text(
        "doc_id\tjob\tlabel\tagreement\toverride\nd000\toffensive\t0\tmajority\t1\n", encoding="utf-8"
    )
    Path(f["excerpt"]).write_text("col\tn\nx\t1\n", encoding="utf-8")
    return f


# argv, seed, input paths, output paths; {o}, {q} and {m} are fresh paths
MANIFEST_CONTRACT = [
    ("collect --in {corpus} --out {o}", None, ["{corpus}", "{bundled_seeds}"], ["{o}"]),
    ("collect --in {corpus} --out {o} --seeds {seeds}", None, ["{corpus}", "{seeds}"], ["{o}"]),
    ("dedup --in {corpus} --out {o}", None, ["{corpus}"], ["{o}", "{o}.dropped.tsv"]),
    ("dedup --in {corpus} --out {o} --dropped {q}", None, ["{corpus}"], ["{o}", "{q}"]),
    ("normalize --in {corpus} --out {o}", None, ["{corpus}"], ["{o}"]),
    ("split --labels {labels} --out {o} --seed 4", 4, ["{labels}"], ["{o}"]),
    ("mine-lexicon --in {corpus} --labels {labels} --out {o}", None, ["{corpus}", "{labels}"], ["{o}"]),
    (
        "emoji-stats --in {corpus} --labels {labels} --out {o}",
        None,
        ["{corpus}", "{labels}", "{bundled_seeds}"],
        ["{o}"],
    ),
    (
        "emoji-stats --in {corpus} --labels {labels} --out {o} --seeds {seeds}",
        None,
        ["{corpus}", "{labels}", "{seeds}"],
        ["{o}"],
    ),
    ("sample --in {corpus} --out {o}", 0, ["{corpus}", "{bundled_seeds}"], ["{o}"]),
    ("sample --in {corpus} --out {o} --seeds {seeds} --seed 9", 9, ["{corpus}", "{seeds}"], ["{o}"]),
    (
        "match-violence --in {corpus} --out {o}",
        None,
        ["{corpus}", "{bundled_classes}", "{bundled_rules}"],
        ["{o}"],
    ),
    (
        "match-violence --in {corpus} --out {o} --classes {classes}",
        None,
        ["{corpus}", "{classes}", "{bundled_rules}"],
        ["{o}"],
    ),
    (
        "match-violence --in {corpus} --out {o} --classes {classes} --rules {rules}",
        None,
        ["{corpus}", "{classes}", "{rules}"],
        ["{o}"],
    ),
    ("aggregate --judgments {judgments} --out {o}", None, ["{judgments}"], ["{o}"]),
    (
        "aggregate --judgments {judgments} --out {o} --queue {q} --overrides {overrides}",
        None,
        ["{judgments}", "{overrides}"],
        ["{o}", "{q}"],
    ),
    ("kappa --judgments {judgments} --out {o} --manifest {m}", None, ["{judgments}"], ["{o}"]),
    ("kappa --judgments {judgments} --out {o}", None, ["{judgments}"], ["{o}"]),
    ("gate --judgments {judgments} --answers {answers} --out {o}", None, ["{judgments}", "{answers}"], ["{o}"]),
    (
        "gate --judgments {judgments} --answers {answers} --out {o} --manifest {m}",
        None,
        ["{judgments}", "{answers}"],
        ["{o}"],
    ),
    (
        "train --in {corpus} --labels {labels} --split {split} --out {o} --mode word --seed 2",
        2,
        ["{corpus}", "{labels}", "{split}"],
        ["{o}"],
    ),
    ("predict --model {model} --in {corpus} --out {o}", None, ["{model}", "{corpus}"], ["{o}"]),
    ("evaluate --gold {labels} --pred {preds} --out {o} --manifest {m}", None, ["{labels}", "{preds}"], ["{o}"]),
    (
        "evaluate --gold {labels} --pred {preds} --split {split} --out {o}",
        None,
        ["{labels}", "{preds}", "{split}"],
        ["{o}"],
    ),
    ("explain --model {model} --text غبي --samples 20 --out {o} --manifest {m}", 0, ["{model}"], ["{o}"]),
    (
        "explain --model {model} --in {corpus} --doc-id d000001 --samples 20 --seed 5 --out {o}",
        5,
        ["{model}", "{corpus}"],
        ["{o}"],
    ),
    ("report --corpus {corpus} --labels {labels} --out {o}", None, ["{corpus}", "{labels}"], ["{o}"]),
    (
        "report --corpus {corpus} --labels {labels} --out {o} --stats {excerpt} --lexicon {seeds} --eval {rules}",
        None,
        ["{corpus}", "{labels}", "{excerpt}", "{seeds}", "{rules}"],
        ["{o}"],
    ),
]


@pytest.mark.parametrize(
    "argv, seed, inputs, outputs",
    MANIFEST_CONTRACT,
    ids=[f"{c[0].split()[0]}-{i}" for i, c in enumerate(MANIFEST_CONTRACT)],
)
def test_manifest_contract(stage_inputs, tmp_path, capsys, argv, seed, inputs, outputs):
    f = dict(stage_inputs, o=str(tmp_path / "out"), q=str(tmp_path / "second"), m=str(tmp_path / "run.json"))
    before = {p.format(**f): sha256_file(p.format(**f)) for p in inputs}
    assert cli.main([t.format(**f) for t in argv.split()]) == 0
    man_path = f["m"] if "--manifest" in argv else f["o"] + ".manifest.json"
    man = json.loads(open(man_path, encoding="utf-8").read())
    assert man["command"] == argv.split()[0]
    assert man["seed"] == seed
    assert man["inputs"] == before
    # each input is an argument, a default path included, so the config names it too
    assert set(before) <= set(man["config"].values())
    assert man["outputs"] == {p.format(**f): sha256_file(p.format(**f)) for p in outputs}
    assert "manifest" not in man["config"] and "func" not in man["config"]
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {os.path.basename(p.format(**f)) for p in outputs} | {os.path.basename(man_path)}


def test_manifest_records_input_digest_from_before_the_run(tmp_path):
    path = str(tmp_path / "docs.jsonl")
    write_corpus(path, [Document(id="d1", text="يَا أخي @someone", created_at=TS)])
    before = sha256_file(path)
    assert cli.main(["normalize", "--in", path, "--out", path]) == 0
    after = sha256_file(path)
    assert after != before
    man = json.loads(open(path + ".manifest.json", encoding="utf-8").read())
    assert man["inputs"] == {path: before}
    assert man["outputs"] == {path: after}


@pytest.mark.parametrize("stage", ["collect", "normalize"])
@pytest.mark.parametrize("bad", ["2021-02-30T00:00:00Z", "0001-01-01T00:00:00+01:00"])
def test_bad_timestamp_on_the_last_line_fails_cleanly(tmp_path, capsys, stage, bad):
    raw = tmp_path / "raw.jsonl"
    write_corpus(str(raw), [Document(id=f"d{i}", text="خنزير \U0001F437", created_at=TS) for i in range(3)])
    with raw.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "d3", "text": "خنزير \U0001F437", "created_at": bad}) + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main([stage, "--in", str(raw), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{raw}: line 4: bad timestamp {bad!r}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.jsonl"]


def test_failed_kappa_writes_no_output_and_no_manifest(tmp_path, capsys):
    jpath = tmp_path / "judgments.tsv"
    jpath.write_text("doc_id\tannotator_id\n", encoding="utf-8")
    man = tmp_path / "run.manifest.json"
    out = tmp_path / "kappa.txt"
    assert cli.main(["kappa", "--judgments", str(jpath), "--out", str(out), "--manifest", str(man)]) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["judgments.tsv"]


def test_an_input_that_is_not_a_regular_file_exits_2_before_the_stage(tmp_path, capsys):
    # hashing a pipe drains it, so the stage would read it empty; a pipe, not a FIFO,
    # since opening a FIFO with no writer blocks
    jpath = str(tmp_path / "j.tsv")
    _judgment_file(jpath)
    r, w = os.pipe()
    try:
        os.write(w, b"doc_id\tlabel\nd000\t0\n")
        os.close(w)
        answers = f"/dev/fd/{r}"
        out = tmp_path / "gate.tsv"
        assert cli.main(["gate", "--judgments", jpath, "--answers", answers, "--out", str(out)]) == 2
    finally:
        os.close(r)
    captured = capsys.readouterr()
    error = f"error: {answers}: not a regular file: the run manifest hashes each input before the stage reads it\n"
    assert error in captured.err
    assert captured.out == "" and "annotators pass" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.tsv"]


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_every_stage_requires_out(stage):
    # so every stage writes a file and its manifest; none writes its result to stdout
    (out,) = [a for a in STAGES[stage]._actions if "--out" in a.option_strings]
    assert out.required


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["explain", "--model", "{model}", "--text", "\udcff يا غبي", "--samples", "20", "--out", "{o}"], "--text"),
        (["explain", "--model", "{model}", "--text", "غبي", "--samples", "20", "--out", "{o}\udcff"], "--out"),
        (["collect", "--in", "{corpus}", "--out", "{o}", "--seeds", "\ud83d"], "--seeds"),
    ],
)
def test_argument_the_manifest_cannot_hold_fails_before_the_stage(stage_inputs, tmp_path, capsys, argv, flag):
    # an undecodable argv byte arrives as a lone surrogate
    f = dict(stage_inputs, o=str(tmp_path / "out"))
    args = [t.format(**f) for t in argv]
    assert cli.main(args) == 2
    value = args[args.index(flag) + 1]
    assert capsys.readouterr().err == f"anchorlex {args[0]}: error: {flag} is not valid UTF-8: {value!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_manifest_path_is_a_file_name_not_a_recorded_argument(stage_inputs, tmp_path):
    man = str(tmp_path / "run\udcff.json")
    argv = ["predict", "--model", stage_inputs["model"], "--in", stage_inputs["corpus"], "--out", str(tmp_path / "p")]
    assert cli.main([*argv, "--manifest", man]) == 0
    assert json.loads(Path(man).read_text(encoding="utf-8"))["command"] == "predict"
