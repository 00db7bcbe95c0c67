"""The `score` workload's data files are byte-identical to the committed record.

model.json, preds.tsv and the explanations are the output of numpy
float arithmetic, so the bytes may depend on the numpy version or the
libm. The test compares every digest on every host; a failure names
both hosts, so a changed byte is never passed over, only explained.
"""

from __future__ import annotations

import json

import pytest

from anchorlex.corpus import load_corpus
from golden_model import BY_DOC_ID, RECORD, SEED, run_digests
from golden_corpus import mismatch, run_stage


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The record's run: its directory and its digests."""
    work = tmp_path_factory.mktemp("golden_model")
    return work, run_digests(str(work))


def test_model_stage_outputs_match_the_golden_record(run):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert record["seed"] == SEED
    problem = mismatch(record, run[1], RECORD.name)
    assert problem is None, problem


def test_explain_by_doc_id_writes_the_bytes_of_explain_by_text(run, tmp_path):
    work = run[0]
    doc = load_corpus(str(work / "fresh.jsonl"))[0]
    out = tmp_path / "by_text.txt"
    run_stage(["explain", "--model", str(work / "model.json"), "--text", doc.text, "--seed", str(SEED),
               "--out", str(out)])
    assert out.read_bytes() == (work / BY_DOC_ID).read_bytes()
