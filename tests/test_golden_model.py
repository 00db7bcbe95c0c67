"""The `score` workload's data files are byte-identical to the committed record.

model.json, preds.tsv and the explanations are the output of numpy
float arithmetic, so the bytes may depend on the numpy version or the
libm. The test compares every digest on every host; a failure names
both hosts, so a changed byte is never passed over, only explained.
On one host the bytes must not depend on the BLAS kernel OpenBLAS
picks for the CPU either: child processes rerun the record under other
kernels, chosen with OPENBLAS_CORETYPE.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS picks its kernel at run time, so OPENBLAS_CORETYPE can pick another."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch(), reason="numpy's OpenBLAS is not DYNAMIC_ARCH, so no other kernel can be chosen")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_golden_record_does_not_depend_on_the_blas_kernel(coretype):
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, str(tests / "golden_model.py")], env=env, capture_output=True, text=True, check=True
    )
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    problem = mismatch(record, json.loads(child.stdout)["files"], RECORD.name)
    assert problem is None, f"OPENBLAS_CORETYPE={coretype}: {problem}"
