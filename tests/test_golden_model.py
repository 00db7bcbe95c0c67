"""The `score` workload's data files are byte-identical to the committed record.

model.json, preds.tsv and the explanations are the output of numpy
float arithmetic, so the bytes may depend on the numpy version or the
libm. The test compares every digest on every host; a failure names
both hosts, so a changed byte is never passed over, only explained.
"""

from __future__ import annotations

import json

from golden_model import RECORD, SEED, run_digests
from golden_corpus import mismatch


def test_model_stage_outputs_match_the_golden_record(tmp_path):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert record["seed"] == SEED
    problem = mismatch(record, run_digests(str(tmp_path)), RECORD.name)
    assert problem is None, problem
