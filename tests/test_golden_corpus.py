"""The `corpus` workload's data files are byte-identical to the committed record.

The corpus stages do their arithmetic in Python floats and print them
with fixed precision, so the bytes should not depend on the host. When
the Python or numpy version differs from the record's, the test still
compares every digest; a failure then names both hosts, so a changed
byte is never passed over, only explained.

The stages run in a child process whose PYTHONHASHSEED differs from
this one's, so an output that follows set or dict-of-str iteration
order under one hash seed fails here under another.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from golden_corpus import RECORD, ROOT, SEED, mismatch


def test_corpus_stage_outputs_match_the_golden_record():
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert record["seed"] == SEED
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    }
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "golden_corpus.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    problem = mismatch(record, json.loads(run.stdout)["files"], f"{RECORD.name} (PYTHONHASHSEED={hash_seed})")
    assert problem is None, problem
