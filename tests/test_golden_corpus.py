"""The `corpus` workload's data files are byte-identical to the committed record.

The corpus stages do their arithmetic in Python floats and print them
with fixed precision, so the bytes should not depend on the host. When
the Python or numpy version differs from the record's, the test still
compares every digest; a failure then names both hosts, so a changed
byte is never passed over, only explained.
"""

from __future__ import annotations

import json

from golden_corpus import RECORD, SEED, host, run_digests


def test_corpus_stage_outputs_match_the_golden_record(tmp_path):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert record["seed"] == SEED
    got = run_digests(str(tmp_path))
    changed = sorted(
        name for name in record["files"].keys() | got.keys()
        if record["files"].get(name) != got.get(name)
    )
    recorded_host = {k: record[k] for k in ("python", "numpy")}
    assert changed == [], (
        f"data files differ from {RECORD.name}: {changed}"
        f" (record made on {recorded_host}, this host {host()})"
    )
