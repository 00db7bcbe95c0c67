"""Stages that need no model start without numpy.

Each stage runs as `python -X importtime -m anchorlex.cli STAGE ...` in a
child process, as a user runs it. The import-time log on stderr names
every module the process imported, so numpy is in `sys.modules` at the
end of the stage exactly when the log names it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anchorlex.annotation import MIN_SHARED

SRC = str(Path(__file__).resolve().parents[1] / "src")
TS = "2021-05-01T12:00:00Z"

# each stage that needs no model, on the tiny inputs of `inputs`
STAGES = {
    "collect": "--in docs.jsonl --out o.jsonl",
    "dedup": "--in docs.jsonl --out o.jsonl",
    "normalize": "--in docs.jsonl --out o.jsonl",
    "split": "--labels labels.tsv --out o.txt",
    "mine-lexicon": "--in docs.jsonl --labels labels.tsv --out o.tsv --min-freq 1",
    "emoji-stats": "--in docs.jsonl --labels labels.tsv --out o.tsv",
    "sample": "--in docs.jsonl --out o.tsv",
    "match-violence": "--in docs.jsonl --out o.tsv",
    "aggregate": "--judgments judgments.tsv --out o.tsv --queue q.tsv",
    "kappa": "--judgments judgments.tsv --out o.tsv",
    "gate": "--judgments judgments.tsv --answers answers.tsv --out o.tsv",
    "evaluate": "--gold labels.tsv --pred preds.tsv --split split.tsv --out o.tsv",
    "report": "--corpus docs.jsonl --labels labels.tsv --out o.txt",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("startup")
    n = MIN_SHARED + 4  # enough shared items for one annotator pair's kappa
    ids = [f"d{i:03d}" for i in range(n)]
    texts = ["يا كلب يا حقير \U0001F437", "سأقتلك يا وغد \U0001F52A", "صباح الخير جميعا", "الجو جميل اليوم"]
    docs = [{"id": d, "text": f"{texts[i % 4]} {i}", "created_at": TS} for i, d in enumerate(ids)]
    (root / "docs.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    offensive = ["1" if i % 4 < 2 else "0" for i in range(n)]
    (root / "labels.tsv").write_text(
        "doc_id\toffensive\thate_targets\tvulgar\tviolence\n"
        + "".join(f"{d}\t{o}\t\t0\t0\n" for d, o in zip(ids, offensive)),
        encoding="utf-8",
    )
    (root / "judgments.tsv").write_text(
        "doc_id\tannotator_id\tjob\tlabel\ttimestamp\n"
        + "".join(
            f"{d}\t{a}\toffensive\t{'1' if (o == '1') != (a == 'a3' and i % 8 == 0) else '0'}\t{TS}\n"
            for i, (d, o) in enumerate(zip(ids, offensive))
            for a in ("a1", "a2", "a3")
        ),
        encoding="utf-8",
    )
    (root / "answers.tsv").write_text("doc_id\tlabel\nd000\t1\nd002\t0\n", encoding="utf-8")
    (root / "preds.tsv").write_text(
        "doc_id\tlabel\tscore\n" + "".join(f"{d}\t{o}\t0.5\n" for d, o in zip(ids, offensive)), encoding="utf-8"
    )
    (root / "split.tsv").write_text(
        "doc_id\tpart\n" + "".join(f"{d}\t{'train' if i < 16 else 'test'}\n" for i, d in enumerate(ids)),
        encoding="utf-8",
    )
    return root


def _imported(inputs: Path, argv: list[str]) -> set[str]:
    """The modules a `python -m anchorlex.cli` process imports to run argv; the stage must succeed."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "anchorlex.cli", *argv],
        cwd=inputs,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    log = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    assert done.returncode == 0, "\n".join(line for line in done.stderr.splitlines() if line not in log)
    return {line.rsplit("|", 1)[1].strip() for line in log}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stage_that_needs_no_model_does_not_import_numpy(inputs, stage):
    imported = _imported(inputs, [stage, *STAGES[stage].split()])
    assert {"anchorlex", "anchorlex.corpus"} <= imported  # the log is read right
    assert "numpy" not in imported


def test_train_imports_numpy(inputs):
    argv = "train --in docs.jsonl --labels labels.tsv --split split.tsv --out model.json --mode word"
    assert "numpy" in _imported(inputs, argv.split())
