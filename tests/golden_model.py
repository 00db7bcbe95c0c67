"""Golden record of the `score` benchmark workload's data files.

Runs the workload's set-up and stages on ``perfbench/gen.py``'s inputs
at one seed: ``make_train_inputs``, then split and train, then
``make_score_inputs``, predict, evaluate and the 10 explain requests.
One more explain request names the first fresh doc by --in and
--doc-id, a path the workload does not take. It takes the sha256 of
every data file: the 4 generated inputs, split.tsv, model.json,
preds.tsv, eval.txt and the explain_*.txt files. Run manifests hold
times and paths, so they are left out.

model.json, preds.tsv and the explanations hold floats that another
numpy or libm could round differently; the test compares every digest
on every host and names both hosts when one differs.

Regenerate the record after a change that alters an output byte on
purpose, and list each changed file with the reason in CHANGES.md:

    PYTHONPATH=src python tests/golden_model.py --write

Without --write the script prints the record it would write.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from anchorlex.corpus import load_corpus
from golden_corpus import digests, load_gen, run_stage, write_or_print

RECORD = Path(__file__).resolve().parent / "golden_model.json"
SEED = 7
# the explanation of the first fresh doc, requested by its id
BY_DOC_ID = "explain_doc.txt"


def run_digests(work: str, seed: int = SEED) -> dict[str, str]:
    """Generate the inputs in `work`, run every stage as perfbench/workloads.py does, return file -> sha256."""
    gen = load_gen()

    def p(name: str) -> str:
        return os.path.join(work, name)

    gen.make_train_inputs(seed, work)
    run_stage(["split", "--labels", p("train_labels.tsv"), "--out", p("split.tsv"), "--seed", str(seed)])
    run_stage(["train", "--in", p("train.jsonl"), "--labels", p("train_labels.tsv"),
               "--split", p("split.tsv"), "--out", p("model.json"), "--seed", str(seed)])
    truth, _ = gen.make_score_inputs(seed, work)
    run_stage(["predict", "--model", p("model.json"), "--in", p("fresh.jsonl"), "--out", p("preds.tsv")])
    run_stage(["evaluate", "--gold", p("fresh_labels.tsv"), "--pred", p("preds.tsv"), "--out", p("eval.txt")])
    for k, text in enumerate(truth.explain_texts):
        run_stage(["explain", "--model", p("model.json"), "--text", text, "--seed", str(seed),
                   "--out", p(f"explain_{k:03d}.txt")])
    doc_id = load_corpus(p("fresh.jsonl"))[0].id
    run_stage(["explain", "--model", p("model.json"), "--in", p("fresh.jsonl"), "--doc-id", doc_id,
               "--seed", str(seed), "--out", p(BY_DOC_ID)])
    return digests(work)


def main(argv: list[str] | None = None) -> int:
    return write_or_print(argv, __doc__, RECORD, SEED, run_digests)


if __name__ == "__main__":
    sys.exit(main())
