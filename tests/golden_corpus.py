"""Golden record of the `corpus` benchmark workload's data files.

Runs the workload's 11 stages (collect, normalize, dedup, mine-lexicon,
emoji-stats, sample, match-violence, aggregate --queue, kappa, gate and
report) on ``perfbench/gen.py``'s ``make_corpus_inputs`` at one seed.
Then it adjudicates the first rows of the queue (``write_overrides``)
and runs aggregate again with --overrides, a path the workload does
not take. It takes the sha256 of every data file: the 4 generated
inputs, the 13 stage outputs, overrides.tsv and adjudicated_labels.tsv.
Run manifests hold times and paths, so they are left out.

Regenerate the record after a change that alters an output byte on
purpose, and list each changed file with the reason in CHANGES.md:

    PYTHONPATH=src python tests/golden_corpus.py --write

Without --write the script prints the record it would write.
`golden_model.py` builds the model stages' record with the helpers
here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable

import numpy

from anchorlex import cli

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).resolve().parent / "golden_corpus.json"
SEED = 7


def load_gen():
    """perfbench/gen.py, imported read-only without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _stages(seed: int, p) -> list[list[str]]:
    """The `corpus` workload's stage calls, as in perfbench/workloads.py."""
    return [
        ["collect", "--in", p("raw.jsonl"), "--out", p("anchored.jsonl")],
        ["normalize", "--in", p("raw.jsonl"), "--out", p("normalized.jsonl")],
        ["dedup", "--in", p("anchored.jsonl"), "--out", p("deduped.jsonl"),
         "--dropped", p("dropped.tsv")],
        ["mine-lexicon", "--in", p("deduped.jsonl"), "--labels", p("gold_labels.tsv"),
         "--out", p("lexicon.tsv"), "--min-freq", "3"],
        ["emoji-stats", "--in", p("deduped.jsonl"), "--labels", p("gold_labels.tsv"),
         "--out", p("emoji_stats.tsv")],
        ["sample", "--in", p("deduped.jsonl"), "--out", p("samples.tsv"),
         "--k", "5", "--seed", str(seed)],
        ["match-violence", "--in", p("deduped.jsonl"), "--out", p("violence.tsv")],
        ["aggregate", "--judgments", p("judgments.tsv"), "--out", p("labels.tsv"),
         "--queue", p("queue.tsv")],
        ["kappa", "--judgments", p("judgments.tsv"), "--out", p("kappa.tsv")],
        ["gate", "--judgments", p("judgments.tsv"), "--answers", p("gate_answers.tsv"),
         "--out", p("gate.tsv")],
        ["report", "--corpus", p("deduped.jsonl"), "--labels", p("labels.tsv"),
         "--stats", p("emoji_stats.tsv"), "--lexicon", p("lexicon.tsv"),
         "--out", p("report.txt")],
    ]


# an adjudicator's answer against a queue item's majority label; any hate target becomes "none"
OVERRIDE = {"0": "1", "1": "0", "none": "religion"}


def write_overrides(queue: str, out: str) -> None:
    """The queue's header and first 5 items, each with its override column filled."""
    header, *items = Path(queue).read_text(encoding="utf-8").splitlines()
    # a queue row ends in the empty override column
    filled = [item + OVERRIDE.get(item.split("\t")[2], "none") for item in items[:5]]
    Path(out).write_text("\n".join([header, *filled]) + "\n", encoding="utf-8")


def run_stage(argv: list[str]) -> None:
    """One cli stage with its output captured; a non-zero exit raises with that output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited {rc}: {buf.getvalue()}")


def digests(work: str) -> dict[str, str]:
    """file -> sha256 of every data file in `work`, manifests aside."""
    return {
        name: hashlib.sha256((Path(work) / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(work))
        if not name.endswith(".manifest.json")
    }


def run_digests(work: str, seed: int = SEED) -> dict[str, str]:
    """Generate the inputs in `work`, run every stage, return file -> sha256."""
    gen = load_gen()
    gen.make_corpus_inputs(seed, work, str(Path(cli.__file__).parent / "data"))
    def p(name: str) -> str:
        return os.path.join(work, name)

    for argv in _stages(seed, p):
        run_stage(argv)
    write_overrides(p("queue.tsv"), p("overrides.tsv"))
    run_stage(["aggregate", "--judgments", p("judgments.tsv"), "--overrides", p("overrides.tsv"),
               "--out", p("adjudicated_labels.tsv")])
    return digests(work)


def host() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def mismatch(record: dict, got: dict[str, str], name: str) -> str | None:
    """None when every digest matches the record, else which files differ and on which hosts."""
    changed = sorted(
        f for f in record["files"].keys() | got.keys() if record["files"].get(f) != got.get(f)
    )
    if not changed:
        return None
    recorded_host = {k: record[k] for k in ("python", "numpy")}
    return f"data files differ from {name}: {changed} (record made on {recorded_host}, this host {host()})"


def write_or_print(
    argv: list[str] | None, doc: str, record_path: Path, seed: int, run: Callable[[str], dict[str, str]]
) -> int:
    """The command line of a golden-record script: print the record, or write it with --write."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"write {record_path.name}")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        record = {**host(), "seed": seed, "files": run(work)}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.write:
        record_path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    return write_or_print(argv, __doc__, RECORD, SEED, run_digests)


if __name__ == "__main__":
    sys.exit(main())
