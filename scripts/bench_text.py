#!/usr/bin/env python3
"""Time the text layer and the scorer per document on seeded synthetic corpora.

Each size is a raw stream from `synth.make_anchored_corpus` (5% of docs
carry an emoji). The script prints, per size, the median over the
repeats of the microseconds per doc spent in `load_corpus` on that
stream, written once with `write_corpus` to a temporary file, in `normalize`,
`cluster_spans` and `doc_bases` on the raw texts, and in `tokenize` on
the normalized texts (as `dedup` calls it), after a line naming nproc
and the Python and numpy versions. `normalize_passes` is the mean
number of `_once` passes `normalize` makes per raw doc, counted by
wrapping that function for one pass over the texts. This corpus holds
no `@` and no URL, so the substring guards of the URL and mention subs
always skip them here; the perfbench `corpus` workload, whose raw docs
hold both, is where those guards are measured. The scorer layer uses
a model trained on the corpus' first 2,000 docs: microseconds per doc of
`predict_texts` on all raw texts (what `predict` does: normalize, then
`score_texts`), and per sample of
one 1,000-sample `explain` of the first doc with at least 6 tokens,
which includes the gram index of the space cut to that doc's characters
that every `explain` call builds. `load_ms` and `index_ms` are the fixed
cost a `predict` process pays before its first block: `load_model` of
the saved model alone, then the first `score_texts` of that short doc
on the loaded model, which builds the full gram index. An `explain`
process pays `load_ms` and not `index_ms`.
`parse_ms`, the fixed cost of every stage call before that, is the
median over 100 times the repeats of `cli.build_parser` and
`parse_args` on one `explain --text` argv for that doc.

    PYTHONPATH=src python3 scripts/bench_text.py [--sizes 10000,100000] [--repeats 5]
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import tempfile
import time
from typing import Callable

import numpy as np

from anchorlex import cli, textnorm
from anchorlex.corpus import DatasetSplit, Document, load_corpus, write_corpus
from anchorlex.emoji import cluster_spans, doc_bases
from anchorlex.explain import explain
from anchorlex.linear import LinearModel, load_model, predict_texts, save_model, score_texts, train_model
from anchorlex.synth import make_anchored_corpus
from anchorlex.textnorm import normalize, tokenize

TRAIN_DOCS = 2000
EXPLAIN_SAMPLES = 1000


def median_s(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def us_per_doc(fn: Callable[[str], object], texts: list[str], repeats: int) -> float:
    def run() -> None:
        for t in texts:
            fn(t)

    return 1e6 * median_s(run, repeats) / len(texts)


def load_us(docs: list[Document], repeats: int) -> float:
    """Median microseconds per doc of `load_corpus` on docs, written once with `write_corpus`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "raw.jsonl")
        write_corpus(path, docs)
        return 1e6 * median_s(lambda: load_corpus(path), repeats) / len(docs)


def normalize_passes(texts: list[str]) -> float:
    """Mean `_once` calls per text of `normalize`, counted through a wrapper patched in for one pass."""
    once, calls = textnorm._once, 0

    def counted(s: str) -> str:
        nonlocal calls
        calls += 1
        return once(s)

    textnorm._once = counted
    try:
        for t in texts:
            normalize(t)
    finally:
        textnorm._once = once
    return calls / len(texts)


def load_and_index_ms(model: LinearModel, text: str, repeats: int) -> tuple[float, float]:
    """Median milliseconds of `load_model` on the saved model, and of the first `score_texts` of text after it."""
    load, index = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model)
        for _ in range(repeats):
            t0 = time.perf_counter()
            loaded = load_model(path)
            t1 = time.perf_counter()
            score_texts(loaded, [text])
            load.append(t1 - t0)
            index.append(time.perf_counter() - t1)
    return 1e3 * statistics.median(load), 1e3 * statistics.median(index)


def parse_ms(text: str, seed: int, repeats: int) -> float:
    """Median milliseconds to build the parser of one `explain` call and parse its argv."""
    argv = ["explain", "--model", "model.json", "--text", text, "--seed", str(seed), "--out", "explain.txt"]
    return 1e3 * median_s(lambda: cli.build_parser(argv[0]).parse_args(argv), 100 * repeats)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="10000,100000", help="comma-separated corpus sizes")
    ap.add_argument("--repeats", type=int, default=5, help="passes per function; the median is printed")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.repeats < 1 or not sizes or min(sizes) < TRAIN_DOCS:
        ap.error(f"need --repeats >= 1 and sizes >= {TRAIN_DOCS}")

    print(
        f"nproc {os.cpu_count()}  python {platform.python_version()}  numpy {np.__version__}"
        f"  seed {args.seed}  repeats {args.repeats}"
    )
    print(
        "n_docs\tload_us\tnormalize_us\tnormalize_passes\tcluster_spans_us\ttokenize_us\tdoc_bases_us"
        "\tpredict_us\texplain_us_per_sample\tload_ms\tindex_ms\tparse_ms"
    )
    for size in sizes:
        docs, labels = make_anchored_corpus(n_docs=size, seed=args.seed)
        raw = [d.text for d in docs]
        norm = [normalize(t) for t in raw]
        train = frozenset(d.id for d in docs[:TRAIN_DOCS])
        model = train_model(docs, labels, DatasetSplit(train, frozenset(), frozenset()))
        request = next(t for t in raw if len(tokenize(t)) >= 6)
        cols = [
            load_us(docs, args.repeats),
            us_per_doc(normalize, raw, args.repeats),
            normalize_passes(raw),
            us_per_doc(cluster_spans, raw, args.repeats),
            us_per_doc(tokenize, norm, args.repeats),
            us_per_doc(doc_bases, raw, args.repeats),
            1e6 * median_s(lambda: predict_texts(model, raw), args.repeats) / len(raw),
            1e6
            * median_s(lambda: explain(request, model, n_samples=EXPLAIN_SAMPLES, seed=args.seed), args.repeats)
            / EXPLAIN_SAMPLES,
            *load_and_index_ms(model, request, args.repeats),
            parse_ms(request, args.seed, args.repeats),
        ]
        print(f"{size}\t" + "\t".join(f"{c:.2f}" for c in cols), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
