#!/usr/bin/env python3
"""Time features.fit_transform and linear.fit_svm on anchored synthetic train sets.

Each size is a train split of `synth.make_anchored_corpus` (every doc
carries a seed emoji, 70/10/20 stratified split), featurized with the
CLI's default char+word tf-idf features by `fit_transform`, as `train`
does. The script prints, per size, the median of the
featurization times (`features_s`) and of the fit times (`fit_s`), the
time per SMO pair step (`us_per_step`), the epochs, the duality gap, and
the memory one fit allocates at its peak (`fit_peak_mb`), after a line
naming nproc and the Python and numpy versions.

`fit_peak_mb` is the tracemalloc peak of one more, untimed fit, counted
from zero when it starts: it depends on that fit alone, not on what
earlier sizes or repeats left resident in the process. numpy reports its
array buffers to tracemalloc, so they are in it.

`us_per_step` is fit_s / (epochs x n_train) in microseconds. It charges
the set-up, the kernel-row gathers and the epoch-end objectives to the
steps, so over full epochs it is an upper bound on the cost of one step.
A final epoch cut short by convergence runs fewer than n_train steps, and
then the figure can understate that cost; the `converged` column says
when.

    PYTHONPATH=src python3 scripts/bench_fit.py [--sizes 700,1400] [--repeats 5]

The default sizes end past the row budget of fit_svm's kernel-row block
(`linear.KERNEL_CACHE_BYTES`): at 4,000 training docs not every row fits.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
import tracemalloc
from functools import partial

import numpy as np

from anchorlex.corpus import stratified_split
from anchorlex.features import FeatureConfig, fit_transform
from anchorlex.linear import fit_svm
from anchorlex.synth import make_anchored_corpus
from anchorlex.textnorm import normalize


def train_texts(n_train: int, seed: int) -> tuple[list[str], list[int]]:
    """Normalized texts and labels of a train split of about n_train docs."""
    docs, labels = make_anchored_corpus(n_docs=round(n_train / 0.7), seed=seed, emoji_rate=1.0)
    split = stratified_split(labels, seed=seed)
    train = [d for d in docs if d.id in split.train]
    return [normalize(d.text) for d in train], [int(labels[d.id].offensive) for d in train]


def median_time(fn, repeats: int):
    """fn's result and the median of `repeats` timed calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def peak_mb(fn) -> float:
    """Peak memory traced during one call to fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="700,1400,2800,4000", help="comma-separated train-set sizes")
    ap.add_argument("--repeats", type=int, default=5, help="timed calls per size and step; the medians are printed")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.repeats < 1 or not sizes or min(sizes) < 2:
        ap.error("need --repeats >= 1 and sizes >= 2")

    print(
        f"nproc {os.cpu_count()}  python {platform.python_version()}  numpy {np.__version__}"
        f"  seed {args.seed}  repeats {args.repeats}"
    )
    print(
        "n_train\tn_features\tnnz\tfeatures_s\tfit_s\tus_per_step\tepochs\tconverged\tobjective"
        "\tduality_gap\tfit_peak_mb"
    )
    for size in sizes:
        texts, y = train_texts(size, args.seed)
        (space, X), features_s = median_time(partial(fit_transform, texts, FeatureConfig()), args.repeats)
        fit = partial(fit_svm, X, y, space.n_features)
        res, fit_s = median_time(fit, args.repeats)
        print(
            f"{len(texts)}\t{space.n_features}\t{len(X[2])}\t{features_s:.3f}\t{fit_s:.3f}"
            f"\t{fit_s / (res.n_epochs * len(texts)) * 1e6:.1f}\t{res.n_epochs}\t{int(res.converged)}"
            f"\t{res.objective:.12g}\t{res.duality_gap:.3g}"
            f"\t{peak_mb(fit):.1f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
