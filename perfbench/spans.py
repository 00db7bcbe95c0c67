"""Spans around calls into anchorlex's public functions, recorded from outside.

`Tracer.install` replaces each listed function at every module binding
that refers to it (``from .emoji import cluster_spans`` makes a second
binding in ``textnorm``; the package ``__init__`` re-exports more), so
calls are caught whichever name the caller used. `uninstall` puts the
originals back. Spans are kept in memory as (name, start, end, parent)
and written out once, when the run ends; tiny hot calls only count.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

# module -> public functions that get a span
SPANNED = {
    "corpus": ("load_corpus", "write_corpus", "load_labels"),
    "textnorm": ("normalize", "tokenize", "char_ngrams", "word_ngrams", "dedup"),
    "emoji": ("cluster_spans", "filter_by_seeds", "emoji_stats", "sample_per_emoji"),
    "annotation": (
        "load_judgments",
        "majority_vote",
        "aggregate_to_labels",
        "avg_pairwise_kappa",
        "gate_all",
    ),
    "lexicon": ("mine_class_lexicon",),
    "violence": ("match_violence",),
    "features": ("fit_features", "vectorize"),
    "linear": ("train_model", "fit_svm", "predict_texts", "score_text", "save_model", "load_model"),
    "explain": ("explain",),
    "metrics": ("evaluate_predictions",),
}
# module -> functions too small and hot for a span: counted only
COUNTED = {"textnorm": ("jaccard",)}
MANIFEST_METHODS = ("add_input", "add_output", "write")


def _drops(values: Counter, args: tuple, result) -> None:
    for d in result[1]:
        values[f"textnorm.{d.reason}_drops"] += 1


def _kept(values: Counter, args: tuple, result) -> None:
    values["emoji.filtered_in"] += len(args[0])
    values["emoji.filtered_kept"] += len(result)


def _matches(values: Counter, args: tuple, result) -> None:
    values["violence.matches"] += len(result)
    values["violence.docs_matched"] += bool(result)


def _fit(values: Counter, args: tuple, result) -> None:
    values["linear.epochs"] = result.n_epochs
    values["linear.converged"] = int(result.converged)
    values["linear.objective"] = result.objective


def _hashed(values: Counter, args: tuple, result) -> None:
    values["manifest.bytes_hashed"] += os.path.getsize(args[1])


# span name -> hook(values, args, result) that takes counts off the result
HOOKS: dict[str, Callable] = {
    "corpus.load_corpus": lambda v, a, r: v.update({"corpus.docs_loaded": len(r)}),
    "textnorm.dedup": _drops,
    "emoji.filter_by_seeds": _kept,
    "annotation.load_judgments": lambda v, a, r: v.update({"annotation.judgments": len(r)}),
    "lexicon.mine_class_lexicon": lambda v, a, r: v.update({"lexicon.terms": len(r)}),
    "violence.match_violence": _matches,
    "features.fit_features": lambda v, a, r: v.update({"features.n_features": r.n_features}),
    "linear.fit_svm": _fit,
    "metrics.evaluate_predictions": lambda v, a, r: v.update({"metrics.macro_f1": r.macro_f1}),
    "manifest.add_input": _hashed,
    "manifest.add_output": _hashed,
}


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.values: Counter = Counter()  # counts taken off results; reset per rep
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span around the with-block; yields the span's index."""
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, fn: Callable, name: str) -> Callable:
        name_id, hook, values = self._id(name), HOOKS.get(name), self.values
        names, parents, stack = self.name, self.parent, self._stack
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(values, args, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        values = self.values

        def wrapper(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every binding of every listed function in loaded anchorlex modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sys.modules.items() if n == "anchorlex" or n.startswith("anchorlex.")
        ]
        targets = [(m, f, self._spanned, f"{m}.{f}") for m, fs in SPANNED.items() for f in fs]
        targets += [
            (m, f, self._counted, f"{m}.{f}_calls") for m, fs in COUNTED.items() for f in fs
        ]
        for mod_name, fn_name, make, span_name in targets:
            original = getattr(sys.modules[f"anchorlex.{mod_name}"], fn_name)
            wrapper = make(original, span_name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        manifest_cls = sys.modules["anchorlex.manifest"].RunManifest
        for meth in MANIFEST_METHODS:
            original = manifest_cls.__dict__[meth]
            self._patches.append((manifest_cls, meth, original))
            setattr(manifest_cls, meth, self._spanned(original, f"manifest.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def totals(self, root: int) -> tuple[Counter, Counter, Counter]:
        """Per span name under one root span: inclusive seconds, self
        seconds and call counts. A span's self time is its duration
        minus the time its direct children cover."""
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stop = len(name)
        for i in range(root + 1, len(name)):  # spans after root's subtree are not ours
            if start[i] >= end[root]:
                stop = i
                break
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        child = [0.0] * (stop - root)
        for i in range(stop - 1, root - 1, -1):
            d = end[i] - start[i]
            n = self.names[name[i]]
            total[n] += d
            self_s[n] += d - child[i - root]
            calls[n] += 1
            if i > root:
                child[parent[i] - root] += d
        return total, self_s, calls

    def calls_under(self, root: int, child_name: str, parent_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        c, p = self._ids.get(child_name), self._ids.get(parent_name)
        if c is None or p is None:
            return 0
        name, parent, start, end = self.name, self.parent, self.start, self.end
        return sum(
            1
            for i in range(root + 1, len(name))
            if name[i] == c and name[parent[i]] == p and start[i] < end[root]
        )
