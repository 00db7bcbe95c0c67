"""Workloads, the closed-loop client that runs them, and the output checks.

Load is a closed loop: one client in one process calls
``anchorlex.cli.main`` stage after stage, back to back, the way
``scripts/run_synthetic_pipeline.py`` drives the stages. A repetition is
one pass over a workload's stages; repetitions run until the measuring
time is spent. Every repetition's outputs are checked, and each stage
call that exits non-zero or fails a check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy

import calib
import gen
from anchorlex import cli
from anchorlex.corpus import load_corpus, load_labels, load_split
from anchorlex.linear import load_model, predict_texts
from spans import SPANNED, Tracer



@dataclass
class Call:
    stage: str
    out: str  # primary output; its manifest is out + ".manifest.json"
    rc: int
    wall: float
    log: str
    failures: list[str] = field(default_factory=list)
    manifest_wall: float = math.nan
    scale: float = 1.0  # to the reference host speed (calib.py)


@dataclass
class Rep:
    traced: bool
    wall: float = 0.0  # the stage calls' walls, summed
    calls: list[Call] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # data file -> sha256
    root: int = -1  # index of the repetition's root span when traced
    scale: float = 1.0  # the calls' scales, weighted by their walls
    values: Counter = field(default_factory=Counter)

    def by_stage(self, stage: str) -> Call:
        return next(c for c in self.calls if c.stage == stage)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Client:
    """One client: each stage call waits for the previous one to finish."""

    def __init__(self, work: str, tracer: Tracer) -> None:
        self.work = work
        self.tracer = tracer
        self.rep = Rep(traced=False)
        self.cal: list[float] = []  # host calibrations; while measuring, one after every call

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def call(self, stage: str, *argv: str) -> None:
        out = argv[argv.index("--out") + 1]
        buf = io.StringIO()
        span = (
            self.tracer.span("cli." + stage.replace("-", "_"))
            if self.rep.traced
            else contextlib.nullcontext()
        )
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            with warnings.catch_warnings():
                # a fresh CLI process prints every distinct warning once
                warnings.simplefilter("always")
                with span:
                    t0 = time.perf_counter()
                    try:
                        rc = cli.main([stage, *argv])
                    except Exception:  # a crash is one failed operation
                        traceback.print_exc()
                        rc = -1
                    wall = time.perf_counter() - t0
        call = Call(stage, out, rc, wall, buf.getvalue())
        if self.cal:
            self.cal.append(calib.calibrate())
            call.scale = calib.scale(self.cal[-2], self.cal[-1])
        self.rep.calls.append(call)


def _jsonl_ids(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def _tsv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh][1:]


class Corpus:
    """Raw collection to report: text, emoji, dedup, lexicon, violence, annotation."""

    name = "corpus"
    setups = 3  # set-ups per run; setup_s is their median
    inputs = ("raw.jsonl", "gold_labels.tsv", "judgments.tsv", "gate_answers.tsv")

    def __init__(self, seed: int, client: Client) -> None:
        self.seed, self.c = seed, client
        self.data_dir = os.path.join(os.path.dirname(cli.__file__), "data")

    def setup(self) -> float:
        self.truth, synth_s = gen.make_corpus_inputs(self.seed, self.c.work, self.data_dir)
        return synth_s

    def rep(self) -> None:
        c, p = self.c, self.c.path
        c.call("collect", "--in", p("raw.jsonl"), "--out", p("anchored.jsonl"))
        c.call("normalize", "--in", p("raw.jsonl"), "--out", p("normalized.jsonl"))
        c.call("dedup", "--in", p("anchored.jsonl"), "--out", p("deduped.jsonl"),
               "--dropped", p("dropped.tsv"))
        c.call("mine-lexicon", "--in", p("deduped.jsonl"), "--labels", p("gold_labels.tsv"),
               "--out", p("lexicon.tsv"), "--min-freq", "3")
        c.call("emoji-stats", "--in", p("deduped.jsonl"), "--labels", p("gold_labels.tsv"),
               "--out", p("emoji_stats.tsv"))
        c.call("sample", "--in", p("deduped.jsonl"), "--out", p("samples.tsv"),
               "--k", "5", "--seed", str(self.seed))
        c.call("match-violence", "--in", p("deduped.jsonl"), "--out", p("violence.tsv"))
        c.call("aggregate", "--judgments", p("judgments.tsv"), "--out", p("labels.tsv"),
               "--queue", p("queue.tsv"))
        c.call("kappa", "--judgments", p("judgments.tsv"), "--out", p("kappa.tsv"))
        c.call("gate", "--judgments", p("judgments.tsv"), "--answers", p("gate_answers.tsv"),
               "--out", p("gate.tsv"))
        c.call("report", "--corpus", p("deduped.jsonl"), "--labels", p("labels.tsv"),
               "--stats", p("emoji_stats.tsv"), "--lexicon", p("lexicon.tsv"),
               "--out", p("report.txt"))

    def check(self, rep: Rep) -> None:
        p, truth = self.c.path, self.truth
        anchored = _jsonl_ids(p("anchored.jsonl"))
        if set(anchored) != truth.seed_ids or len(anchored) != len(truth.seed_ids):
            rep.by_stage("collect").failures.append(
                f"kept {len(anchored)} docs, generator gave {len(truth.seed_ids)} a seed emoji"
            )

        dedup = rep.by_stage("dedup")
        kept = _jsonl_ids(p("deduped.jsonl"))
        dropped = {r[0]: (r[1], r[2]) for r in _tsv_rows(p("dropped.tsv"))}
        if sorted(kept + list(dropped)) != sorted(anchored):
            dedup.failures.append("kept + dropped is not the input")
        expected = {i: ("exact", s) for i, s in truth.exact.items()}
        expected.update({i: ("near", s) for i, s in truth.near.items()})
        expected.update({i: ("short", "") for i in truth.short})
        wrong = [i for i, want in expected.items() if dropped.get(i) != want]
        if wrong:
            dedup.failures.append(f"{len(wrong)} injected drops missed, e.g. {wrong[0]}")

        matched: dict[str, set[tuple[str, str]]] = {}
        for doc_id, rule, _, _, span in _tsv_rows(p("violence.tsv")):
            matched.setdefault(doc_id, set()).add((rule, span))
        kept_set = set(kept)
        missed = [
            i for i, want in truth.threats.items()
            if i in kept_set and want not in matched.get(i, ())
        ]
        if missed:
            rep.by_stage("match-violence").failures.append(
                f"{len(missed)} injected threats unmatched, e.g. {missed[0]}"
            )


class Train:
    """Split and train on ~1000 labeled docs; the SVM solver dominates."""

    name = "train"
    setups = 20  # a set-up takes milliseconds, so take the median of many
    inputs = ("train.jsonl", "train_labels.tsv")

    def __init__(self, seed: int, client: Client) -> None:
        self.seed, self.c = seed, client

    def setup(self) -> float:
        return gen.make_train_inputs(self.seed, self.c.work)

    def rep(self) -> None:
        train(self.c, self.seed)

    def check(self, rep: Rep) -> None:
        p = self.c.path
        model = load_model(p("model.json"))
        labels = load_labels(p("train_labels.tsv"))
        test = load_split(p("split.tsv")).test
        docs = [d for d in load_corpus(p("train.jsonl")) if d.id in test]
        got = [label for label, _ in predict_texts(model, [d.text for d in docs])]
        wrong = sum(g != int(labels[d.id].offensive) for g, d in zip(got, docs))
        if wrong:
            rep.by_stage("train").failures.append(
                f"{wrong}/{len(docs)} test docs misclassified: macro-F1 below 1.0"
            )


def train(c: Client, seed: int) -> None:
    p = c.path
    c.call("split", "--labels", p("train_labels.tsv"), "--out", p("split.tsv"),
           "--seed", str(seed))
    c.call("train", "--in", p("train.jsonl"), "--labels", p("train_labels.tsv"),
           "--split", p("split.tsv"), "--out", p("model.json"), "--seed", str(seed))


class Score:
    """Predict fresh docs, evaluate, and serve explain requests on a trained model."""

    name = "score"
    setups = 2  # each set-up trains a model; two keep the run within its time budget
    inputs = ("model.json", "fresh.jsonl", "fresh_labels.tsv")

    def __init__(self, seed: int, client: Client) -> None:
        self.seed, self.c = seed, client

    def setup(self) -> float:
        synth_s = gen.make_train_inputs(self.seed, self.c.work)
        train(self.c, self.seed)
        failed = [call for call in self.c.rep.calls if call.rc != 0]
        if failed:
            raise RuntimeError(f"set-up stage {failed[0].stage} failed:\n{failed[0].log}")
        self.truth, fresh_s = gen.make_score_inputs(self.seed, self.c.work)
        return synth_s + fresh_s

    def rep(self) -> None:
        c, p = self.c, self.c.path
        c.call("predict", "--model", p("model.json"), "--in", p("fresh.jsonl"),
               "--out", p("preds.tsv"))
        c.call("evaluate", "--gold", p("fresh_labels.tsv"), "--pred", p("preds.tsv"),
               "--out", p("eval.txt"))
        for k, text in enumerate(self.truth.explain_texts):
            c.call("explain", "--model", p("model.json"), "--text", text,
                   "--seed", str(self.seed), "--out", p(f"explain_{k:03d}.txt"))

    def check(self, rep: Rep) -> None:
        rows = _tsv_rows(self.c.path("preds.tsv"))
        if [r[0] for r in rows] != self.truth.doc_ids or any(
            len(r) != 3 or r[1] not in ("0", "1") or not math.isfinite(float(r[2])) for r in rows
        ):
            rep.by_stage("predict").failures.append("predictions are not one row per doc")
        for call in rep.calls:
            if call.stage == "explain" and call.rc == 0 and not _explanation_ok(call.out):
                call.failures.append(f"{call.out}: explanation does not parse with finite scores")


def _explanation_ok(path: str) -> bool:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = [line.split("\t") for line in lines[:4]]
    if [h[0] for h in head] != ["score_full", "score_empty", "intercept", "r2"]:
        return False
    if lines[4:5] != ["token\tattribution"] or len(lines) < 6:
        return False
    try:
        values = [float(h[1]) for h in head]
        values += [float(line.rsplit("\t", 1)[1]) for line in lines[5:]]
    except (IndexError, ValueError):
        return False
    return all(math.isfinite(v) for v in values)


WORKLOADS = {w.name: w for w in (Corpus, Train, Score)}


def _check_outputs(rep: Rep, first: Rep | None) -> None:
    """Manifest cross-check and digest stability for every stage call."""
    for call in rep.calls:
        if call.rc != 0:
            call.failures.append(f"exit code {call.rc}")
            continue
        try:
            with open(call.out + ".manifest.json", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as e:
            call.failures.append(f"manifest: {e}")
            continue
        call.manifest_wall = manifest["wall_time_s"]
        for path, digest in manifest["outputs"].items():
            disk = sha256(path)
            if disk != digest:
                call.failures.append(f"{path}: manifest digest is not the file's")
            if first is not None and first.digests.get(path) != disk:
                call.failures.append(f"{path}: digest differs from the first repetition")
            rep.digests[path] = disk


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


# stage walls reported under the stage's own name; annotate_s sums three stages
STAGE_WALLS = {
    "collect_s": ("collect",),
    "normalize_s": ("normalize",),
    "dedup_s": ("dedup",),
    "mine_lexicon_s": ("mine-lexicon",),
    "emoji_stats_s": ("emoji-stats",),
    "match_violence_s": ("match-violence",),
    "annotate_s": ("aggregate", "kappa", "gate"),
    "train_s": ("train",),
    "predict_s": ("predict",),
}
CLI_STAGES = (
    "collect", "normalize", "dedup", "mine-lexicon", "emoji-stats", "sample",
    "match-violence", "aggregate", "kappa", "gate", "report", "split", "train",
    "predict", "evaluate", "explain",
)


def _layer_metrics(tracer: Tracer, rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition; times at the reference speed."""
    total, self_s, calls = tracer.totals(rep.root)
    v = rep.values
    m: dict[str, float] = {}
    for mod, fns in SPANNED.items():
        for fn in fns:
            m[f"{mod}.{fn}_s"] = total[f"{mod}.{fn}"]
            m[f"{mod}.{fn}_calls"] = calls[f"{mod}.{fn}"]
    for stage in CLI_STAGES:
        name = "cli." + stage.replace("-", "_")
        m[name + ".self_s"] = self_s[name]
    for key in (
        "corpus.docs_loaded", "textnorm.jaccard_calls", "textnorm.near_drops",
        "textnorm.exact_drops", "textnorm.short_drops", "annotation.judgments",
        "lexicon.terms", "violence.matches", "features.n_features", "linear.epochs",
        "linear.converged", "linear.objective", "metrics.macro_f1", "manifest.bytes_hashed",
    ):
        m[key] = v[key]
    jaccard = v["textnorm.jaccard_calls"]
    m["textnorm.near_drops_per_jaccard"] = v["textnorm.near_drops"] / jaccard if jaccard else 0.0
    filtered = v["emoji.filtered_in"]
    m["emoji.kept_share"] = v["emoji.filtered_kept"] / filtered if filtered else 0.0
    matched = calls["violence.match_violence"]
    m["violence.docs_matched_share"] = v["violence.docs_matched"] / matched if matched else 0.0
    m["violence.match_violence_s"] = self_s["violence.match_violence"]
    m["explain.self_s"] = self_s["explain.explain"]
    m["explain.samples_scored"] = tracer.calls_under(
        rep.root, "linear.score_text", "explain.explain"
    )
    m["manifest.add_io_s"] = total["manifest.add_input"] + total["manifest.add_output"]
    m["manifest.write_s"] = total["manifest.write"]
    return {k: v * rep.scale if k.endswith("_s") else v for k, v in m.items()}


def run(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Set up, measure for `seconds`, check every repetition; returns the record."""
    tracer = Tracer()
    client = Client(work, tracer)
    wl = WORKLOADS[name](seed, client)

    setups: list[tuple[float, float, float]] = []  # wall, synth, scale
    failed_setups = 0
    first_inputs: dict[str, str] | None = None
    cal = [calib.calibrate()]
    for _ in range(wl.setups):
        client.rep = Rep(traced=False)
        t0 = time.perf_counter()
        synth_s = wl.setup()
        wall = time.perf_counter() - t0
        inputs = {f: sha256(client.path(f)) for f in wl.inputs}
        first_inputs = first_inputs or inputs
        failed_setups += inputs != first_inputs
        cal.append(calib.calibrate())
        setups.append((wall, synth_s, calib.scale(cal[-2], cal[-1])))

    client.cal = cal
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while not reps or (trace and len(reps) < 2) or time.perf_counter() < deadline:
        rep = client.rep = Rep(traced=trace and len(reps) % 2 == 1)
        if rep.traced:
            tracer.values.clear()
            tracer.install()
        try:
            with tracer.span("rep") if rep.traced else contextlib.nullcontext() as root:
                wl.rep()
        finally:
            tracer.uninstall()
        rep.wall = sum(c.wall for c in rep.calls)
        rep.scale = sum(c.wall * c.scale for c in rep.calls) / rep.wall
        if rep.traced:
            rep.root, rep.values = root, Counter(tracer.values)
        _check_outputs(rep, reps[0] if reps else None)
        try:
            wl.check(rep)
        except (OSError, ValueError, LookupError) as e:  # unreadable or malformed outputs
            rep.calls[0].failures.append(f"output check failed: {e!r}")
        reps.append(rep)

    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    calls = [c for r in reps for c in r.calls]
    failures = [f"{c.stage}: {f}" for c in calls for f in c.failures]
    failures += ["set-up inputs differ between set-ups"] * failed_setups
    # every reported time is at the reference host speed; raw ones are in the record
    end_to_end = {
        "wall_s": _median([r.wall * r.scale for r in plain]),
        "setup_s": _median([s * k for s, _, k in setups]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    stage_walls = {
        stage: _median([sum(c.wall * c.scale for c in r.calls if c.stage == stage) for r in plain])
        for stage in dict.fromkeys(c.stage for c in plain[0].calls)
    }
    manifest_walls = {
        stage: _median(
            [sum(c.manifest_wall * c.scale for c in r.calls if c.stage == stage) for r in plain]
        )
        for stage in stage_walls
    }
    per_layer: dict[str, float] = {}
    if traced:
        layers = [_layer_metrics(tracer, r) for r in traced]
        per_layer = {k: _median([m[k] for m in layers]) for k in layers[0]}
        explain = sorted(
            c.wall * c.scale for r in plain for c in r.calls if c.stage == "explain"
        )
        per_layer.update(
            {
                k: _median(
                    [sum(c.wall * c.scale for c in r.calls if c.stage in stages) for r in plain]
                )
                for k, stages in STAGE_WALLS.items()
            }
        )
        per_layer["explain_p50_s"] = _median(explain)
        per_layer["explain_p90_s"] = (
            statistics.quantiles(explain, n=10)[-1] if len(explain) > 1 else 0.0
        )
        per_layer["manifest.wall_time_s"] = sum(manifest_walls.values())
        per_layer["synth.generate_s"] = _median([s * k for _, s, k in setups])
        per_layer["trace.overhead_s"] = (
            _median([r.wall * r.scale for r in traced]) - end_to_end["wall_s"]
        )
        per_layer["host.calibrate_s"] = _median(cal)
        per_layer["raw.wall_s"] = _median([r.wall for r in plain])
        per_layer["raw.setup_s"] = _median([s for s, _, _ in setups])
        tracer.write(os.path.join(os.path.dirname(work), f"spans-{name}.npz"))
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": _machine(),
        "attempted": len(calls) + len(setups),
        "failed": sum(bool(c.failures) for c in calls) + failed_setups,
        "failures": failures[:20],
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "repetition_wall_s": [r.wall for r in reps],
        "repetition_scale": [r.scale for r in reps],
        "repetition_stage_wall_s": [
            {c.stage: sum(d.wall for d in r.calls if d.stage == c.stage) for c in r.calls}
            for r in reps
        ],
        "setup_s": [s for s, _, _ in setups],
        "setup_scale": [k for _, _, k in setups],
        "calibrate_s": cal,
        "reference_calibrate_s": calib.REF_S,
        "end_to_end": end_to_end,
        "stage_wall_s": stage_walls,
        "manifest_wall_time_s": manifest_walls,
        "per_layer": per_layer,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
