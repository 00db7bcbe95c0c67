"""Command-line front end: one binary, subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 data/IO error. Every file write
is atomic (temp + rename). `main` is the one stage runner: it hashes the
files a stage declares as inputs, runs the stage, hashes its outputs and
writes the run manifest next to the primary output (or at --manifest);
a failed stage writes none, and an argument the manifest cannot record
(not valid UTF-8) fails the run before the stage writes anything. No
environment variables are consulted; behavior is flags + config only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Sequence

from . import __version__
from . import annotation as anno
from . import corpus as corpus_mod
from . import emoji as emoji_mod
from . import lexicon as lexicon_mod
from . import metrics as metrics_mod
from . import textnorm
from . import violence as violence_mod
from .manifest import RunManifest
from .util import atomic_write_text, canonical_json, dump_tsv, read_tsv


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# --- commands ------------------------------------------------------------


def cmd_collect(args: argparse.Namespace) -> None:
    docs = corpus_mod.load_corpus(args.infile)
    kept = emoji_mod.filter_by_seeds(docs, emoji_mod.load_seed_inventory(args.seeds))
    corpus_mod.write_corpus(args.out, kept)
    print(f"collect: kept {len(kept)}/{len(docs)} docs with seed emoji")


def cmd_dedup(args: argparse.Namespace) -> None:
    kept, dropped = textnorm.dedup(corpus_mod.load_corpus(args.infile))
    corpus_mod.write_corpus(args.out, kept)
    # resolved after the runner took the config, which keeps the flag as given
    args.dropped = args.dropped or args.out + ".dropped.tsv"
    atomic_write_text(args.dropped, textnorm.dump_drops(dropped))
    print(f"dedup: kept {len(kept)}, dropped {len(dropped)}")


def cmd_normalize(args: argparse.Namespace) -> None:
    docs = corpus_mod.load_corpus(args.infile)
    for d in docs:
        d.text = textnorm.normalize(d.text)
    corpus_mod.write_corpus(args.out, docs)
    print(f"normalize: wrote {len(docs)} docs")


def cmd_split(args: argparse.Namespace) -> None:
    labels = corpus_mod.load_labels(args.labels)
    try:
        train, dev, test = map(float, args.ratios.split(","))
    except ValueError:
        raise ValueError(f"bad --ratios {args.ratios!r}, expected three floats") from None
    split = corpus_mod.stratified_split(labels, (train, dev, test), args.seed)
    corpus_mod.write_split(args.out, split)
    print(
        f"split: train={len(split.train)} dev={len(split.dev)} test={len(split.test)}"
    )


def cmd_mine_lexicon(args: argparse.Namespace) -> None:
    if not math.isfinite(args.min_valence):
        raise ValueError(f"--min-valence must be finite, got {args.min_valence}")
    docs = corpus_mod.load_corpus(args.infile)
    labels = corpus_mod.load_labels(args.labels)
    try:
        entries = lexicon_mod.mine_class_lexicon(
            docs,
            labels,
            args.positive_class,
            min_valence=args.min_valence,
            min_freq=args.min_freq,
        )
    except ValueError as e:
        raise ValueError(f"{args.infile}, {args.labels}: {e}") from None
    atomic_write_text(args.out, lexicon_mod.dump_lexicon(entries))
    print(f"mine-lexicon: {len(entries)} terms at valence >= {args.min_valence}")


def cmd_emoji_stats(args: argparse.Namespace) -> None:
    docs = corpus_mod.load_corpus(args.infile)
    labels = corpus_mod.load_labels(args.labels)
    seeds = emoji_mod.load_seed_inventory(args.seeds)
    try:
        stats = emoji_mod.emoji_stats(docs, labels, seeds)
    except ValueError as e:
        raise ValueError(f"{args.infile}, {args.labels}: {e}") from None
    atomic_write_text(args.out, emoji_mod.dump_emoji_stats(stats))
    print(f"emoji-stats: {len(stats)} base forms")


def cmd_sample(args: argparse.Namespace) -> None:
    docs = corpus_mod.load_corpus(args.infile)
    sampled = emoji_mod.sample_per_emoji(docs, emoji_mod.load_seed_inventory(args.seeds), args.k, args.seed)
    rows = (
        (emoji_mod.codepoints_hex(b), d.id, corpus_mod.tsv_field(d.text)) for b in sorted(sampled) for d in sampled[b]
    )
    atomic_write_text(args.out, dump_tsv(["base", "doc_id", "text"], rows))
    print(f"sample: wrote draws for {len(sampled)} bases")


def cmd_match_violence(args: argparse.Namespace) -> None:
    docs = corpus_mod.load_corpus(args.infile)
    classes = violence_mod.load_classes(args.classes)
    rules = violence_mod.load_rules(args.rules)
    try:
        compiled = violence_mod.compile_rules(rules, classes)
    except ValueError as e:
        raise ValueError(f"{args.rules}, {args.classes}: {e}") from None
    rows = []
    for d in docs:
        for m in violence_mod.match_violence_text(d.text, compiled):
            rows.append((d.id, m))
    atomic_write_text(args.out, violence_mod.dump_matches(rows))
    print(f"match-violence: {len(rows)} matches in {len(docs)} docs")


def cmd_aggregate(args: argparse.Namespace) -> None:
    judgments = anno.load_judgments(args.judgments)
    aggregated = anno.majority_vote(judgments)
    try:
        labels, dropped = anno.aggregate_to_labels(aggregated)
    except ValueError as e:
        raise ValueError(f"{args.judgments}: {e}") from None
    if args.overrides:
        overrides = anno.load_overrides(args.overrides)
        try:
            labels = anno.apply_overrides(labels, overrides)
        except ValueError as e:
            raise ValueError(f"{args.overrides}: {e}") from None
    corpus_mod.write_labels(args.out, labels.values())
    queue = anno.adjudication_queue(aggregated)
    if args.queue:
        atomic_write_text(args.queue, anno.dump_adjudication(queue))
    print(
        f"aggregate: {len(labels)} docs labeled, {len(queue)} queue items,"
        f" {len(dropped)} docs with hate/vulgar/violence votes dropped"
    )


def cmd_kappa(args: argparse.Namespace) -> None:
    judgments = anno.load_judgments(args.judgments)
    try:
        report = anno.avg_pairwise_kappa(judgments, anno.MIN_SHARED)
    except ValueError as e:
        raise ValueError(f"{args.judgments}: {e}") from None
    atomic_write_text(args.out, anno.dump_kappa_report(report))


def cmd_gate(args: argparse.Namespace) -> None:
    judgments = anno.load_judgments(args.judgments)
    results = anno.gate_all(judgments, anno.load_gate_answers(args.answers), args.threshold)
    atomic_write_text(args.out, anno.dump_gate_results(results))
    n_pass = sum(1 for r in results if r.passed)
    print(f"gate: {n_pass}/{len(results)} annotators pass", file=sys.stderr)


def _ngram_range(flag: str, value: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, value.split(","))
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise ValueError(f"{flag} {value!r}: expected LO,HI with 1 <= LO <= HI")
    return lo, hi


# train, predict and explain import the numpy modules when they run, so the other stages start without numpy
def cmd_train(args: argparse.Namespace) -> None:
    from .features import FeatureConfig
    from .linear import save_model, train_model

    docs = corpus_mod.load_corpus(args.infile)
    labels = corpus_mod.load_labels(args.labels)
    split = corpus_mod.load_split(args.split)
    config = FeatureConfig(
        args.mode, _ngram_range("--char-ngrams", args.char_ngrams), _ngram_range("--word-ngrams", args.word_ngrams)
    )
    try:
        model = train_model(docs, labels, split, feature_config=config, C=args.C, seed=args.seed, target=args.target)
    except ValueError as e:
        raise ValueError(f"{args.infile}, {args.labels}, {args.split}: {e}") from None
    save_model(args.out, model)
    print(
        f"train: {model.space.n_features} features, "
        f"objective {model.objective:.6f} after {len(model.objective_trace)} epochs, "
        f"duality gap {model.duality_gap:.3g}"
    )


_PREDICTIONS_HEADER = ["doc_id", "label", "score"]


def cmd_predict(args: argparse.Namespace) -> None:
    from .linear import load_model, predict_texts

    model = load_model(args.model)
    docs = corpus_mod.load_corpus(args.infile)
    results = predict_texts(model, [d.text for d in docs])
    rows = ((d.id, str(label), f"{score:.10f}") for d, (label, score) in zip(docs, results))
    atomic_write_text(args.out, dump_tsv(_PREDICTIONS_HEADER, rows))
    print(f"predict: scored {len(docs)} docs")


def load_predictions(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for lineno, (doc_id, label, _score) in read_tsv(path, _PREDICTIONS_HEADER, 1):
        if label not in ("0", "1"):
            raise ValueError(f"{path}: line {lineno}: label must be 0/1")
        out[doc_id] = int(label)
    return out


def cmd_evaluate(args: argparse.Namespace) -> None:
    labels = corpus_mod.load_labels(args.gold)
    preds = load_predictions(args.pred)
    if args.split:
        keep = corpus_mod.load_split(args.split).part(args.part)
        preds = {d: v for d, v in preds.items() if d in keep}
    gold = {d: int(r.has(args.target)) for d, r in labels.items()}
    try:
        report = metrics_mod.evaluate_predictions(gold, preds)
    except ValueError as e:
        files = ", ".join(filter(None, (args.gold, args.pred, args.split)))
        raise ValueError(f"{files}: {e}") from None
    atomic_write_text(args.out, metrics_mod.dump_report(report))


def cmd_explain(args: argparse.Namespace) -> None:
    from .explain import dump_explanation, explain
    from .linear import load_model

    if args.text is not None and args.doc_id is not None:
        raise ValueError("--doc-id names a doc of --in, not of --text: pass one or the other")
    model = load_model(args.model)
    if args.text is not None:
        text = args.text
    else:
        if not args.infile or not args.doc_id:
            raise ValueError("explain needs --text, or --in with --doc-id")
        docs = {d.id: d for d in corpus_mod.load_corpus(args.infile)}
        if args.doc_id not in docs:
            raise ValueError(f"doc {args.doc_id!r} not in {args.infile}")
        text = docs[args.doc_id].text
    ex = explain(text, model, n_samples=args.samples, seed=args.seed)
    atomic_write_text(args.out, dump_explanation(ex))


# rows `report` excerpts from each file, after its header
EXCERPT_ROWS = 10


def cmd_report(args: argparse.Namespace) -> None:
    docs = corpus_mod.load_corpus(args.corpus)
    labels = corpus_mod.load_labels(args.labels)
    n = len(docs)
    labeled = [labels[d.id] for d in docs if d.id in labels]
    target_counts: dict[str, int] = {}
    for r in labeled:
        for t in r.hate_targets:
            target_counts[t] = target_counts.get(t, 0) + 1

    def pct(k: int, total: int) -> str:
        return f"{100.0 * k / total:.2f}%" if total else "n/a"

    lines = [
        "corpus report",
        "=============",
        f"documents\t{n}",
        f"labeled\t{len(labeled)}",
    ]
    for c in corpus_mod.LABEL_CLASSES:
        k = sum(1 for r in labeled if r.has(c))
        lines.append(f"{c}\t{k}\t{pct(k, len(labeled))}")
    for t in sorted(target_counts, key=lambda t: (-target_counts[t], t)):
        lines.append(f"hate_target\t{t}\t{target_counts[t]}")
    for name, path in (("emoji-stats", args.stats), ("lexicon", args.lexicon), ("eval", args.eval)):
        if not path:
            continue
        lines.append("")
        # basename, not the full path: report bytes must not depend on
        # where the run directory happens to live
        lines.append(f"[{name}] {os.path.basename(path)}")
        with open(path, encoding="utf-8") as fh:
            content = fh.read().rstrip("\n")
        lines.extend(content.splitlines()[: EXCERPT_ROWS + 1])  # header + rows
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"report: wrote {args.out}")


def _undecodable(paths: Sequence[str | None]) -> str | None:
    """`path: line N: not valid UTF-8` for the first of the files that does not decode."""
    for path in filter(None, paths):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            lineno = data.count(b"\n", 0, e.start) + 1
            return f"{path}: line {lineno}: not valid UTF-8"
    return None


# --- parser wiring --------------------------------------------------------


def build_parser(command: str | None = None) -> _Parser:
    """Every stage's subparser with its arguments; if `command` names a stage, only that
    stage's, so a stage call builds one subparser, not 16."""
    parser = _Parser(prog="anchorlex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"anchorlex {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(
        name: str, fn: Callable, help_: str, inputs: tuple[str, ...], outputs: tuple[str, ...] = ("out",)
    ) -> argparse.ArgumentParser | None:
        """A stage whose input and output files are the args named by these dests; None if not called."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn, _inputs=inputs, _outputs=outputs, _parser=p)
        p.add_argument("--manifest", help="run manifest path (default: <out>.manifest.json)")
        return p

    if p := add("collect", cmd_collect, "keep docs whose emoji hit the seed inventory", ("infile", "seeds")):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seeds", default=emoji_mod.SEEDS_PATH, help="seed inventory TSV (default: bundled)")

    if p := add("dedup", cmd_dedup, "drop short/exact/near duplicate docs", ("infile",), ("out", "dropped")):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--dropped", help="drop log TSV (default: <out>.dropped.tsv)")

    if p := add("normalize", cmd_normalize, "canonicalize text", ("infile",)):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)

    if p := add("split", cmd_split, "stratified train/dev/test split", ("labels",)):
        p.add_argument("--labels", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ratios", default="0.7,0.1,0.2")

    if p := add("mine-lexicon", cmd_mine_lexicon, "high-valence term lexicon", ("infile", "labels")):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--min-valence", type=float, default=0.8)
        p.add_argument("--min-freq", type=int, default=5)
        p.add_argument(
            "--class",
            dest="positive_class",
            choices=corpus_mod.LABEL_CLASSES,
            default="offensive",
        )

    if p := add("emoji-stats", cmd_emoji_stats, "per-emoji offensive/hate rates", ("infile", "labels", "seeds")):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seeds", default=emoji_mod.SEEDS_PATH, help="seed inventory TSV (default: bundled)")

    if p := add("sample", cmd_sample, "seeded doc samples per inventory emoji", ("infile", "seeds")):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seeds", default=emoji_mod.SEEDS_PATH, help="seed inventory TSV (default: bundled)")
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)

    if p := add("match-violence", cmd_match_violence, "violence pattern matches", ("infile", "classes", "rules")):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--classes", default=violence_mod.CLASSES_PATH, help="lexical classes TSV (default: bundled)")
        p.add_argument("--rules", default=violence_mod.RULES_PATH, help="pattern rules TSV (default: bundled)")

    if p := add(
        "aggregate",
        cmd_aggregate,
        "majority-vote judgments into labels",
        ("judgments", "overrides"),
        ("out", "queue"),
    ):
        p.add_argument("--judgments", required=True)
        p.add_argument("--out", required=True, help="labels TSV")
        p.add_argument("--queue", help="adjudication queue TSV")
        p.add_argument("--overrides", help="adjudication TSV with filled override column")

    if p := add("kappa", cmd_kappa, "average pairwise Cohen's kappa", ("judgments",)):
        p.add_argument("--judgments", required=True)
        p.add_argument("--out", required=True)

    if p := add("gate", cmd_gate, "gate annotators on hidden test items", ("judgments", "answers")):
        p.add_argument("--judgments", required=True)
        p.add_argument("--answers", required=True, help="doc_id<TAB>label TSV")
        p.add_argument("--threshold", type=float, default=0.8)
        p.add_argument("--out", required=True)

    if p := add("train", cmd_train, "train the tf-idf linear classifier", ("infile", "labels", "split")):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--split", required=True)
        p.add_argument("--out", required=True, help="model file")
        p.add_argument("--mode", choices=("char", "word", "char+word"), default="char+word")
        p.add_argument("--char-ngrams", default="2,5", metavar="LO,HI")
        p.add_argument("--word-ngrams", default="1,3", metavar="LO,HI")
        p.add_argument("--C", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--target",
            choices=corpus_mod.LABEL_CLASSES,
            default="offensive",
        )

    if p := add("predict", cmd_predict, "score docs with a trained model", ("model", "infile")):
        p.add_argument("--model", required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)

    if p := add("evaluate", cmd_evaluate, "accuracy and macro P/R/F1", ("gold", "pred", "split")):
        p.add_argument("--gold", required=True, help="labels TSV")
        p.add_argument("--pred", required=True, help="predictions TSV")
        p.add_argument("--split", help="restrict to one split part")
        p.add_argument("--part", choices=("train", "dev", "test"), default="test")
        p.add_argument(
            "--target",
            choices=corpus_mod.LABEL_CLASSES,
            default="offensive",
        )
        p.add_argument("--out", required=True)

    if p := add("explain", cmd_explain, "per-token attribution for one doc", ("model", "infile")):
        p.add_argument("--model", required=True)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--text", help="explain this text directly")
        source.add_argument("--in", dest="infile", help="corpus holding --doc-id")
        p.add_argument("--doc-id")
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    if p := add("report", cmd_report, "one-page corpus summary", ("corpus", "labels", "stats", "lexicon", "eval")):
        p.add_argument("--corpus", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--stats", help="emoji-stats TSV to excerpt")
        p.add_argument("--lexicon", help="lexicon TSV to excerpt")
        p.add_argument("--eval", help="evaluate output to excerpt")

    if command is not None and command not in sub.choices:
        return build_parser()  # --help, --version or no stage: every stage's arguments
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "manifest") and not k.startswith("_")
    }
    man = RunManifest(
        command=args.command, config=config, seed=getattr(args, "seed", None), version=__version__
    )
    try:
        # the manifest records every argument: one it cannot write stops the stage before it runs
        for dest, value in config.items():
            try:
                canonical_json(value).encode("utf-8")
            except UnicodeEncodeError:
                flag = next(a.option_strings[0] for a in args._parser._actions if a.dest == dest)
                raise ValueError(f"{flag} is not valid UTF-8: {value!r}") from None
        # inputs before the stage runs: it may overwrite one (--in f --out f)
        for dest in args._inputs:
            if path := getattr(args, dest):
                man.add_input(path)
        args.func(args)
        for dest in args._outputs:
            if path := getattr(args, dest):
                man.add_output(path)
        man.write(args.manifest or args.out + ".manifest.json")
    except (ValueError, OSError) as e:
        # the readers decode as they read: trace a decoding error to its input and line
        bad_utf8 = isinstance(e, UnicodeDecodeError) and _undecodable([getattr(args, d) for d in args._inputs])
        print(f"anchorlex {args.command}: error: {bad_utf8 or e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
