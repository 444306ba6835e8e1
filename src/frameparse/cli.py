"""Command-line interface.

Commands: validate, stats, oracle, train, parse, eval, gradcheck.
Exit codes: 0 success, 1 validation or metric failure, 2 usage, 3 I/O.
Hyperparameters resolve as flag > config file (key=value lines) > default,
and every JSON artifact echoes the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset, metrics, rnng, transitions, trees
from .neural import gradcheck as gradcheck_mod
from .neural.params import CheckpointError
from .preprocess import TokenNormalizer, load_embeddings

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def load_config_file(path) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip()] = value.strip()
    return values


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _coerce(value: str, like):
    if isinstance(like, bool):
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"cannot parse boolean {value!r}")
    return type(like)(value)


def resolve_train_config(args) -> rnng.RnngConfig:
    """flag > config file > RnngConfig default, per field."""
    defaults = rnng.RnngConfig()
    file_values = load_config_file(args.config) if args.config else {}
    resolved = {}
    for field in dataclasses.fields(rnng.RnngConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            resolved[field.name] = flag
        elif field.name in file_values:
            resolved[field.name] = _coerce(file_values[field.name], getattr(defaults, field.name))
    return rnng.RnngConfig(**resolved)


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_validate(args) -> int:
    n_lines = 0
    n_bad = 0
    with open(args.trees, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            n_lines += 1
            try:
                tree = trees.parse_bracketed(line)
            except trees.FormatError as err:
                n_bad += 1
                print(f"{args.trees}:{lineno}: format: {err}")
                continue
            for violation in trees.validate(tree):
                n_bad += 1
                print(f"{args.trees}:{lineno}: {violation}")
    if n_lines == 0:
        print(f"warning: {args.trees} contains no trees", file=sys.stderr)
        return EXIT_OK
    print(f"{n_lines} trees, {n_bad} violations")
    return EXIT_OK if n_bad == 0 else EXIT_FAIL


def cmd_stats(args) -> int:
    corpus = dataset.load_tsv(args.tsv, strict=args.strict)
    for issue in corpus.skipped:
        print(f"warning: skipped {issue.message}", file=sys.stderr)
    stats = dataset.compute_stats(corpus)
    payload = stats.to_json_dict()
    payload["config"] = {"tsv": str(args.tsv), "strict": args.strict}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    prefix = args.out_prefix
    if prefix:
        Path(f"{prefix}.stats.json").write_text(text + "\n", encoding="utf-8")
        Path(f"{prefix}.depth.csv").write_text(stats.depth_csv(), encoding="utf-8")
        Path(f"{prefix}.length.csv").write_text(stats.length_csv(), encoding="utf-8")
    return EXIT_OK


def cmd_oracle(args) -> int:
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    failures = 0
    try:
        with open(args.trees, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    tree = trees.parse_bracketed(line)
                    actions = transitions.oracle(tree)
                except (trees.FormatError, transitions.ConstraintViolation) as err:
                    print(f"{args.trees}:{lineno}: {err}", file=sys.stderr)
                    failures += 1
                    continue
                if args.verify:
                    rebuilt = transitions.execute(actions, tree.tokens)
                    if rebuilt != tree:
                        print(f"{args.trees}:{lineno}: verify mismatch", file=sys.stderr)
                        failures += 1
                        continue
                print(transitions.format_actions(actions), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_train(args) -> int:
    config = resolve_train_config(args)
    train_corpus = dataset.load_tsv(args.train_tsv, split=dataset.Split.TRAIN, strict=args.strict)
    valid_corpus = None
    if args.valid:
        valid_corpus = dataset.load_tsv(args.valid, split=dataset.Split.VALID, strict=args.strict)
    vocab, intents, slots = dataset.build_vocabs(train_corpus, min_count=args.min_count)
    normalizer = TokenNormalizer(frozenset(vocab.symbols))
    embeddings = None
    if args.embeddings:
        embeddings = load_embeddings(args.embeddings, vocab.symbols, seed=config.seed)
    model = rnng.Model(config, vocab, intents, slots, normalizer, embeddings=embeddings)

    log_entries = []

    def on_epoch(epoch: int, mean_loss: float) -> None:
        entry = {"epoch": epoch + 1, "train_loss": mean_loss}
        if valid_corpus is not None:
            entry["valid_exact_match"] = 100.0 * rnng.exact_match_rate(
                model, valid_corpus.examples
            )
        log_entries.append(entry)
        print(json.dumps(entry))

    rnng.train(model, train_corpus, epoch_callback=on_epoch)
    rnng.save_model(model, args.output)
    log = {
        "config": dataclasses.asdict(config),
        "train_tsv": str(args.train_tsv),
        "valid_tsv": str(args.valid) if args.valid else None,
        "min_count": args.min_count,
        "embeddings": str(args.embeddings) if args.embeddings else None,
        "epochs": log_entries,
        "vocab_size": len(vocab),
        "n_intents": len(intents),
        "n_slots": len(slots),
    }
    _write_json(args.log or f"{args.output}.log.json", log)
    print(f"saved checkpoint to {args.output}")
    return EXIT_OK


def cmd_parse(args) -> int:
    # Every line is checked before any output is written, so a bad input
    # leaves no partial prediction file behind.
    with open(args.utterances, "r", encoding="utf-8") as handle:
        utterances = [line.split() for line in handle]
    empty = [lineno for lineno, tokens in enumerate(utterances, start=1) if not tokens]
    for lineno in empty:
        print(f"{args.utterances}:{lineno}: empty utterance", file=sys.stderr)
    if empty:
        return EXIT_FAIL
    model = rnng.load_model(args.checkpoint)
    beam = args.beam if args.beam is not None else model.config.beam_size
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for tokens in utterances:
            for tree, score in rnng.parse_beam(model, tokens, beam):
                print(f"{score:.6f}\t{trees.serialize(tree)}", file=out)
            print("", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    if args.output:
        _write_json(
            f"{args.output}.meta.json",
            {
                "config": dataclasses.asdict(model.config),
                "checkpoint": str(args.checkpoint),
                "beam": beam,
                "utterances": str(args.utterances),
            },
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    gold = metrics.read_gold_file(args.gold)
    if args.topk:
        ks = sorted({int(k) for k in args.topk.split(",")})
        beams, top_lines = metrics.read_beam_file(args.pred)
        pred = [beam[0] if beam else None for beam in beams]
        report = metrics.evaluate(gold, pred, raw_lines=top_lines, beams=beams, top_ks=ks)
    else:
        pred, raw = metrics.read_predictions_file(args.pred)
        report = metrics.evaluate(gold, pred, raw_lines=raw)
    print(report.to_table())
    if args.json:
        payload = report.to_json_dict()
        payload["config"] = {
            "gold": str(args.gold),
            "pred": str(args.pred),
            "topk": args.topk or None,
        }
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    config = rnng.RnngConfig(
        word_dim=6,
        label_dim=5,
        action_dim=4,
        lstm_units=7,
        lstm_layers=2,
        dropout=0.0,
        seed=seed,
        precision="f64",
    )
    tokens = ("turn", "the", "lights", "off")
    tree = trees.parse_bracketed("[IN:SET turn [SL:WHAT the lights ] off ]")
    vocab = dataset.Vocab(("<UNK>", "<NUM>") + tokens)
    normalizer = TokenNormalizer(frozenset(vocab.symbols))
    model = rnng.Model(config, vocab, (trees.intent("SET"),), (trees.slot("WHAT"),), normalizer)
    actions = transitions.oracle(tree)

    def loss_fn(tape):
        return rnng.example_loss(model, tokens, actions, tape)

    report = gradcheck_mod.grad_check(
        loss_fn,
        model.store,
        tolerance=args.tolerance,
        max_coords_per_param=args.max_coords,
        rng=np.random.default_rng(seed),
        corrupt_param=args.corrupt,
    )
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameparse",
        description="Hierarchical intent-slot semantic parsing toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a file of bracketed trees")
    p.add_argument("trees")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics from a 3-column TSV")
    p.add_argument("tsv")
    p.add_argument("-o", "--out-prefix", default=None,
                   help="write <prefix>.stats.json/.depth.csv/.length.csv")
    p.add_argument("--lenient", dest="strict", action="store_false",
                   help="skip malformed lines instead of aborting")
    p.set_defaults(handler=cmd_stats, strict=True)

    p = sub.add_parser("oracle", help="convert trees to action sequences")
    p.add_argument("trees")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--verify", action="store_true",
                   help="re-execute each sequence and compare against the tree")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("train", help="train a parser on a TSV corpus")
    p.add_argument("train_tsv")
    p.add_argument("--valid", default=None, help="validation TSV for per-epoch exact match")
    p.add_argument("-o", "--output", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="JSON log path (default <output>.log.json)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--embeddings", default=None, help="pretrained embedding text file")
    p.add_argument("--lenient", dest="strict", action="store_false")
    for name, kind in (
        ("word-dim", int), ("label-dim", int), ("action-dim", int),
        ("lstm-units", int), ("lstm-layers", int), ("dropout", float),
        ("lr", float), ("weight-decay", float), ("epochs", int),
        ("beam-size", int), ("seed", int), ("max-open-nts", int),
    ):
        p.add_argument(f"--{name}", type=kind, default=None)
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--finetune-embeddings", dest="finetune_embeddings",
                   action="store_const", const=True, default=None,
                   help="update pretrained embedding rows during training")
    for enc in rnng.ENCODERS:
        p.add_argument(f"--no-{enc}", dest=f"use_{enc}", action="store_const", const=False,
                       default=None, help=f"disable the {enc} encoder")
    p.set_defaults(handler=cmd_train, strict=True)

    p = sub.add_parser("parse", help="parse tokenized utterances (one per line)")
    p.add_argument("checkpoint")
    p.add_argument("utterances")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--beam", type=int, default=None)
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("eval", help="score a prediction file against gold trees")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--topk", default=None,
                   help="treat pred as beam output and report these top-k accuracies, e.g. 1,3,5")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full training step")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--max-coords", type=int, default=40,
                   help="coordinates sampled per parameter")
    p.add_argument("--corrupt", default=None,
                   help="debug: corrupt this parameter's analytic gradient (must fail)")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (dataset.IngestError, CheckpointError, trees.FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (metrics.LengthMismatch, transitions.TransitionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
