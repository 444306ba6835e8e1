"""Command-line interface.

Commands: validate, stats, oracle, train, parse, eval, gradcheck.
Exit codes: 0 success, 1 validation or metric failure (or a training loss
that is not finite), 2 usage (including train and gradcheck flag values the
configuration refuses, alone or together), 3 I/O or refused input.  Every
text input is read by ``dataset.read_lines``.  Every output file is written
by ``dataset.write_file``, whole or not at all, and refused by
``dataset.check_writable`` before any input is read if it could not be.
Every refusal is a ``dataset.IngestError`` (a malformed checkpoint's is its
subclass ``CheckpointError``), which ``main`` alone turns into exit 3 and
``error: <path>: line N: <message>``, or ``error: <path>: <message>`` where
no one line is at fault: an input that cannot be opened or is not UTF-8, an
output that cannot be written, a checkpoint that cannot be opened or is
malformed, a corpus, gold-tree or embeddings file with a bad line (an
embeddings line without ``word_dim`` values among them, or with a value that
is not a finite number where its word is in the vocabulary), a tree nested too
deep to check, and a config file with a line that is not key=value, names
no configuration field or holds a value the field refuses, or with values
that are invalid together.  A file's first bad line is refused, whatever its
fault.  A closed stdout (``frameparse oracle ... | head``) also exits 3.
The per-line reports ``validate``, ``oracle`` and ``parse`` print while
they carry on (``<path>:N: ...``) are not refusals.
Hyperparameters resolve as flag > config file (key=value lines) > default,
and every JSON artifact echoes the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import dataset, metrics, rnng, transitions, trees
from .neural import gradcheck as gradcheck_mod
from .preprocess import TokenNormalizer

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def load_config_file(path, defaults: rnng.RnngConfig) -> dict:
    """key=value lines naming fields of ``defaults``; blank lines and
    #-comments ignored.  Returns each value coerced to its field's type.

    Refused input raises ``IngestError`` naming the file and, for one line,
    the line: a line that is not key=value, names no field, or holds a
    value that cannot be coerced or that the configuration rejects with
    the other fields at ``defaults``; and values that are each valid but
    not together, such as every state encoder turned off."""
    known = {field.name for field in dataclasses.fields(defaults)}
    values = {}
    for lineno, line in dataset.read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise dataset.IngestError("config", f"expected key=value, got {line!r}", lineno, path)
        if key not in known:
            raise dataset.IngestError("config", f"unknown key {key!r}", lineno, path)
        try:
            values[key] = _field_value(defaults, key, value)
        except ValueError as err:
            raise dataset.IngestError("config", f"{key}={value}: {err}", lineno, path) from None
    try:
        dataclasses.replace(defaults, **values)
    except ValueError as err:
        raise dataset.IngestError("config", str(err), None, path) from None
    return values


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _field_value(defaults: rnng.RnngConfig, key: str, text: str):
    """``text`` coerced to the type of the configuration field ``key``, and
    checked with the other fields at ``defaults``: the one check of a
    config-file line and of a ``train`` flag.  Raises ``ValueError``."""
    like = getattr(defaults, key)
    if isinstance(like, bool):
        if text.lower() not in _BOOL_TRUE + _BOOL_FALSE:
            raise ValueError(f"expected one of {', '.join(_BOOL_TRUE + _BOOL_FALSE)}")
        value = text.lower() in _BOOL_TRUE
    else:
        try:
            value = type(like)(text)
        except ValueError:
            raise ValueError(f"expected {'an integer' if isinstance(like, int) else 'a number'}"
                             ) from None
    dataclasses.replace(defaults, **{key: value})
    return value


def _field_flag(key: str):
    """The argparse type of a flag for configuration field ``key``."""

    def check(text: str):
        try:
            return _field_value(rnng.RnngConfig(), key, text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return check


def resolve_train_config(args) -> rnng.RnngConfig:
    """flag > config file > RnngConfig default, per field.  Each flag and
    the file are already checked, so only flags that turn off the last
    state encoder are refused here: ``AllEncodersDisabled``, a usage error."""
    resolved = {}
    if args.config:
        resolved = load_config_file(args.config, rnng.RnngConfig())
    for field in dataclasses.fields(rnng.RnngConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            resolved[field.name] = flag
    return rnng.RnngConfig(**resolved)


def _json(payload: dict) -> str:
    """The text of a JSON artifact: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_or_print(path, chunks) -> None:
    """Text ``chunks`` to the file ``path``, or to stdout if it is None."""
    if path:
        dataset.write_file(path, chunks)
    else:
        sys.stdout.writelines(chunks)


def cmd_validate(args) -> int:
    n_lines = 0
    n_bad = 0
    for lineno, line in dataset.read_lines(args.trees):
        line = line.strip()
        if not line:
            continue
        n_lines += 1
        try:
            tree = trees.parse_bracketed(line)
        except trees.NestingTooDeep as err:
            # Too deep to check at all: the input is refused, not judged.
            raise dataset.IngestError("tree-format", str(err), lineno, args.trees) from None
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


def _load_tsv(path, split, strict: bool) -> dataset.Corpus:
    """``dataset.load_tsv``, with a warning for each line it skipped."""
    corpus = dataset.load_tsv(path, split=split, strict=strict)
    for issue in corpus.skipped:
        print(f"warning: {path}: skipped line {issue.line}: {issue.message}", file=sys.stderr)
    return corpus


def cmd_stats(args) -> int:
    paths = ([f"{args.out_prefix}.{name}" for name in ("stats.json", "depth.csv", "length.csv")]
             if args.out_prefix else [])
    dataset.check_writable(*paths)
    corpus = _load_tsv(args.tsv, dataset.Split.UNSPLIT, args.strict)
    stats = dataset.compute_stats(corpus)
    payload = stats.to_json_dict()
    payload["config"] = {"tsv": str(args.tsv), "strict": args.strict}
    text = _json(payload)
    sys.stdout.write(text)
    for path, content in zip(paths, (text, stats.depth_csv(), stats.length_csv())):
        dataset.write_file(path, [content])
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.output:
        dataset.check_writable(args.output)
    sequences = []
    failures = 0
    for lineno, line in dataset.read_lines(args.trees):
        line = line.strip()
        if not line:
            continue
        try:
            tree = trees.parse_bracketed(line)
            actions = transitions.oracle(tree)
        except trees.NestingTooDeep as err:
            raise dataset.IngestError("tree-format", str(err), lineno, args.trees) from None
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
        sequences.append(transitions.format_actions(actions) + "\n")
    _write_or_print(args.output, sequences)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_train(args) -> int:
    log_path = args.log or f"{args.output}.log.json"
    dataset.check_writable(args.output, log_path)
    config = resolve_train_config(args)
    train_corpus = _load_tsv(args.train_tsv, dataset.Split.TRAIN, args.strict)
    valid_corpus = None
    if args.valid:
        valid_corpus = _load_tsv(args.valid, dataset.Split.VALID, args.strict)
    vocab, intents, slots = dataset.build_vocabs(train_corpus, min_count=args.min_count)
    normalizer = TokenNormalizer(frozenset(vocab.symbols))
    embeddings = None
    if args.embeddings:
        embeddings = dataset.load_embeddings(args.embeddings, vocab.symbols, config.word_dim,
                                             seed=config.seed)
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

    # A diverging run overflows on its way to a non-finite loss; the
    # NonFiniteLoss it raises is the one report, not numpy's warnings.
    with np.errstate(all="ignore"):
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
    dataset.write_file(log_path, [_json(log)])
    print(f"saved checkpoint to {args.output}")
    return EXIT_OK


def cmd_parse(args) -> int:
    meta_path = f"{args.output}.meta.json"
    if args.output:
        dataset.check_writable(args.output, meta_path)
    utterances = [line.split() for _, line in dataset.read_lines(args.utterances)]
    failures = 0
    for lineno, tokens in enumerate(utterances, start=1):
        try:
            if not tokens:
                raise ValueError("empty utterance")
            for token in tokens:
                trees.Token(token)  # refuses a bracket
        except ValueError as err:
            print(f"{args.utterances}:{lineno}: {err}", file=sys.stderr)
            failures += 1
    if failures:
        return EXIT_FAIL
    model = rnng.load_model(args.checkpoint)
    beam = args.beam if args.beam is not None else model.config.beam_size

    def blocks():
        for tokens in utterances:
            # A beam of one is greedy decoding, bit for bit, minus the beam's
            # ranking work.
            results = ([rnng.parse_greedy(model, tokens)] if beam == 1
                       else rnng.parse_beam(model, tokens, beam))
            yield "".join(f"{score:.6f}\t{trees.serialize(tree)}\n"
                          for tree, score in results) + "\n"

    _write_or_print(args.output, blocks())
    if args.output:
        meta = {
            "config": dataclasses.asdict(model.config),
            "checkpoint": str(args.checkpoint),
            "beam": beam,
            "utterances": str(args.utterances),
        }
        dataset.write_file(meta_path, [_json(meta)])
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.json:
        dataset.check_writable(args.json)
    gold = metrics.read_gold_file(args.gold)
    # Validity comes from the trees: a line parses exactly when its tree is
    # not None, so no line is parsed twice.
    if args.topk:
        beams, _ = metrics.read_beam_file(args.pred)
        pred = [beam[0] for beam in beams]
        report = metrics.evaluate(gold, pred, beams=beams, top_ks=args.topk)
    else:
        report = metrics.evaluate(gold, metrics.read_predictions_file(args.pred))
    print(report.to_table())
    if args.json:
        payload = report.to_json_dict()
        payload["config"] = {
            "gold": str(args.gold),
            "pred": str(args.pred),
            "topk": args.topk,
        }
        dataset.write_file(args.json, [_json(payload)])
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
    )
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAIL


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _positive_int_list(text: str) -> list:
    """A comma list of positive integers, such as ``1,3,5``; returns them
    sorted, without repeats."""
    try:
        return sorted({_positive_int(part) for part in text.split(",")})
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of positive integers, got {text!r}"
        ) from None


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
    p.add_argument("--min-count", type=_positive_int, default=1)
    p.add_argument("--embeddings", default=None, help="pretrained embedding text file")
    p.add_argument("--lenient", dest="strict", action="store_false")
    for name in ("word-dim", "label-dim", "action-dim", "lstm-units", "lstm-layers", "dropout",
                 "lr", "weight-decay", "epochs", "beam-size", "seed", "max-open-nts"):
        p.add_argument(f"--{name}", type=_field_flag(name.replace("-", "_")), default=None)
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
    p.add_argument("--beam", type=_positive_int, default=None)
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("eval", help="score a prediction file against gold trees")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--topk", type=_positive_int_list, default=None,
                   help="treat pred as beam output and report these top-k accuracies, e.g. 1,3,5")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full training step")
    p.add_argument("--seed", type=_field_flag("seed"), default=None)
    p.add_argument("--tolerance", type=_positive_float, default=1e-4)
    p.add_argument("--max-coords", type=_positive_int, default=40,
                   help="coordinates sampled per parameter")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except rnng.AllEncodersDisabled as err:  # from train flags (see resolve_train_config)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except dataset.IngestError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError as err:  # stdout's reader has gone, as in `| head`
        print(f"error: {err}", file=sys.stderr)
        # stdout still holds what it could not write; point it at devnull so
        # that its flush at exit does not fail on the pipe a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    except (metrics.LengthMismatch, transitions.TransitionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
