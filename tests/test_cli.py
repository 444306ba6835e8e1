import errno
import json
import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import synth
from frameparse import dataset, metrics, rnng, transitions
from frameparse.cli import main
from frameparse.neural import core
from frameparse.trees import serialize

NESTED = (
    "[IN:GET_DIRECTIONS Driving directions to "
    "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] [SL:CAT_EVENT game ] ] ] ]"
)

TINY_FLAGS = [
    "--word-dim", "8", "--label-dim", "6", "--action-dim", "5",
    "--lstm-units", "9", "--lstm-layers", "1", "--dropout", "0.0",
]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def corpus_tsv(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    corpus = synth.learnable_corpus(seed=21, size=24)
    path = base / "train.tsv"
    synth.write_tsv(path, corpus)
    return str(path), corpus


def test_validate_ok(tmp_path, capsys):
    path = write_lines(tmp_path / "trees.txt", [NESTED, "[IN:X hello ]"])
    assert main(["validate", path]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    path = write_lines(tmp_path / "trees.txt", ["[SL:Y hello ]", "[IN:X a"])
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "RootNotIntent" in out
    assert "format" in out


@pytest.mark.parametrize("command", ["validate", "oracle", "eval"])
def test_validate_too_deep_tree_exits_three(tmp_path, capsys, command):
    """2,400 nested non-terminals: refused with a typed error, no traceback
    and no output file, by every command that reads trees (eval's gold)."""
    labels = ["IN:A" if level % 2 == 0 else "SL:B" for level in range(2400)]
    deep = "".join(f"[{label} " for label in labels) + "w" + " ]" * 2400
    path = write_lines(tmp_path / "trees.txt", ["[IN:X hello ]", deep])
    out = tmp_path / "out.txt"
    pred = write_lines(tmp_path / "pred.txt", ["[IN:X hello ]", "[IN:X w ]"])
    args = {
        "validate": ["validate", path],
        "oracle": ["oracle", path, "-o", str(out)],
        "eval": ["eval", path, pred, "--json", str(out)],
    }[command]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2: ") and "deeper than 100" in err
    assert not out.exists()


def test_validate_empty_file_warns(tmp_path, capsys):
    path = write_lines(tmp_path / "trees.txt", [])
    assert main(["validate", path]) == 0
    assert "no trees" in capsys.readouterr().err


def test_stats_writes_artifacts(tmp_path, capsys, corpus_tsv):
    tsv, corpus = corpus_tsv
    prefix = str(tmp_path / "out")
    assert main(["stats", tsv, "-o", prefix]) == 0
    payload = json.loads((tmp_path / "out.stats.json").read_text())
    assert payload["count"] == len(corpus)
    assert payload["config"]["strict"] is True
    depth_csv = (tmp_path / "out.depth.csv").read_text().splitlines()
    assert depth_csv[0] == "depth,count"
    assert (tmp_path / "out.length.csv").exists()


def test_stats_single_line(tmp_path, capsys):
    tsv = write_lines(tmp_path / "one.tsv", ["hello\thello\t[IN:X hello ]"])
    assert main(["stats", tsv]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_stats_strict_vs_lenient(tmp_path, capsys):
    tsv = write_lines(
        tmp_path / "mixed.tsv",
        ["hello\thello\t[IN:X hello ]", "broken line"],
    )
    assert main(["stats", tsv]) == 3
    capsys.readouterr()
    assert main(["stats", tsv, "--lenient"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["count"] == 1
    assert captured.err.startswith(f"warning: {tsv}: skipped line 2: ")


def test_stats_missing_file(tmp_path):
    assert main(["stats", str(tmp_path / "nope.tsv")]) == 3


@pytest.mark.parametrize("command", ["validate", "stats", "oracle", "eval", "eval-pred",
                                     "eval-topk", "train-config", "train-embeddings", "parse"])
def test_undecodable_input_exits_three(tmp_path, capsys, command):
    """A byte that is not UTF-8 is refused input (exit 3), not a failed check."""
    trees_path = tmp_path / "trees.txt"
    trees_path.write_bytes(b"[IN:X a ]\n[IN:X \xff ]\n")
    tsv_path = tmp_path / "c.tsv"
    tsv_path.write_bytes(b"a\ta\t[IN:X a ]\n\xff\tb\t[IN:X b ]\n")
    good_tsv = write_lines(tmp_path / "good.tsv", ["a\ta\t[IN:X a ]"])
    vectors_path = tmp_path / "vectors.txt"
    vectors_path.write_bytes(b"a 0.1 0.2 0.3\n\xff 0.1 0.2 0.3\n")
    utterances_path = tmp_path / "utts.txt"
    utterances_path.write_bytes(b"show the weather\nshow \xff\n")
    good_trees = write_lines(tmp_path / "good.txt", ["[IN:X a ]", "[IN:X b ]"])
    config_path = tmp_path / "train.cfg"
    config_path.write_bytes(b"epochs=0\nseed=\xff\n")
    args, named = {
        "validate": (["validate", str(trees_path)], trees_path),
        "stats": (["stats", str(tsv_path), "--lenient"], tsv_path),
        "oracle": (["oracle", str(trees_path)], trees_path),
        "eval": (["eval", str(trees_path), good_trees], trees_path),
        "eval-pred": (["eval", good_trees, str(trees_path)], trees_path),
        "eval-topk": (["eval", good_trees, str(trees_path), "--topk", "1"], trees_path),
        "train-config": (["train", good_tsv, "-o", str(tmp_path / "m.ckpt"), "--config",
                          str(config_path)], config_path),
        "train-embeddings": (["train", good_tsv, "-o", str(tmp_path / "m.ckpt"), "--embeddings",
                              str(vectors_path), "--word-dim", "3", "--epochs", "0"],
                             vectors_path),
        # The utterances are read before the checkpoint, which does not exist.
        "parse": (["parse", str(tmp_path / "missing.ckpt"), str(utterances_path)],
                  utterances_path),
    }[command]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: line 2: not valid UTF-8 (")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "stats", "oracle", "train", "train-valid",
                                     "train-config", "train-embeddings", "eval", "eval-pred",
                                     "eval-topk", "parse"])
def test_missing_input_exits_three_naming_the_file(tmp_path, capsys, command):
    """Every text input a command reads is refused the same way when it
    cannot be opened."""
    missing = str(tmp_path / "missing.txt")
    good_tsv = write_lines(tmp_path / "good.tsv", ["a\ta\t[IN:X a ]"])
    good_trees = write_lines(tmp_path / "good.txt", ["[IN:X a ]"])
    train = ["train", good_tsv, "-o", str(tmp_path / "m.ckpt"), "--epochs", "0"]
    args = {
        "validate": ["validate", missing],
        "stats": ["stats", missing],
        "oracle": ["oracle", missing],
        "train": ["train", missing, "-o", str(tmp_path / "m.ckpt")],
        "train-valid": train + ["--valid", missing],
        "train-config": train + ["--config", missing],
        "train-embeddings": train + ["--embeddings", missing],
        "eval": ["eval", missing, good_trees],
        "eval-pred": ["eval", good_trees, missing],
        "eval-topk": ["eval", good_trees, missing, "--topk", "1"],
        "parse": ["parse", str(tmp_path / "missing.ckpt"), missing],
    }[command]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
    assert not (tmp_path / "m.ckpt").exists()


def test_oracle_minimal(tmp_path, capsys):
    path = write_lines(tmp_path / "trees.txt", ["[IN:X hello ]"])
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out.strip() == "NT(IN:X) SHIFT REDUCE"


def test_oracle_nested_sixteen_actions(tmp_path, capsys):
    path = write_lines(tmp_path / "trees.txt", [NESTED])
    assert main(["oracle", path, "--verify"]) == 0
    line = capsys.readouterr().out.strip()
    assert len(line.split()) == 16
    assert line.startswith("NT(IN:GET_DIRECTIONS) SHIFT SHIFT SHIFT NT(SL:DESTINATION)")


def test_oracle_verify_random_trees(tmp_path, capsys):
    rng = np.random.default_rng(40)
    lines = []
    from frameparse.trees import serialize

    for _ in range(300):
        lines.append(serialize(synth.random_valid_tree(rng, max_tokens=10)))
    path = write_lines(tmp_path / "trees.txt", lines)
    out_path = tmp_path / "actions.txt"
    assert main(["oracle", path, "--verify", "-o", str(out_path)]) == 0
    assert len(out_path.read_text().splitlines()) == 300


def test_oracle_verify_deepest_parsable_tree(tmp_path, capsys):
    """A valid tree nested 100 deep (the parser's limit) passes --verify."""
    labels = ["IN:A" if level % 2 == 0 else "SL:B" for level in range(100)]
    deep = "".join(f"[{label} " for label in labels) + "w" + " ]" * 100
    path = write_lines(tmp_path / "trees.txt", [deep])
    assert main(["validate", path]) == 0
    assert main(["oracle", path, "--verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split().count("REDUCE") == 100


def test_oracle_invalid_tree(tmp_path):
    path = write_lines(tmp_path / "trees.txt", ["[SL:Y hello ]"])
    assert main(["oracle", path]) == 1


def test_oracle_refused_input_creates_no_output(tmp_path, capsys):
    trees_path = tmp_path / "trees.txt"
    trees_path.write_bytes(b"[IN:X a ]\n[IN:X \xff ]\n")
    out = tmp_path / "out.txt"
    assert main(["oracle", str(trees_path), "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {trees_path}: line 2: not valid UTF-8")
    assert not out.exists()


def test_train_parse_eval_pipeline(tmp_path, capsys, corpus_tsv):
    tsv, corpus = corpus_tsv
    ckpt = str(tmp_path / "model.ckpt")
    rc = main(
        ["train", tsv, "-o", ckpt, "--epochs", "2", "--seed", "7", "--valid", tsv]
        + TINY_FLAGS
    )
    assert rc == 0
    log = json.loads((tmp_path / "model.ckpt.log.json").read_text())
    assert len(log["epochs"]) == 2
    assert "valid_exact_match" in log["epochs"][0]
    assert log["config"]["lstm_units"] == 9
    assert "workers" not in log
    capsys.readouterr()

    utterances = str(tmp_path / "utts.txt")
    write_lines(tmp_path / "utts.txt", [" ".join(e.tokens) for e in corpus.examples[:5]])
    pred1 = str(tmp_path / "pred1.txt")
    assert main(["parse", ckpt, utterances, "-o", pred1, "--beam", "1"]) == 0
    blocks = (tmp_path / "pred1.txt").read_text().split("\n\n")
    assert len([b for b in blocks if b.strip()]) == 5
    assert (tmp_path / "pred1.txt.meta.json").exists()

    pred5 = str(tmp_path / "pred5.txt")
    assert main(["parse", ckpt, utterances, "-o", pred5, "--beam", "5"]) == 0
    first_block = (tmp_path / "pred5.txt").read_text().split("\n\n")[0].splitlines()
    assert 1 <= len(first_block) <= 5
    for line in first_block:
        score, tree_text = line.split("\t")
        float(score)

    gold = str(tmp_path / "gold.txt")
    from frameparse.trees import serialize

    write_lines(tmp_path / "gold.txt", [serialize(e.tree) for e in corpus.examples[:5]])
    report_path = str(tmp_path / "report.json")
    assert main(["eval", gold, pred5, "--topk", "1,3,5", "--json", report_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    ks = report["top_k"]
    assert ks["1"] <= ks["3"] <= ks["5"]
    assert report["tree_validity"] == 100.0


def test_train_epochs_zero_saves_initial_model(tmp_path, corpus_tsv):
    tsv, _ = corpus_tsv
    ckpt = str(tmp_path / "init.ckpt")
    assert main(["train", tsv, "-o", ckpt, "--epochs", "0", "--seed", "1"] + TINY_FLAGS) == 0
    from frameparse.rnng import load_model

    model = load_model(ckpt)
    assert model.config.epochs == 0


def test_parse_with_a_beam_of_one_decodes_greedily(tmp_path, capsys, corpus_tsv, monkeypatch):
    # The output is byte for byte what parse_beam(k=1) renders, but the
    # beam search never runs: a beam of one is greedy decoding.
    tsv, corpus = corpus_tsv
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", tsv, "-o", ckpt, "--epochs", "1", "--seed", "3"] + TINY_FLAGS) == 0
    examples = corpus.examples[:8]
    utterances = write_lines(tmp_path / "utts.txt", [" ".join(e.tokens) for e in examples])
    model = rnng.load_model(ckpt)
    expected = "".join(
        "".join(f"{score:.6f}\t{serialize(tree)}\n" for tree, score in
                rnng.parse_beam(model, e.tokens, 1)) + "\n"
        for e in examples
    )

    def no_beam(*args):
        raise AssertionError("parse_beam ran for a beam of one")

    monkeypatch.setattr(rnng, "parse_beam", no_beam)
    for flags in ([], ["--beam", "1"]):  # the checkpoint's beam_size is 1
        pred = tmp_path / "pred.txt"
        assert main(["parse", ckpt, utterances, "-o", str(pred)] + flags) == 0
        assert pred.read_text(encoding="utf-8") == expected


def test_plain_eval_scores_the_default_parse_output(tmp_path, capsys, corpus_tsv):
    """parse writes ``score<TAB>tree`` and a blank line per utterance, with a
    beam of one by default.  Plain eval reads the tree after the score, so it
    scores that output exactly as ``eval --topk 1`` does, not as all invalid;
    a beam with more than one tree per utterance is refused by its count."""
    tsv, corpus = corpus_tsv
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", tsv, "-o", ckpt, "--epochs", "1", "--seed", "3"] + TINY_FLAGS) == 0
    examples = corpus.examples[:8]
    utterances = write_lines(tmp_path / "utts.txt", [" ".join(e.tokens) for e in examples])
    gold = write_lines(tmp_path / "gold.txt", [serialize(e.tree) for e in examples])
    pred = str(tmp_path / "pred.txt")
    assert main(["parse", ckpt, utterances, "-o", pred]) == 0
    reports = []
    for flags in ([], ["--topk", "1"]):
        report = tmp_path / "report.json"
        assert main(["eval", gold, pred, "--json", str(report)] + flags) == 0
        reports.append(json.loads(report.read_text()))
    plain, topk = ({k: v for k, v in r.items() if k not in ("top_k", "config")} for r in reports)
    assert plain == topk
    assert (plain["tree_validity"], plain["n_invalid_predictions"]) == (100.0, 0)
    capsys.readouterr()

    beams = write_lines(
        tmp_path / "beams.txt", ["-0.5\t[IN:X a ]", "-0.9\t[IN:Y a ]", "", "-0.1\t[IN:X b ]", ""]
    )
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]", "[IN:X b ]"])
    assert main(["eval", gold, beams]) == 1
    assert capsys.readouterr().err == "error: 2 gold trees vs 3 predictions\n"
    assert main(["eval", gold, beams, "--topk", "1"]) == 0


def test_parse_checks_every_line_before_writing(tmp_path, capsys, monkeypatch):
    """Every empty utterance and every one with a bracket token is reported,
    then parse exits 1 before it loads the model or writes anything."""
    utterances = write_lines(tmp_path / "utts.txt", ["turn on", "", "turn [ on", "  ", "off ]"])
    monkeypatch.setattr(rnng, "load_model", lambda path: pytest.fail("the model was loaded"))
    pred = tmp_path / "pred.txt"
    for output in ([], ["-o", str(pred)]):
        assert main(["parse", str(tmp_path / "m.ckpt"), utterances] + output) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"{utterances}:2: empty utterance\n"
            f"{utterances}:3: token may not contain whitespace or brackets: '['\n"
            f"{utterances}:4: empty utterance\n"
            f"{utterances}:5: token may not contain whitespace or brackets: ']'\n"
        )
    assert list(tmp_path.iterdir()) == [tmp_path / "utts.txt"]


@pytest.mark.parametrize(
    "header",
    [
        {"version": 1, "meta": {}},
        {"version": 1, "meta": {}, "arrays": [{"name": "w", "dtype": "<f4", "shape": [2],
                                                "nbytes": 7}]},
        ["not", "a", "dict"],
        {"version": 1, "meta": {}, "arrays": [{"name": "w", "dtype": "<f4", "shape": [2]}]},
    ],
    ids=["no-arrays", "nbytes-mismatch", "header-not-a-dict", "entry-missing-key"],
)
def test_parse_malformed_checkpoint_exits_three(tmp_path, capsys, header):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"FRAMEPARSE-CKPT\n" + json.dumps(header).encode() + b"\n" + bytes(8))
    utterances = write_lines(tmp_path / "utts.txt", ["show the weather"])
    assert main(["parse", str(ckpt), utterances]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_checkpoint_declaring_more_than_the_file_exits_three(tmp_path, capsys):
    # 4 TiB declared, 8 bytes present: refused before any array is read.
    header = {"version": 1, "meta": {}, "arrays": [{"name": "w", "dtype": "<f4",
                                                     "shape": [1 << 40], "nbytes": 4 << 40}]}
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(b"FRAMEPARSE-CKPT\n" + json.dumps(header).encode() + b"\n" + bytes(8))
    utterances = write_lines(tmp_path / "utts.txt", ["show the weather"])
    assert main(["parse", str(ckpt), utterances]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "declares 4398046511104 bytes, but 8" in err


@pytest.mark.parametrize("topk", ["one", "0", "1,,3"])
def test_eval_malformed_topk_is_a_usage_error(tmp_path, capsys, topk):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X hello ]"])
    with pytest.raises(SystemExit) as err:
        main(["eval", gold, gold, "--topk", topk])
    assert err.value.code == 2
    assert "--topk: expected a comma list of positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("beam", ["0", "-1", "two"])
def test_parse_non_positive_beam_is_a_usage_error(tmp_path, capsys, beam):
    # Refused by the argument parser, before the checkpoint (which does not
    # exist here) is opened or the output file is created.
    utterances = write_lines(tmp_path / "utts.txt", ["show the weather"])
    pred = tmp_path / "pred.txt"
    with pytest.raises(SystemExit) as err:
        main(["parse", str(tmp_path / "missing.ckpt"), utterances, "-o", str(pred),
              "--beam", beam])
    assert err.value.code == 2
    assert "--beam: expected a positive integer" in capsys.readouterr().err
    assert not pred.exists()


@pytest.mark.parametrize(
    "line", ["{word} 0.5 0.5", "{word} 0.5 nan 0.5", "{word} 0.5 inf 0.5", "{word} 0.5 x 0.5"],
    ids=["ragged", "nan", "inf", "non-numeric"],
)
def test_train_bad_embeddings_exit_three(tmp_path, capsys, corpus_tsv, line):
    tsv, corpus = corpus_tsv
    word = corpus.examples[0].tokens[0]
    embeddings = write_lines(tmp_path / "vectors.txt", [f"{word} 0.1 0.2 0.3",
                                                        line.format(word=word)])
    ckpt = tmp_path / "model.ckpt"
    flags = ["--embeddings", embeddings, "--word-dim", "3", "--epochs", "0"]
    assert main(["train", tsv, "-o", str(ckpt)] + flags) == 3
    assert capsys.readouterr().err.startswith(f"error: {embeddings}: line 2: ")
    assert not ckpt.exists()


def test_embeddings_values_are_read_only_for_words_in_the_vocabulary(tmp_path, capsys):
    """Every line's values are counted, but only a vocabulary word's are
    read: reading the rest would parse a whole pretrained file."""
    outside = write_lines(tmp_path / "outside.txt", ["zzz x nan 1", "alpha 1 2 3"])
    vectors, pretrained = dataset.load_embeddings(outside, ["alpha"], 3)
    assert vectors.tolist() == [[1.0, 2.0, 3.0]] and pretrained.tolist() == [True]
    tsv = write_lines(tmp_path / "c.tsv", ["alpha\talpha\t[IN:X alpha ]"])
    inside = write_lines(tmp_path / "inside.txt", ["alpha 1 nan 3"])
    ckpt = tmp_path / "model.ckpt"
    train = ["train", tsv, "-o", str(ckpt), "--word-dim", "3", "--epochs", "0", "--embeddings"]
    assert main(train + [outside]) == 0
    capsys.readouterr()
    assert main(train + [inside]) == 3
    assert capsys.readouterr().err == (
        f"error: {inside}: line 1: non-finite embedding value for 'alpha'\n")


def test_train_embeddings_of_another_dimension_exit_three(tmp_path, capsys, corpus_tsv):
    tsv, corpus = corpus_tsv
    word = corpus.examples[0].tokens[0]
    embeddings = write_lines(tmp_path / "vectors.txt", [f"{word} 0.1 0.2"])
    ckpt = tmp_path / "model.ckpt"
    flags = ["--embeddings", embeddings, "--word-dim", "3", "--epochs", "0"]
    assert main(["train", tsv, "-o", str(ckpt)] + flags) == 3
    assert capsys.readouterr().err == (
        f"error: {embeddings}: line 1: expected 3 values, found 2\n")
    assert not ckpt.exists()


def test_train_refuses_a_non_finite_loss(tmp_path, corpus_tsv):
    """A learning rate that blows the parameters up turns the loss NaN:
    training stops with exit 1, says so in one error line and writes no
    checkpoint and no log.  It runs in a subprocess so that stderr is all a
    user would see, numpy's overflow warnings included."""
    tsv, _ = corpus_tsv
    ckpt = tmp_path / "model.ckpt"
    result = subprocess.run(
        [sys.executable, "-m", "frameparse.cli", "train", tsv, "-o", str(ckpt), "--epochs", "3",
         "--lr", "1e30"] + TINY_FLAGS,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 1, result.stderr
    assert re.fullmatch(r"error: epoch \d+, example \d+: loss is (nan|-?inf) on example '[^\n]*'\n",
                        result.stderr), result.stderr
    assert "NaN" not in result.stdout
    assert not ckpt.exists()
    assert not (tmp_path / "model.ckpt.log.json").exists()


def test_train_lenient_warns_for_each_skipped_line(tmp_path, capsys):
    train = write_lines(tmp_path / "train.tsv", ["a\ta\t[IN:X a ]", "broken line"])
    valid = write_lines(tmp_path / "valid.tsv", ["a\ta\t[IN:X a ]", "b\tb\t[IN:X b ]",
                                                 "two\tcolumns"])
    args = ["train", train, "--valid", valid, "-o", str(tmp_path / "m.ckpt"), "--lenient",
            "--epochs", "0"] + TINY_FLAGS
    assert main(args) == 0
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith(f"warning: {train}: skipped line 2: ")
    assert second.startswith(f"warning: {valid}: skipped line 3: ")


@pytest.mark.parametrize("bad", ["train", "valid"])
def test_train_bad_tsv_error_names_the_file(tmp_path, capsys, corpus_tsv, bad):
    """With a training and a validation corpus, the error says which is bad."""
    tsv, _ = corpus_tsv
    broken = write_lines(tmp_path / "broken.tsv", ["a\ta\t[IN:X a ]", "two\tcolumns"])
    train, valid = (broken, tsv) if bad == "train" else (tsv, broken)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", train, "--valid", valid, "-o", str(ckpt), "--epochs", "0"]
                + TINY_FLAGS) == 3
    err = capsys.readouterr().err
    assert err == f"error: {broken}: line 2: expected 3 tab-separated columns, found 2\n"
    assert not ckpt.exists()


def _set(key, value):
    def edit(meta):
        meta[key] = value
    return edit


def _delete(key):
    def edit(meta):
        del meta[key]
    return edit


def _add_config_key(meta):
    meta["config"]["no_such_option"] = 1


def _set_config(key, value):
    def edit(meta):
        meta["config"][key] = value
    return edit


BAD_MODEL_META = {
    "no-config": _delete("config"),
    "config-not-object": _set("config", ["word_dim", 8]),
    "unknown-config-key": _add_config_key,
    "fractional-seed": _set_config("seed", 1.5),
    "fractional-lstm-units": _set_config("lstm_units", 2.5),
    "boolean-seed": _set_config("seed", True),
    "string-use-stack": _set_config("use_stack", "yes"),
    "no-token-vocab": _delete("token_vocab"),
    "token-vocab-not-list": _set("token_vocab", "turn the lights"),
    "no-intent-labels": _delete("intent_labels"),
    "intent-label-not-str": _set("intent_labels", [3]),
    "unparsable-label": _set("intent_labels", ["XX:NOT_A_LABEL"]),
    "no-slot-labels": _delete("slot_labels"),
    "slot-labels-not-list": _set("slot_labels", {"SL:WHAT": 1}),
    "no-normalizer": _delete("normalizer"),
    "normalizer-not-object": _set("normalizer", ["abc"]),
}


@pytest.mark.parametrize("edit", BAD_MODEL_META.values(), ids=BAD_MODEL_META.keys())
def test_parse_bad_model_meta_exits_three(tmp_path, capsys, corpus_tsv, edit):
    from frameparse.neural.params import load_checkpoint, save_checkpoint

    tsv, _ = corpus_tsv
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", tsv, "-o", str(ckpt), "--epochs", "0", "--seed", "1"] + TINY_FLAGS) == 0
    arrays, meta = load_checkpoint(ckpt)
    edit(meta)
    save_checkpoint(ckpt, arrays, meta)
    utterances = write_lines(tmp_path / "utts.txt", ["show the weather"])
    capsys.readouterr()
    assert main(["parse", str(ckpt), utterances]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def _split_checkpoint(path):
    """(magic line, header dict, payload) of a checkpoint file."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    return magic, json.loads(header), payload


def _join_checkpoint(path, magic, header, payload):
    path.write_bytes(magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def _flip_payload_byte(magic, header, payload):
    payload = bytearray(payload)
    payload[len(payload) // 2] ^= 0x40
    return magic, header, bytes(payload)


@pytest.mark.parametrize(
    "corrupt",
    [_flip_payload_byte, lambda magic, header, payload: (magic, header, payload + b"\0")],
    ids=["flipped-payload-byte", "trailing-byte"],
)
def test_parse_corrupt_checkpoint_payload_exits_three(tmp_path, capsys, corpus_tsv, corrupt):
    tsv, _ = corpus_tsv
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", tsv, "-o", str(ckpt), "--epochs", "0", "--seed", "1"] + TINY_FLAGS) == 0
    _join_checkpoint(ckpt, *corrupt(*_split_checkpoint(ckpt)))
    utterances = write_lines(tmp_path / "utts.txt", ["show the weather"])
    capsys.readouterr()
    assert main(["parse", str(ckpt), utterances]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("sha256" in err or "trailing" in err)


def test_parse_checkpoint_without_digest_still_loads(tmp_path, capsys, corpus_tsv):
    tsv, _ = corpus_tsv
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", tsv, "-o", str(ckpt), "--epochs", "0", "--seed", "1"] + TINY_FLAGS) == 0
    utterances = write_lines(tmp_path / "utts.txt", ["show the weather", "turn the lights off"])
    with_digest, without_digest = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["parse", str(ckpt), utterances, "-o", str(with_digest)]) == 0
    magic, header, payload = _split_checkpoint(ckpt)
    del header["sha256"]
    _join_checkpoint(ckpt, magic, header, payload)
    assert main(["parse", str(ckpt), utterances, "-o", str(without_digest)]) == 0
    assert with_digest.read_text() == without_digest.read_text()


def test_train_missing_file(tmp_path):
    assert main(["train", str(tmp_path / "nope.tsv"), "-o", str(tmp_path / "m.ckpt")]) == 3


def test_train_config_file_precedence(tmp_path, corpus_tsv):
    tsv, _ = corpus_tsv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nlstm_units=11\ndropout=0.0\nword_dim=8\nlabel_dim=6\naction_dim=5\nlstm_layers=1\nseed=2\n")
    ckpt = str(tmp_path / "m.ckpt")
    # Flag overrides the file; file overrides the default.
    assert main(["train", tsv, "-o", ckpt, "--config", str(cfg), "--lstm-units", "9"]) == 0
    log = json.loads((tmp_path / "m.ckpt.log.json").read_text())
    assert log["config"]["lstm_units"] == 9
    assert log["config"]["epochs"] == 1


@pytest.mark.parametrize("line, message", [
    ("lstm_unit=5", "unknown key 'lstm_unit'"),
    ("lstm_units 5", "expected key=value, got 'lstm_units 5'"),
    ("epochs=abc", "epochs=abc: expected an integer"),
    ("use_stack=maybe", "use_stack=maybe: expected one of 1, true, yes, on, 0, false, no, off"),
    ("dropout=2", "dropout=2: dropout must be in [0, 1)"),
    ("epochs=-1", "epochs=-1: epochs must not be negative"),
    ("seed=-1", "seed=-1: seed must not be negative"),
    ("lr=nan", "lr=nan: lr must be finite and not negative"),
    ("weight_decay=-1", "weight_decay=-1: weight_decay must be finite and not negative"),
], ids=["unknown-key", "no-equals", "not-an-integer", "not-a-boolean", "out-of-range",
        "negative-epochs", "negative-seed", "nan-lr", "negative-weight-decay"])
def test_train_config_file_refuses_bad_line(tmp_path, capsys, corpus_tsv, line, message):
    tsv, _ = corpus_tsv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epochs=0\n{line}\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", tsv, "-o", str(ckpt), "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"error: {cfg}: line 2: {message}\n"
    assert not ckpt.exists()


def test_train_config_file_refuses_values_invalid_together(tmp_path, capsys, corpus_tsv):
    # Each line alone is a valid configuration; all three together turn
    # off every state encoder.
    tsv, _ = corpus_tsv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=0\nuse_stack=false\nuse_buffer=no\nuse_actions=0\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", tsv, "-o", str(ckpt), "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        f"error: {cfg}: at least one state encoder must be enabled\n")
    assert not ckpt.exists()


def _exit_code(argv) -> int:
    """``main``'s exit status, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


@pytest.mark.parametrize("flags, message", [
    (["--dropout", "2"], "argument --dropout: dropout must be in [0, 1)"),
    (["--lstm-units", "0"], "argument --lstm-units: lstm_units must be positive"),
    (["--epochs", "-1"], "argument --epochs: epochs must not be negative"),
    (["--beam-size", "0"], "argument --beam-size: beam_size must be positive"),
    (["--max-open-nts", "0"], "argument --max-open-nts: max_open_nts must be positive"),
    (["--min-count", "0"], "argument --min-count: expected a positive integer, got '0'"),
    (["--no-stack", "--no-buffer", "--no-actions"],
     "error: at least one state encoder must be enabled"),
    (["--seed", "-1"], "argument --seed: seed must not be negative"),
    (["--lr", "nan"], "argument --lr: lr must be finite and not negative"),
    (["--lr", "inf"], "argument --lr: lr must be finite and not negative"),
    (["--lr", "-1"], "argument --lr: lr must be finite and not negative"),
    (["--weight-decay", "-1"],
     "argument --weight-decay: weight_decay must be finite and not negative"),
], ids=["dropout", "lstm-units", "epochs", "beam-size", "max-open-nts", "min-count",
        "no-encoder", "negative-seed", "nan-lr", "inf-lr", "negative-lr",
        "negative-weight-decay"])
def test_train_flag_the_configuration_refuses_is_a_usage_error(tmp_path, capsys, corpus_tsv,
                                                               flags, message):
    tsv, _ = corpus_tsv
    ckpt = tmp_path / "m.ckpt"
    assert _exit_code(["train", tsv, "-o", str(ckpt)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_flag_invalid_with_the_config_file_is_a_usage_error(tmp_path, capsys,
                                                                  corpus_tsv):
    # The file alone is a valid configuration; the flag turns off its last
    # state encoder.
    tsv, _ = corpus_tsv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=0\nuse_stack=false\nuse_buffer=false\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", tsv, "-o", str(ckpt), "--config", str(cfg), "--no-actions"]) == 2
    assert capsys.readouterr().err == "error: at least one state encoder must be enabled\n"
    assert not ckpt.exists()


def test_eval_gold_vs_gold(tmp_path, capsys):
    gold = write_lines(tmp_path / "gold.txt", [NESTED, "[IN:X hello ]"])
    assert main(["eval", gold, gold]) == 0
    out = capsys.readouterr().out
    assert "100.00" in out


def test_eval_skips_blank_lines_in_both_files(tmp_path, capsys):
    """Gold and predictions follow one blank-line rule, so a tree file with a
    gap scores 100 against itself, and a prediction file may have its own
    gaps."""
    gap = write_lines(tmp_path / "gap.txt", ["[IN:X a ]", "", "[IN:X b ]"])
    assert main(["eval", gap, gap]) == 0
    assert "100.00" in capsys.readouterr().out
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]", "[IN:X b ]"])
    pred = write_lines(tmp_path / "pred.txt", ["", "[IN:X a ]", "  ", "broken [", ""])
    assert main(["eval", gold, pred]) == 0
    assert "50.00" in capsys.readouterr().out  # exact match 1/2


def test_eval_external_predictions(tmp_path, capsys):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]", "[IN:X b ]", "[IN:X c ]"])
    pred = write_lines(
        tmp_path / "pred.txt",
        ["[IN:X a ]", "totally broken [", "[IN:Y c ]"],
    )
    report_path = tmp_path / "report.json"
    assert main(["eval", gold, pred, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "33.33" in out  # exact match 1/3
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert (report["tree_validity"], report["n_invalid_predictions"]) == (100.0 * 2 / 3, 1)


def test_eval_length_mismatch(tmp_path):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]"])
    pred = write_lines(tmp_path / "pred.txt", ["[IN:X a ]", "[IN:X b ]"])
    assert main(["eval", gold, pred]) == 1


def test_eval_bad_gold_line_names_offset_once(tmp_path, capsys):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]", "[IN:X hello"])
    pred = write_lines(tmp_path / "pred.txt", ["[IN:X a ]", "[IN:X hello ]"])
    assert main(["eval", gold, pred]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {gold}: line 2: unclosed '[' (offset 0)\n"
    assert err.count("offset") == 1


@pytest.mark.parametrize("topk", [[], ["--topk", "1"]], ids=["plain", "topk"])
def test_eval_gold_without_trees_exits_three(tmp_path, capsys, topk):
    for lines in ([], ["", "  "]):
        gold = write_lines(tmp_path / "gold.txt", lines)
        assert main(["eval", gold, gold] + topk) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {gold}: no gold trees\n")


def test_eval_topk_parses_each_line_once(tmp_path, monkeypatch):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]", "[IN:X b ]"])
    beams = write_lines(tmp_path / "beams.txt",
                        ["-0.1\t[IN:X a ]", "-0.5\t[IN:Y a ]", "", "-0.2\t[IN:X b", ""])
    report_path = tmp_path / "report.json"
    parse, parsed = metrics.parse_bracketed, []
    monkeypatch.setattr(metrics, "parse_bracketed",
                        lambda text: parsed.append(text) or parse(text))
    assert main(["eval", gold, beams, "--topk", "1,2", "--json", str(report_path)]) == 0
    assert len(parsed) == 5  # 2 gold trees and 3 beam lines
    report = json.loads(report_path.read_text(encoding="utf-8"))
    monkeypatch.undo()
    assert report["tree_validity"] == metrics.tree_validity(["[IN:X a ]", "[IN:X b"]) == 50.0
    assert report["top_k"] == {"1": 50.0, "2": 50.0}


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--max-coords", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "worst parameter" in out


def test_gradcheck_corrupt_fails(capsys, monkeypatch):
    """A wrong backward in one op: the loss's gradient reaches the logits
    doubled, so every parameter's check fails."""
    masked_nll = core.masked_nll

    def doubled_masked_nll(tape, logits, gold_index, valid_indices):
        loss = masked_nll(tape, logits, gold_index, valid_indices)

        def double():  # replayed before masked_nll's own backward
            loss.grad *= 2.0

        tape.record(double)
        return loss

    monkeypatch.setattr(core, "masked_nll", doubled_masked_nll)
    assert main(["gradcheck", "--max-coords", "4"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^FAIL scorer\.bias ", out, re.MULTILINE), out
    assert out.splitlines()[-1].startswith("FAIL: ")


@pytest.mark.parametrize("coords", ["0", "-1"])
def test_gradcheck_max_coords_below_one_is_a_usage_error(capsys, coords):
    # Refused before any coordinate is checked: 0 checked none and passed.
    with pytest.raises(SystemExit) as err:
        main(["gradcheck", "--max-coords", coords])
    assert err.value.code == 2
    assert "--max-coords: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "argument --seed: seed must not be negative"),
    (["--seed", "x"], "argument --seed: expected an integer"),
    (["--tolerance", "nan"], "argument --tolerance: expected a positive finite number"),
    (["--tolerance", "-1"], "argument --tolerance: expected a positive finite number"),
    (["--tolerance", "0"], "argument --tolerance: expected a positive finite number"),
    (["--tolerance", "inf"], "argument --tolerance: expected a positive finite number"),
], ids=["negative-seed", "non-integer-seed", "nan-tolerance", "negative-tolerance",
        "zero-tolerance", "inf-tolerance"])
def test_gradcheck_bad_seed_or_tolerance_is_a_usage_error(capsys, flags, message):
    assert _exit_code(["gradcheck", "--max-coords", "1"] + flags) == 2
    assert message in capsys.readouterr().err


def test_train_determinism_bitwise(tmp_path, corpus_tsv):
    tsv, _ = corpus_tsv
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    for out in (a, b):
        rc = main(["train", tsv, "-o", str(out), "--epochs", "1", "--seed", "13"] + TINY_FLAGS)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exits_two():
    for argv in (
        ["definitely-not-a-command"],
        ["train", "train.tsv", "-o", "model.ckpt", "--workers", "2"],  # no such flag
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_pipeline_composition(tmp_path, capsys):
    """stats -> oracle -> train -> parse -> eval, end to end on one corpus."""
    corpus = synth.learnable_corpus(seed=51, size=20)
    tsv = tmp_path / "pipe.tsv"
    synth.write_tsv(tsv, corpus)
    from frameparse.trees import serialize

    gold = write_lines(tmp_path / "gold.txt", [serialize(e.tree) for e in corpus])
    utts = write_lines(tmp_path / "utts.txt", [" ".join(e.tokens) for e in corpus])
    ckpt = str(tmp_path / "pipe.ckpt")
    pred = str(tmp_path / "pred.txt")
    steps = [
        ["stats", str(tsv), "-o", str(tmp_path / "pipe")],
        ["oracle", gold, "--verify", "-o", str(tmp_path / "actions.txt")],
        ["train", str(tsv), "-o", ckpt, "--epochs", "1", "--seed", "2"] + TINY_FLAGS,
        ["parse", ckpt, utts, "--beam", "3", "-o", pred],
        ["eval", gold, pred, "--topk", "1,3", "--json", str(tmp_path / "report.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tree_validity"] == 100.0
    assert 0.0 <= report["exact_match"] <= 100.0


@pytest.fixture(scope="module")
def output_inputs(tmp_path_factory, corpus_tsv):
    """The inputs of every command that writes a file, a checkpoint among
    them."""
    base = tmp_path_factory.mktemp("inputs")
    tsv, corpus = corpus_tsv
    ckpt = str(base / "m.ckpt")
    assert main(["train", tsv, "-o", ckpt, "--epochs", "0", "--seed", "1"] + TINY_FLAGS) == 0
    return {
        "tsv": tsv,
        "ckpt": ckpt,
        "trees": write_lines(base / "trees.txt", [serialize(e.tree) for e in corpus.examples]),
        "utts": write_lines(base / "utts.txt", [" ".join(e.tokens) for e in corpus.examples]),
    }


STATS = ["stats", "{tsv}", "-o", "{dir}/out"]
PARSE = ["parse", "{ckpt}", "{utts}", "-o", "{dir}/pred.txt"]
# Every output file a command writes: the command line, with {dir} for the
# directory the output goes to and {work} for the other outputs'; the
# output's name in {dir}; and the name that a missing {dir} is reported
# under, the first output the command checks there.
OUTPUTS = {
    "stats-json": (STATS, "out.stats.json", "out.stats.json"),
    "stats-depth": (STATS, "out.depth.csv", "out.stats.json"),
    "stats-length": (STATS, "out.length.csv", "out.stats.json"),
    "oracle": (["oracle", "{trees}", "-o", "{dir}/actions.txt"], "actions.txt", "actions.txt"),
    "train": (["train", "{tsv}", "-o", "{dir}/m.ckpt"] + TINY_FLAGS, "m.ckpt", "m.ckpt"),
    "train-log": (["train", "{tsv}", "-o", "{work}/m.ckpt", "--log", "{dir}/log.json"]
                  + TINY_FLAGS, "log.json", "log.json"),
    "parse": (PARSE, "pred.txt", "pred.txt"),
    "parse-meta": (PARSE, "pred.txt.meta.json", "pred.txt"),
    "eval-json": (["eval", "{trees}", "{trees}", "--json", "{dir}/report.json"], "report.json",
                  "report.json"),
}


def _no_work(*args, **kwargs):
    raise AssertionError("the command worked before it refused its output")


@pytest.mark.parametrize("broken", ["missing-dir", "directory"])
@pytest.mark.parametrize("output", OUTPUTS)
def test_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                      output_inputs, output, broken):
    """An output in a directory that does not exist, or where a directory
    stands, is refused (exit 3, naming it) before the command trains,
    decodes or computes anything, and no file is left behind, temporary
    files included."""
    argv, name, first = OUTPUTS[output]
    out_dir = tmp_path / "out"
    if broken == "directory":
        (out_dir / name).mkdir(parents=True)
        named, message = out_dir / name, "Is a directory"
    else:
        named, message = out_dir / first, "No such file or directory"
    before = sorted(tmp_path.rglob("*"))
    for module, work in ((rnng, "train"), (rnng, "parse_greedy"), (rnng, "parse_beam"),
                         (dataset, "compute_stats"), (transitions, "oracle"),
                         (metrics, "evaluate")):
        monkeypatch.setattr(module, work, _no_work)
    args = [arg.format(dir=out_dir, work=tmp_path, **output_inputs) for arg in argv]
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {named}: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("checkpoint", ["missing", "directory"])
def test_parse_unopenable_checkpoint_exits_three_naming_it(tmp_path, capsys, checkpoint):
    ckpt = tmp_path / "m.ckpt"
    if checkpoint == "directory":
        ckpt.mkdir()
    utterances = write_lines(tmp_path / "utts.txt", ["show the weather"])
    assert main(["parse", str(ckpt), utterances]) == 3
    message = "Is a directory" if checkpoint == "directory" else "No such file or directory"
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def _parse_with_edited_checkpoint(tmp_path, inputs, edit):
    """``parse`` of a copy of the trained checkpoint whose arrays ``edit``
    changed, and the copy's path."""
    from frameparse.neural.params import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(inputs["ckpt"])
    edit(arrays)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, arrays, meta)
    return ["parse", str(ckpt), inputs["utts"]], ckpt


def _checkpoint_without_ff_bias(tmp_path, inputs):
    argv, ckpt = _parse_with_edited_checkpoint(tmp_path, inputs,
                                               lambda arrays: arrays.pop("ff.bias"))
    return argv, ckpt, "checkpoint is missing parameter 'ff.bias'"


def _checkpoint_with_misshapen_ff_bias(tmp_path, inputs):
    def shorten(arrays):
        arrays["ff.bias"] = arrays["ff.bias"][:-1]

    argv, ckpt = _parse_with_edited_checkpoint(tmp_path, inputs, shorten)
    # --lstm-units 9 in TINY_FLAGS
    return argv, ckpt, "parameter 'ff.bias': checkpoint shape (8,) != model shape (9,)"


def _undecodable_third_line(tmp_path, inputs):
    tsv = tmp_path / "c.tsv"
    tsv.write_bytes(b"a\ta\t[IN:X a ]\nb\tb\t[IN:X b ]\n\xff\tc\t[IN:X c ]\n")
    return ["stats", str(tsv)], tsv, "line 3: not valid UTF-8 (invalid start byte)"


def _missing_input(tmp_path, inputs):
    missing = tmp_path / "missing.txt"
    return ["validate", str(missing)], missing, "No such file or directory"


def _output_in_missing_directory(tmp_path, inputs):
    out = tmp_path / "missing" / "actions.txt"
    return ["oracle", inputs["trees"], "-o", str(out)], out, "No such file or directory"


def _bad_config_line(tmp_path, inputs):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=0\nlstm_units 5\n", encoding="utf-8")
    return (["train", inputs["tsv"], "-o", str(tmp_path / "m.ckpt"), "--config", str(cfg)], cfg,
            "line 2: expected key=value, got 'lstm_units 5'")


def _bad_embeddings_line(tmp_path, inputs):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("a 0.1 0.2 0.3\nb 0.1\n", encoding="utf-8")
    return (["train", inputs["tsv"], "-o", str(tmp_path / "m.ckpt"), "--embeddings",
             str(vectors), "--word-dim", "3", "--epochs", "0"], vectors,
            "line 2: expected 3 values, found 1")


REFUSED = {
    "checkpoint-without-array": _checkpoint_without_ff_bias,
    "checkpoint-misshapen-array": _checkpoint_with_misshapen_ff_bias,
    "tsv-undecodable-line": _undecodable_third_line,
    "missing-input": _missing_input,
    "output-in-missing-directory": _output_in_missing_directory,
    "config-line": _bad_config_line,
    "embeddings-line": _bad_embeddings_line,
}


@pytest.mark.parametrize("refused", REFUSED.values(), ids=REFUSED.keys())
def test_every_refusal_is_one_line_naming_its_file(tmp_path, capsys, output_inputs, refused):
    """Each kind of refused input or output, checkpoint arrays among them,
    exits 3 with one line: ``error: <path>: <message>``."""
    argv, named, message = refused(tmp_path, output_inputs)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {named}: {message}\n"


class _FullDisk:
    """A file that takes ``room`` bytes, then fails as a full disk does."""

    def __init__(self, handle, room: int):
        self.handle, self.room = handle, room

    def write(self, data):
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def test_a_write_that_fails_midway_leaves_the_previous_checkpoint(tmp_path, capsys, corpus_tsv,
                                                                   monkeypatch):
    tsv, _ = corpus_tsv
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", tsv, "-o", str(ckpt), "--epochs", "0", "--seed", "1"] + TINY_FLAGS) == 0
    before = ckpt.read_bytes()
    listing = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FullDisk(fdopen(fd, mode), 100))
    assert main(["train", tsv, "-o", str(ckpt), "--epochs", "0", "--seed", "2"] + TINY_FLAGS) == 3
    assert capsys.readouterr().err == f"error: {ckpt}: No space left on device\n"
    assert ckpt.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == listing


def test_an_output_gets_the_mode_open_gives_a_new_file(tmp_path, capsys):
    trees_path = write_lines(tmp_path / "trees.txt", ["[IN:X a ]"])
    umask = os.umask(0o027)
    try:
        assert main(["oracle", trees_path, "-o", str(tmp_path / "actions.txt")]) == 0
        with open(tmp_path / "opened.txt", "w"):
            pass
    finally:
        os.umask(umask)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("actions.txt", "opened.txt")}
    assert modes == {0o640}


def test_an_output_that_replaces_a_file_keeps_its_mode(tmp_path, capsys):
    trees_path = write_lines(tmp_path / "trees.txt", ["[IN:X a ]"])
    out = tmp_path / "actions.txt"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o600)
    assert main(["oracle", trees_path, "-o", str(out)]) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o600
    assert out.read_text(encoding="utf-8") == "NT(IN:X) SHIFT REDUCE\n"


def test_an_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    """A pipe at the output's path is written through, not replaced by a
    file, and no file is made beside it."""
    trees_path = write_lines(tmp_path / "trees.txt", ["[IN:X a ]", "[IN:Y b c ]"])
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = main(["oracle", trees_path, "-o", str(fifo)])
    finally:
        if reader.is_alive():  # the writer never opened the pipe: let the reader go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    assert code == 0
    assert received == [b"NT(IN:X) SHIFT REDUCE\nNT(IN:Y) SHIFT SHIFT REDUCE\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["out.fifo", "trees.txt"]


def test_a_closed_stdout_exits_three_in_one_line(tmp_path):
    """``frameparse oracle ... | head -1``: the reader leaves after one
    line, and the writer says so in one error line, without a traceback."""
    trees_path = write_lines(tmp_path / "trees.txt", ["[IN:X a [SL:Y b ] ]"] * 20000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "frameparse.cli", "oracle", trees_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 3
    assert first == "NT(IN:X) SHIFT NT(SL:Y) SHIFT REDUCE REDUCE\n"
    assert err == "error: [Errno 32] Broken pipe\n"
