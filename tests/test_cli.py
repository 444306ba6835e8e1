import json

import numpy as np
import pytest

import synth
from frameparse.cli import main

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


def test_validate_too_deep_tree_exits_three(tmp_path, capsys):
    """2,400 nested non-terminals: refused with a typed error, no traceback."""
    labels = ["IN:A" if level % 2 == 0 else "SL:B" for level in range(2400)]
    deep = "".join(f"[{label} " for label in labels) + "w" + " ]" * 2400
    path = write_lines(tmp_path / "trees.txt", ["[IN:X hello ]", deep])
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trees.txt:2: " in err and "deeper than 100" in err


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
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_stats_missing_file(tmp_path):
    assert main(["stats", str(tmp_path / "nope.tsv")]) == 3


@pytest.mark.parametrize("command", ["validate", "stats", "eval"])
def test_undecodable_input_exits_three(tmp_path, capsys, command):
    """A byte that is not UTF-8 is refused input (exit 3), not a failed check."""
    trees_path = tmp_path / "trees.txt"
    trees_path.write_bytes(b"[IN:X a ]\n[IN:X \xff ]\n")
    tsv_path = tmp_path / "c.tsv"
    tsv_path.write_bytes(b"a\ta\t[IN:X a ]\n\xff\tb\t[IN:X b ]\n")
    args = {
        "validate": ["validate", str(trees_path)],
        "stats": ["stats", str(tsv_path), "--lenient"],
        "eval": ["eval", str(trees_path), str(trees_path)],
    }[command]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err and "Traceback" not in err
    if command == "stats":
        assert "line 2" in err


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


def test_parse_checks_every_line_before_writing(tmp_path, capsys, corpus_tsv):
    tsv, corpus = corpus_tsv
    ckpt = str(tmp_path / "init.ckpt")
    assert main(["train", tsv, "-o", ckpt, "--epochs", "0", "--seed", "1"] + TINY_FLAGS) == 0
    utterances = write_lines(
        tmp_path / "utts.txt",
        [" ".join(corpus.examples[0].tokens), "", " ".join(corpus.examples[1].tokens), "  "],
    )
    pred = tmp_path / "pred.txt"
    assert main(["parse", ckpt, utterances, "-o", str(pred)]) == 1
    err = capsys.readouterr().err
    assert "utts.txt:2: empty utterance" in err
    assert "utts.txt:4: empty utterance" in err
    assert not pred.exists()
    assert not (tmp_path / "pred.txt.meta.json").exists()


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


BAD_MODEL_META = {
    "no-config": _delete("config"),
    "config-not-object": _set("config", ["word_dim", 8]),
    "unknown-config-key": _add_config_key,
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


def test_eval_gold_vs_gold(tmp_path, capsys):
    gold = write_lines(tmp_path / "gold.txt", [NESTED, "[IN:X hello ]"])
    assert main(["eval", gold, gold]) == 0
    out = capsys.readouterr().out
    assert "100.00" in out


def test_eval_external_predictions(tmp_path, capsys):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]", "[IN:X b ]", "[IN:X c ]"])
    pred = write_lines(
        tmp_path / "pred.txt",
        ["[IN:X a ]", "totally broken [", "[IN:Y c ]"],
    )
    assert main(["eval", gold, pred]) == 0
    out = capsys.readouterr().out
    assert "33.33" in out  # exact match 1/3


def test_eval_length_mismatch(tmp_path):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]"])
    pred = write_lines(tmp_path / "pred.txt", ["[IN:X a ]", "[IN:X b ]"])
    assert main(["eval", gold, pred]) == 1


def test_eval_bad_gold_line_names_offset_once(tmp_path, capsys):
    gold = write_lines(tmp_path / "gold.txt", ["[IN:X a ]", "[IN:X hello"])
    pred = write_lines(tmp_path / "pred.txt", ["[IN:X a ]", "[IN:X hello ]"])
    assert main(["eval", gold, pred]) == 3
    err = capsys.readouterr().err
    assert "error: gold line 2: unclosed '[' (offset 0)\n" in err
    assert err.count("offset") == 1


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--max-coords", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "worst parameter" in out


def test_gradcheck_corrupt_fails(capsys):
    assert main(["gradcheck", "--max-coords", "4", "--corrupt", "scorer.bias"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "scorer.bias" in out


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
