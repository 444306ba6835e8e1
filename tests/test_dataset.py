import gc

import numpy as np
import pytest

import synth
from frameparse.dataset import (
    Corpus,
    Example,
    IngestError,
    Split,
    Vocab,
    build_vocabs,
    compute_stats,
    load_tsv,
    lower_median,
)
from frameparse.preprocess import NUM_TOKEN, UNK_TOKEN
from frameparse.trees import parse_bracketed, serialize

NESTED = (
    "[IN:GET_DIRECTIONS Driving directions to "
    "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] [SL:CAT_EVENT game ] ] ] ]"
)
UTTERANCE = "Driving directions to the Eagles game"


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_load_single_line(tmp_path):
    path = _write(tmp_path, "c.tsv", [f"{UTTERANCE}\t{UTTERANCE}\t{NESTED}"])
    corpus = load_tsv(path, split=Split.TRAIN)
    assert corpus.split is Split.TRAIN
    assert len(corpus) == 1
    example = corpus.examples[0]
    assert example.raw_utterance == UTTERANCE
    assert example.tokens == tuple(UTTERANCE.split())
    assert example.tokens is example.tree.tokens  # one copy of the words per example
    assert serialize(example.tree) == NESTED


def test_load_empty_file(tmp_path):
    path = _write(tmp_path, "empty.tsv", [])
    with pytest.raises(IngestError) as err:
        load_tsv(path)
    assert err.value.kind == "empty-corpus"


def test_load_missing_file(tmp_path):
    with pytest.raises(IngestError) as err:
        load_tsv(tmp_path / "nope.tsv")
    assert err.value.kind == "io"


def test_load_bad_column_count(tmp_path):
    path = _write(tmp_path, "c.tsv", ["just one column"])
    with pytest.raises(IngestError) as err:
        load_tsv(path)
    assert err.value.kind == "bad-column-count" and err.value.line == 1
    assert str(err.value) == f"{path}: line 1: expected 3 tab-separated columns, found 1"


def test_load_tree_format_error(tmp_path):
    path = _write(tmp_path, "c.tsv", ["a\ta\t[IN:X a"])
    with pytest.raises(IngestError) as err:
        load_tsv(path)
    assert err.value.kind == "tree-format"


def test_load_constraint_violation(tmp_path):
    path = _write(tmp_path, "c.tsv", ["a\ta\t[SL:Y a ]"])
    with pytest.raises(IngestError) as err:
        load_tsv(path)
    assert err.value.kind == "constraint-violation"


def test_load_token_mismatch(tmp_path):
    path = _write(tmp_path, "c.tsv", ["a b\ta b\t[IN:X a ]"])
    with pytest.raises(IngestError) as err:
        load_tsv(path)
    assert err.value.kind == "token-mismatch"


def test_lenient_mode_skips_and_reports(tmp_path):
    path = _write(
        tmp_path,
        "c.tsv",
        ["a\ta\t[IN:X a ]", "bad line", "b\tb\t[SL:Y b ]"],
    )
    corpus = load_tsv(path, strict=False)
    assert len(corpus) == 1
    assert [issue.line for issue in corpus.skipped] == [2, 3]
    assert [issue.kind for issue in corpus.skipped] == ["bad-column-count", "constraint-violation"]
    with pytest.raises(IngestError):
        load_tsv(path, strict=True)


@pytest.mark.parametrize("strict", [True, False])
def test_load_undecodable_file_is_refused_with_its_line(tmp_path, strict):
    """Invalid UTF-8 refuses the whole file, even in lenient mode, and names
    the first bad line although the reader decodes in chunks."""
    good = "a\ta\t[IN:X a ]\n".encode("utf-8")
    path = tmp_path / "c.tsv"
    path.write_bytes(good * 3 + b"b\xff\tb\t[IN:X b ]\r\n" + good)
    with pytest.raises(IngestError) as err:
        load_tsv(path, strict=strict)
    assert err.value.kind == "encoding" and err.value.line == 4 and err.value.path == path
    assert str(err.value).startswith(f"{path}: line 4: not valid UTF-8")
    path.write_bytes(good * 2 + b"\r" + good + b"\xe2\x82")  # lone \r ends a line, as in text mode
    with pytest.raises(IngestError) as err:
        load_tsv(path, strict=strict)
    assert err.value.kind == "encoding" and err.value.line == 5


def test_loaded_trees_keep_few_gc_tracked_objects(tmp_path):
    """Tokens and labels are shared, not one object per occurrence, so a
    loaded tree keeps few objects for the cyclic collector to rescan (about
    20 per tree when every word and label was its own object)."""
    rng = np.random.default_rng(12)
    corpus = Corpus([
        Example(" ".join(tree.tokens), tree.tokens, tree)
        for tree in (synth.random_valid_tree(rng) for _ in range(300))
    ])
    path = tmp_path / "synth.tsv"
    synth.write_tsv(path, corpus)
    load_tsv(path)  # the shared symbols of this vocabulary now exist
    gc.collect()
    before = len(gc.get_objects())
    loaded = load_tsv(path)
    gc.collect()
    per_tree = (len(gc.get_objects()) - before) / len(loaded)
    assert len(loaded) == 300 and per_tree <= 10


def test_load_reserialize_fixed_point(tmp_path):
    corpus = synth.learnable_corpus(seed=3, size=25)
    path = tmp_path / "synth.tsv"
    synth.write_tsv(path, corpus)
    loaded = load_tsv(path)
    for original, reloaded in zip(corpus, loaded):
        assert reloaded.tree == original.tree
        assert parse_bracketed(serialize(reloaded.tree)) == reloaded.tree


def _corpus_of(*bracketed):
    examples = []
    for text in bracketed:
        tree = parse_bracketed(text)
        examples.append(Example(" ".join(tree.tokens), tree.tokens, tree))
    return Corpus(examples=examples)


def test_lower_median():
    assert lower_median([1, 2, 4]) == 2
    assert lower_median([1, 2, 3, 4]) == 2
    assert lower_median([5]) == 5
    with pytest.raises(ValueError):
        lower_median([])


def test_stats_single_tree():
    stats = compute_stats(_corpus_of("[IN:X hello ]"))
    assert stats.count == 1
    assert stats.median_depth == 1 and stats.mean_depth == 1.0
    assert stats.median_length == 1 and stats.mean_length == 1.0
    assert stats.fraction_depth_gt_2 == 0.0
    assert stats.depth_histogram == {1: 1}
    assert stats.length_histogram == {1: 1}


def test_stats_hand_computed():
    corpus = _corpus_of(
        "[IN:X a ]",                                # depth 1, length 1
        "[IN:X a [SL:Y b ] ]",                      # depth 2, length 2
        "[IN:X [SL:Y [IN:Z [SL:W c ] ] ] d ]",      # depth 4, length 2
    )
    stats = compute_stats(corpus)
    assert stats.count == 3
    assert stats.mean_depth == pytest.approx(7 / 3)
    assert stats.median_depth == 2
    assert stats.fraction_depth_gt_2 == pytest.approx(1 / 3)
    assert stats.mean_length == pytest.approx(5 / 3)
    assert stats.intent_label_count == 2  # X, Z
    assert stats.slot_label_count == 2    # Y, W
    assert sum(stats.depth_histogram.values()) == stats.count
    assert sum(stats.length_histogram.values()) == stats.count


def test_stats_order_independent():
    corpus = synth.learnable_corpus(seed=5, size=40)
    shuffled = Corpus(examples=list(reversed(corpus.examples)))
    a = compute_stats(corpus)
    b = compute_stats(shuffled)
    assert a == b


def test_stats_csv_shape():
    stats = compute_stats(_corpus_of("[IN:X a ]", "[IN:X a [SL:Y b ] ]"))
    lines = stats.depth_csv().strip().split("\n")
    assert lines[0] == "depth,count"
    assert lines[1:] == ["1,1", "2,1"]
    assert stats.to_json_dict()["median_depth"] == 1


def test_vocab_basics():
    vocab = Vocab(("a", "b"))
    assert len(vocab) == 2 and "a" in vocab and vocab.index("b") == 1
    assert vocab.get("zzz") is None
    with pytest.raises(ValueError):
        Vocab(("a", "a"))


def test_build_vocabs_single_example():
    corpus = _corpus_of("[IN:X hello there ]")
    vocab, intents, slots = build_vocabs(corpus, min_count=1)
    assert "hello" in vocab and "there" in vocab
    assert UNK_TOKEN in vocab and NUM_TOKEN in vocab
    assert [str(l) for l in intents] == ["IN:X"]
    assert slots == ()


def test_build_vocabs_min_count_excludes_rare():
    corpus = _corpus_of(
        "[IN:X the Eagles game ]",
        "[IN:X the game ]",
    )
    vocab, _, _ = build_vocabs(corpus, min_count=2)
    assert "the" in vocab and "game" in vocab
    assert "Eagles" not in vocab
    # The rare word's unknown class joins the vocabulary instead.
    assert any(sym.startswith("<UNK-CAP") for sym in vocab.symbols)


def test_build_vocabs_maps_numbers():
    corpus = _corpus_of("[IN:X wake me at [SL:T 8 ] ]")
    vocab, _, _ = build_vocabs(corpus)
    assert "8" not in vocab and NUM_TOKEN in vocab


def test_build_vocabs_label_sets():
    corpus = synth.learnable_corpus(seed=11, size=120)
    _, intents, slots = build_vocabs(corpus)
    assert len(intents) == 5 and len(slots) == 8
    assert all(l.is_intent for l in intents) and all(l.is_slot for l in slots)
    assert list(intents) == sorted(intents, key=lambda l: l.name)
