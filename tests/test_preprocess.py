import itertools

import numpy as np
import pytest

from frameparse.dataset import IngestError, load_embeddings
from frameparse.preprocess import (
    NUM_TOKEN,
    SUFFIXES,
    TokenNormalizer,
    is_number,
    normalize,
    unk_class,
)


def unk_class_inventory() -> list:
    """Every symbol ``unk_class`` can produce (144 in total)."""
    inventory = []
    for features in itertools.product(("", "ICAP", "CAP"), ("", "DIG"), ("", "DASH"),
                                      ("",) + SUFFIXES):
        inventory.append("<UNK" + "".join("-" + f for f in features if f) + ">")
    return inventory


VOCAB = frozenset({"directions", "driving", "the", NUM_TOKEN, "<UNK-CAP-ly>"})


def test_in_vocab_passthrough():
    assert normalize("directions", 1, VOCAB) == "directions"


def test_numbers_map_to_constant():
    assert normalize("845", 0, VOCAB) == NUM_TOKEN
    for token in ("8", "8.30", "1,234.5", "-7", "+12", ".5", "10,000"):
        assert is_number(token), token
    for token in ("8am", "8:30", "a1", "1-2", "..", "1,23", ""):
        assert not is_number(token), token


def test_unknown_class_examples():
    assert normalize("Philly", 3, VOCAB) == "<UNK-CAP-ly>"
    assert unk_class("Philly", 0) == "<UNK-ICAP-ly>"
    assert unk_class("mid-town", 2) == "<UNK-DASH>"
    assert unk_class("b52s", 1) == "<UNK-DIG-s>"
    assert unk_class("Wi-Fi7", 4) == "<UNK-CAP-DIG-DASH>"
    assert unk_class("xyzzy", 1) == "<UNK-y>"
    assert unk_class("of", 1) == "<UNK>"


def test_unknown_classes_are_closed_set():
    inventory = set(unk_class_inventory())
    assert len(inventory) == 144
    rng = np.random.default_rng(0)
    letters = "aAbB-3xyz"
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        token = "".join(rng.choice(list(letters), n))
        assert unk_class(token, int(rng.integers(3))) in inventory


def test_normalize_idempotent():
    vocab = set(VOCAB) | set(unk_class_inventory())
    rng = np.random.default_rng(1)
    pieces = ["Philly", "845", "driving", "qux-7", "Zzz", "chatting", "8.30"]
    for position, token in enumerate(pieces):
        once = normalize(token, position, vocab)
        assert normalize(once, position, vocab) == once


def test_normalizer_roundtrips_config():
    norm = TokenNormalizer(frozenset({"a", "b"}))
    clone = TokenNormalizer(frozenset(norm.to_config()["known"]))
    assert clone == norm
    assert clone.normalize_sequence(["a", "z", "9"]) == ["a", "<UNK>", NUM_TOKEN]


def _write(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_embeddings_basic(tmp_path):
    path = _write(tmp_path, "alpha 1.0 2.0 3.0\nbeta 4.0 5.0 6.0\n")
    vectors, pretrained = load_embeddings(path, ["alpha", "beta", "gamma"], 3, seed=0)
    assert vectors.shape == (3, 3) and vectors.dtype == np.float64
    assert np.allclose(vectors[0], [1.0, 2.0, 3.0])
    assert (~pretrained).tolist() == [False, False, True]
    assert np.all(np.abs(vectors[2]) <= 0.1)
    # Seeded: reloading gives the same random fallback vector.
    again, _ = load_embeddings(path, ["alpha", "beta", "gamma"], 3, seed=0)
    assert np.array_equal(vectors[2], again[2])


def test_load_embeddings_ignores_out_of_vocab_words(tmp_path):
    path = _write(tmp_path, "alpha 1.0 2.0\nzzz 9.0 9.0\n")
    vectors, pretrained = load_embeddings(path, ["alpha"], 2, seed=0)
    assert vectors.tolist() == [[1.0, 2.0]] and pretrained.tolist() == [True]


def test_load_embeddings_accepts_word2vec_line_ends(tmp_path):
    # word2vec's text format puts a space after the last value.
    path = _write(tmp_path, "alpha 1.0 2.0 \nbeta 3.0 4.0 \n")
    vectors, pretrained = load_embeddings(path, ["alpha", "beta"], 2, seed=0)
    assert vectors.shape[1] == 2 and not (~pretrained).any()
    assert np.array_equal(vectors[1], [3.0, 4.0])


def test_load_embeddings_ragged(tmp_path):
    path = _write(tmp_path, "alpha 1.0 2.0 3.0\nbeta 4.0 5.0\n")
    with pytest.raises(IngestError) as err:
        load_embeddings(path, ["alpha", "beta"], 3)
    assert err.value.kind == "embeddings" and err.value.line == 2 and err.value.path == path
    assert str(err.value) == f"{path}: line 2: expected 3 values, found 2"
    # Every line holds the model's width, the first one too.
    with pytest.raises(IngestError) as err:
        load_embeddings(path, ["alpha", "beta"], 2)
    assert str(err.value) == f"{path}: line 1: expected 2 values, found 3"


def test_load_embeddings_non_numeric(tmp_path):
    path = _write(tmp_path, "alpha 1.0 x 3.0\n")
    with pytest.raises(IngestError) as err:
        load_embeddings(path, ["alpha"], 3)
    assert err.value.kind == "embeddings" and err.value.line == 1 and err.value.path == path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
def test_load_embeddings_rejects_non_finite_values(tmp_path, value):
    path = _write(tmp_path, f"alpha 1 2 3\nbeta 0.1 {value} 0.3\n")
    with pytest.raises(IngestError) as err:
        load_embeddings(path, ["alpha", "beta"], 3)
    assert err.value.kind == "embeddings" and err.value.line == 2 and err.value.path == path
    assert str(err.value) == f"{path}: line 2: non-finite embedding value for 'beta'"


def test_load_embeddings_empty(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(IngestError) as err:
        load_embeddings(path, ["alpha"], 3)
    assert err.value.kind == "embeddings" and err.value.line is None
    assert str(err.value) == f"{path}: embedding file is empty"
