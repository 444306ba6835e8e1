"""Property tests of the checkpoint, embedding and corpus readers.

Whatever bytes they are given, ``load_checkpoint`` and ``load_embeddings``
return a well-formed result or raise their own typed error, or
``UnicodeDecodeError``, which the command line reports as refused input;
``load_tsv`` returns a corpus of valid examples or raises ``IngestError``.
Seeded and bounded (``derandomize=True``, a fixed ``max_examples``), so a
run is deterministic and takes a few seconds.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frameparse.dataset import IngestError, load_tsv  # noqa: E402
from frameparse.neural.params import (  # noqa: E402
    CHECKPOINT_MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from frameparse.preprocess import RaggedDimensions, load_embeddings  # noqa: E402
from frameparse.trees import validate  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@pytest.fixture(scope="module")
def valid_checkpoint(workdir):
    path = workdir / "valid.ckpt"
    arrays = {
        "b": np.arange(3, dtype=np.float64),
        "w": np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3),
        "w.frozen_rows": np.array([1, 0], dtype=np.uint8),
    }
    save_checkpoint(path, arrays, {"format": "test", "n": 3})
    return path.read_bytes()


def _load_checkpoint_bytes(workdir, blob: bytes):
    path = workdir / "fuzzed.ckpt"
    path.write_bytes(blob)
    try:
        arrays, meta = load_checkpoint(path)
    except (CheckpointError, UnicodeDecodeError):
        return None
    assert isinstance(meta, dict)
    assert all(isinstance(a, np.ndarray) for a in arrays.values())
    return arrays


@SETTINGS
@given(st.binary(max_size=200), st.booleans())
def test_random_bytes_load_or_raise_a_checkpoint_error(workdir, blob, with_magic):
    if with_magic:
        blob = CHECKPOINT_MAGIC + b"\n" + blob
    _load_checkpoint_bytes(workdir, blob)


@SETTINGS
@given(st.data())
def test_mutated_checkpoints_load_or_raise_a_checkpoint_error(workdir, valid_checkpoint,
                                                              data):
    blob = bytearray(valid_checkpoint)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        at = data.draw(st.integers(0, len(blob)), label="at")
        kind = data.draw(st.sampled_from(("flip", "delete", "insert", "truncate")))
        if kind == "flip" and at < len(blob):
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        elif kind == "delete":
            del blob[at : at + data.draw(st.integers(1, 8), label="width")]
        elif kind == "insert":
            blob[at:at] = data.draw(st.binary(min_size=1, max_size=8), label="bytes")
        else:
            del blob[at:]
    _load_checkpoint_bytes(workdir, bytes(blob))


DTYPE_NAMES = ("<f4", "<f8", "|u1", "|b1", "<i8", ">f4", "f2", "<U3", "V3", "(2,)f4",
               "f4,f4", "<c8", "M8")


@st.composite
def array_entries(draw):
    """An array-table entry, mostly consistent (nbytes = size * itemsize of
    a real dtype, the name unique), with any field sometimes replaced by
    arbitrary JSON."""
    name = draw(st.sampled_from(("b", "w", "w.frozen_rows")))
    dtype = draw(st.sampled_from(DTYPE_NAMES))
    shape = draw(st.lists(st.integers(0, 3), max_size=3))
    if draw(st.integers(0, 9)) == 0:
        shape.append(1 << draw(st.integers(36, 60)))  # beyond any file or memory
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    entry = {"name": name, "dtype": dtype, "shape": shape, "nbytes": nbytes}
    junk = st.one_of(st.integers(), st.text(max_size=4), st.none(), st.floats(allow_nan=False),
                     st.lists(st.integers(-2, 3), max_size=2))
    for key in draw(st.lists(st.sampled_from(sorted(entry)), max_size=2)):
        entry[key] = draw(junk)
    return entry


@SETTINGS
@given(st.lists(array_entries(), max_size=3), st.binary(max_size=48))
def test_arbitrary_array_tables_load_or_raise_a_checkpoint_error(workdir, table, payload):
    header = {"version": 1, "meta": {}, "arrays": table}
    blob = CHECKPOINT_MAGIC + b"\n" + json.dumps(header).encode() + b"\n" + payload
    arrays = _load_checkpoint_bytes(workdir, blob)
    if arrays is not None:
        for entry in table:
            array = arrays[entry["name"]]
            assert array.dtype.kind in "biuf"
            assert list(array.shape) == entry["shape"] and array.nbytes == entry["nbytes"]


VOCAB = ("alpha", "beta", "gamma")
WORDS = st.sampled_from(VOCAB + ("delta", "", "0.5"))
VALUES = st.sampled_from(("0.5", "-1e-3", "7", "nan", "inf", "-inf", "1e999", "NaN", "x", "",
                          "\t", "1_0", "\u0661"))


@st.composite
def embedding_text(draw):
    """Lines of a word and mostly ``dim`` values, some of them not finite
    numbers."""
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.sampled_from((dim, dim, dim, dim + 1, 0)))
        values = draw(st.lists(VALUES, min_size=size, max_size=size))
        lines.append(" ".join([draw(WORDS)] + values))
    return "\n".join(lines)


def _check_embeddings(workdir, blob: bytes) -> None:
    path = workdir / "vectors.txt"
    path.write_bytes(blob)
    try:
        table = load_embeddings(path, VOCAB, seed=0)
    except (RaggedDimensions, UnicodeDecodeError):
        return
    assert set(table.vectors) == set(VOCAB)
    for vector in table.vectors.values():
        assert vector.shape == (table.dim,) and np.isfinite(vector).all()


@SETTINGS
@given(embedding_text())
def test_embedding_text_loads_finite_vectors_or_raises(workdir, text):
    _check_embeddings(workdir, text.encode("utf-8"))


@SETTINGS
@given(st.binary(max_size=120))
def test_embedding_bytes_load_finite_vectors_or_raise(workdir, blob):
    _check_embeddings(workdir, blob)


# Pieces of corpus lines: brackets, label prefixes, words, tabs, ASCII and
# Unicode whitespace (str.split and the tree reader both split at \x0c,
# \x1c, \x85, \xa0, \u2028 and \u3000, the text reader at none of them),
# NUL, carriage returns and line feeds; and bytes that are not UTF-8,
# which refuse the whole file.
TSV_PIECES = ("[", "]", "IN:", "SL:", "A", "a", "b", " ", "\t", "\x0c", "\x1c", "\x85", "\xa0",
              "\u2028", "\u3000", "\x00", "\r", "\r\n", "\n")
NOT_UTF8 = (b"\xff", b"\xe2\x82", b"\xc3")
LINE_KINDS = {"bad-column-count", "tree-format", "constraint-violation", "token-mismatch"}
FILE_KINDS = {"io", "encoding", "empty-corpus"}
TSV_WORDS = st.sampled_from(("a", "b", "7", "\u00e9t\u00e9"))
INTENT_MOSTLY = st.sampled_from(("IN", "IN", "IN", "SL"))
SLOT_MOSTLY = st.sampled_from(("SL", "SL", "SL", "IN"))


@st.composite
def tsv_line(draw) -> bytes:
    """A line of pieces, or a corpus line (a non-terminal over words and
    non-terminals, with a tokenized column that may differ from its words)
    with up to two pieces inserted; rarely, a byte that is not UTF-8."""
    if draw(st.integers(0, 2)) == 0:
        line = "".join(draw(st.lists(st.sampled_from(TSV_PIECES), max_size=12)))
    else:
        tokens, children = [], []
        for _ in range(draw(st.integers(1, 3))):
            words = draw(st.lists(TSV_WORDS, min_size=1, max_size=2))
            tokens += words
            children.append(" ".join(words) if draw(st.booleans())
                            else f"[{draw(SLOT_MOSTLY)}:X {' '.join(words)} ]")
        column = draw(st.sampled_from((tokens,) * 6 + (tokens[1:], tokens[::-1])))
        line = f"{' '.join(tokens)}\t{' '.join(column)}\t[{draw(INTENT_MOSTLY)}:P {' '.join(children)} ]"
        for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(st.sampled_from(TSV_PIECES)) + line[cut:]
    raw = line.encode("utf-8")
    if draw(st.sampled_from((False,) * 19 + (True,))):
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + draw(st.sampled_from(NOT_UTF8)) + raw[cut:]
    return raw


def _nonblank_lines(blob: bytes) -> int:
    """Lines as the text reader splits them (at \\n, \\r\\n or \\r),
    not counting empty ones."""
    text = blob.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return sum(1 for line in text.split("\n") if line)


def _check_examples(corpus) -> None:
    for example in corpus:
        assert example.tokens == example.tree.tokens
        assert validate(example.tree) == []


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(st.lists(tsv_line(), max_size=6))
def test_tsv_bytes_load_valid_examples_or_raise_an_ingest_error(workdir, lines):
    blob = b"\n".join(lines)
    path = workdir / "corpus.tsv"
    path.write_bytes(blob)
    try:
        strict = load_tsv(path)
    except IngestError as err:
        assert err.kind in LINE_KINDS | FILE_KINDS and err.path == path
        strict = err
    else:
        _check_examples(strict)
        assert strict.skipped == ()
    try:
        lenient = load_tsv(path, strict=False)
    except IngestError as err:
        assert err.kind in FILE_KINDS and err.path == path
        if err.kind == "encoding":
            assert isinstance(strict, IngestError) and strict.kind == "encoding"
            assert strict.line == err.line is not None
        return
    _check_examples(lenient)
    skipped = lenient.skipped
    assert all(bad.kind in LINE_KINDS for bad in skipped)
    assert [bad.line for bad in skipped] == sorted({bad.line for bad in skipped})
    assert len(lenient) + len(skipped) == _nonblank_lines(blob)
    if skipped:  # strict mode stops at the first bad line
        assert (strict.kind, strict.line) == (skipped[0].kind, skipped[0].line)
    else:
        assert strict.examples == lenient.examples
