"""Token normalization and pretrained embedding loading.

Numbers are collapsed to a single constant symbol and out-of-vocabulary
words are mapped to a small closed set of unknown-word classes built from
orthographic features (capitalization and sentence position, digits,
hyphens, and a fixed suffix list).  The class inventory is finite, so the
model's input vocabulary is closed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

NUM_TOKEN = "<NUM>"
UNK_TOKEN = "<UNK>"

# Sign, then either comma-grouped or plain digits, with an optional decimal
# part; or a bare decimal fraction.
_NUMBER_RE = re.compile(r"[+-]?(?:(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+)")

# Checked in order; first match wins. All entries are at most 3 characters.
SUFFIXES = ("ing", "ion", "est", "ed", "er", "ly", "al", "ty", "es", "s", "y")


def is_number(token: str) -> bool:
    return bool(_NUMBER_RE.fullmatch(token))


def unk_class(token: str, position: int) -> str:
    """The unknown-word class symbol for ``token`` at utterance ``position``."""
    parts = []
    if token[:1].isupper():
        parts.append("ICAP" if position == 0 else "CAP")
    if any(ch.isdigit() for ch in token):
        parts.append("DIG")
    if "-" in token:
        parts.append("DASH")
    low = token.lower()
    for suffix in SUFFIXES:
        if len(low) > len(suffix) and low.endswith(suffix):
            parts.append(suffix)
            break
    return "<UNK" + "".join("-" + p for p in parts) + ">"


def normalize(token: str, position: int, vocab) -> str:
    """Map a raw token to its model-facing surface symbol.

    Numeric tokens become ``<NUM>`` unconditionally; known tokens pass
    through; everything else falls into an unknown-word class.  ``vocab``
    is anything supporting ``in``.
    """
    if is_number(token):
        return NUM_TOKEN
    if token in vocab:
        return token
    return unk_class(token, position)


@dataclass(frozen=True)
class TokenNormalizer:
    """Normalization closed over a fixed known vocabulary.

    Serialized into model checkpoints so inference applies exactly the
    preprocessing the model was trained with.
    """

    known: frozenset

    def normalize(self, token: str, position: int) -> str:
        return normalize(token, position, self.known)

    def normalize_sequence(self, tokens: Iterable[str]) -> list:
        return [self.normalize(tok, i) for i, tok in enumerate(tokens)]

    def to_config(self) -> dict:
        return {"known": sorted(self.known)}


class RaggedDimensions(ValueError):
    """A malformed embeddings file: ``path`` names it and ``line`` the bad
    line (0 when the file is empty)."""

    def __init__(self, line: int, message: str, path=None):
        where = f"{path}: " if path is not None else ""
        at = f"line {line}: " if line else ""
        super().__init__(f"{where}{at}{message}")
        self.line = line
        self.path = path


@dataclass
class EmbeddingTable:
    """word -> vector, all of one dimension; ``missing`` lists vocabulary
    words that had no pretrained vector and were randomly initialized."""

    vectors: dict
    dim: int
    missing: tuple = ()

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __getitem__(self, word: str) -> np.ndarray:
        return self.vectors[word]


def load_embeddings(path, vocab, seed: int = 0) -> EmbeddingTable:
    """Load the text format ``word v1 v2 ... vd`` (one word per line),
    keeping only words in ``vocab``.

    Vocabulary words absent from the file get a seeded uniform random
    vector in [-0.1, 0.1) and are reported in the table's ``missing``
    field.  A line with the wrong number of values, or a kept word with a
    value that is not a finite number, raises ``RaggedDimensions`` naming
    the line.
    """
    wanted = set(vocab)
    vectors: dict = {}
    dim: Optional[int] = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise RaggedDimensions(lineno, "expected a word followed by values", path)
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise RaggedDimensions(
                    lineno, f"expected {dim} values, found {len(values)}", path
                )
            if word not in wanted:
                continue
            try:
                vector = np.asarray([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise RaggedDimensions(lineno, "non-numeric embedding value", path) from None
            if not np.isfinite(vector).all():
                raise RaggedDimensions(lineno, f"non-finite embedding value for {word!r}", path)
            vectors[word] = vector
    if dim is None:
        raise RaggedDimensions(0, "embedding file is empty", path)
    rng = np.random.default_rng(seed)
    missing = sorted(wanted - set(vectors))
    for word in missing:
        vectors[word] = rng.uniform(-0.1, 0.1, dim)
    return EmbeddingTable(vectors=vectors, dim=dim, missing=tuple(missing))
