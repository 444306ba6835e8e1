"""Token normalization.

Numbers are collapsed to a single constant symbol and out-of-vocabulary
words are mapped to a small closed set of unknown-word classes built from
orthographic features (capitalization and sentence position, digits,
hyphens, and a fixed suffix list).  The class inventory is finite, so the
model's input vocabulary is closed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

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
