"""Property tests of the bracketed-tree reader and writer.

Seeded and bounded (``derandomize=True``, a fixed ``max_examples``), so a
run is deterministic and takes a few seconds.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frameparse.trees import FormatError, parse_bracketed, serialize  # noqa: E402

# Brackets, ASCII and Unicode whitespace (\x1c is a separator to
# str.isspace), label prefixes, a bare colon and letters.
PIECES = ("[", "]", " ", "\t", "\x1c", "IN:", "SL:", ":", "a", "b", "X")
WHITESPACE = st.text(alphabet=" \t\x1c", min_size=1, max_size=2)
WORDS = st.text(alphabet="abX:", min_size=1, max_size=3)
LABELS = st.builds("{}{}".format, st.sampled_from(("IN:", "SL:")),
                   st.text(alphabet="abX", min_size=1, max_size=3))


def _bracket(label: str, children: list, gap: str) -> str:
    return f"[{label}{gap}{gap.join(children)}{gap}]"


SUBTREES = st.recursive(
    WORDS,
    lambda inner: st.builds(_bracket, LABELS, st.lists(inner, min_size=1, max_size=3),
                            WHITESPACE),
    max_leaves=12,
)
BRACKETED = st.builds(_bracket, LABELS, st.lists(SUBTREES, min_size=1, max_size=3), WHITESPACE)


def _check(text: str) -> bool:
    """``parse_bracketed`` gives a tree that round-trips through ``serialize``
    or raises a ``FormatError`` at an offset inside the text; True if parsed."""
    try:
        tree = parse_bracketed(text)
    except FormatError as err:
        assert 0 <= err.offset <= len(text)
        return False
    canonical = serialize(tree)
    again = parse_bracketed(canonical)
    assert again == tree and serialize(again) == canonical
    return True


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_arbitrary_text_parses_or_raises_a_format_error(text):
    _check(text)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(BRACKETED, st.data())
def test_balanced_text_round_trips_and_mutations_fail_cleanly(text, data):
    assert _check(text)
    cut = data.draw(st.integers(0, len(text)), label="cut")
    piece = data.draw(st.sampled_from(PIECES), label="piece")
    _check(text[:cut] + piece + text[cut:])
    _check(text[:cut] + text[cut + 1:])
