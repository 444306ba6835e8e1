"""Property tests of the bracketed-tree reader and writer, and of the reader
against the recursive reference reader in ``oracles``.

Seeded and bounded (``derandomize=True``, a fixed ``max_examples``), so a
run is deterministic and takes a few seconds.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from frameparse.trees import MAX_DEPTH, FormatError, parse_bracketed, serialize  # noqa: E402

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


def _same_as_reference(text: str) -> None:
    """``parse_bracketed`` returns the reference reader's tree, with the
    tree's in-order token texts as its tokens, or raises the reference's
    exception class with the same message and offset."""
    try:
        expected = oracles.reference_parse_bracketed(text)
    except FormatError as err:
        with pytest.raises(FormatError) as got:
            parse_bracketed(text)
        assert (type(got.value), str(got.value), got.value.offset) == (
            type(err), str(err), err.offset)
        return
    tree = parse_bracketed(text)
    assert tree == expected
    assert tree.tokens == tuple(token.text for token in oracles.token_leaves(tree.root))


def _check(text: str) -> bool:
    """``parse_bracketed`` agrees with the reference reader, and gives a tree
    that round-trips through ``serialize`` or raises a ``FormatError`` at an
    offset inside the text; True if parsed."""
    _same_as_reference(text)
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


# Lexemes and separators for the differential tests: brackets, labels, a
# word, a bare colon, and ASCII and Unicode whitespace (\x1c and the
# ideographic space \u3000 are whitespace to str.isspace).
LEXEME_PIECES = ("[", "]", "IN:A", "SL:B", "x", ":", " ", "\t", "\x1c", "\u3000")
LEXEME_TEXT = st.lists(st.sampled_from(LEXEME_PIECES), max_size=40).map("".join)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(LEXEME_TEXT)
def test_the_reader_matches_the_reference_on_bracket_heavy_text(text):
    _same_as_reference(text)


@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(filler=LEXEME_TEXT, data=st.data())
def test_the_reader_matches_the_reference_at_the_nesting_limit(depth, filler, data):
    """``depth`` nested non-terminals, a slot under each intent and an
    intent under each slot, around a word: well formed at ``MAX_DEPTH``
    and too deep at ``MAX_DEPTH + 1``, then cut short, and with lexemes
    inserted."""
    opens = "".join("[IN:A " if level % 2 == 0 else "[SL:B " for level in range(depth))
    text = f"{opens}x{' ]' * depth}"
    _same_as_reference(text)
    cut = data.draw(st.integers(0, len(text)), label="cut")
    _same_as_reference(text[:cut])
    _same_as_reference(text[:cut] + filler + text[cut:])
