"""Tree data model for hierarchical intent-slot annotations.

An annotation is a constituency-style tree over a tokenized utterance: the
words are terminals and every non-terminal carries either an intent label
(prefix ``IN:``) or a slot label (prefix ``SL:``).  Well-formed trees obey
three constraints:

1. the root is an intent,
2. an intent's children are tokens and/or slots (never another intent),
3. a slot's children are either all tokens or exactly one intent.

``validate`` reports violations as data; parsing and the node constructors
only enforce structural sanity (bracket balance, non-empty non-terminals)
so that malformed system output can still be inspected.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, Union

INTENT = "IN"
SLOT = "SL"

_BRACKETS = frozenset("[]")
# Matches exactly the characters for which ``ch.isspace() or ch in "[]"``.
_BAD_SYMBOL_CHAR = re.compile(r"[\s\[\]]")

# The deepest nesting of non-terminals that parse_bracketed accepts.  Tree
# code recurses once or twice per level, so this keeps every traversal far
# below the interpreter's recursion limit.
MAX_DEPTH = 100


class FormatError(ValueError):
    """Bracketed text that cannot be parsed; ``offset`` is the character
    position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnbalancedBrackets(FormatError):
    pass


class EmptyNonTerminal(FormatError):
    pass


class BadLabelPrefix(FormatError):
    pass


class TrailingInput(FormatError):
    pass


class NestingTooDeep(FormatError):
    pass


def _check_symbol(text: str, what: str) -> None:
    if not text:
        raise ValueError(f"{what} must be non-empty")
    if _BAD_SYMBOL_CHAR.search(text):
        raise ValueError(f"{what} may not contain whitespace or brackets: {text!r}")


@dataclass(frozen=True)
class Label:
    """A non-terminal label: an intent (``IN:NAME``) or a slot (``SL:NAME``)."""

    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in (INTENT, SLOT):
            raise ValueError(f"label kind must be {INTENT!r} or {SLOT!r}, got {self.kind!r}")
        _check_symbol(self.name, "label name")
        if ":" in self.name:
            raise ValueError(f"label name may not contain ':': {self.name!r}")

    @property
    def is_intent(self) -> bool:
        return self.kind == INTENT

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"

    @classmethod
    def parse(cls, text: str) -> "Label":
        kind, sep, name = text.partition(":")
        if not sep or kind not in (INTENT, SLOT):
            raise ValueError(f"label must start with 'IN:' or 'SL:', got {text!r}")
        return cls(kind, name)


def intent(name: str) -> Label:
    return Label(INTENT, name)


def slot(name: str) -> Label:
    return Label(SLOT, name)


@dataclass(frozen=True)
class Token:
    """A terminal: one word of the utterance."""

    text: str

    def __post_init__(self):
        _check_symbol(self.text, "token")


# Tokens and labels are immutable and compare by value, so the parser hands
# out one shared instance per distinct text instead of a fresh object per
# occurrence.  A loaded corpus then holds a few objects per tree for the
# cyclic garbage collector to rescan instead of one per word and label.
# ``lru_cache`` keeps only returned values: text that fails validation
# raises on every call.
TOKEN_CACHE_SIZE = 1 << 16
LABEL_CACHE_SIZE = 1 << 12
shared_token = functools.lru_cache(maxsize=TOKEN_CACHE_SIZE)(Token)
shared_label = functools.lru_cache(maxsize=LABEL_CACHE_SIZE)(Label.parse)


@dataclass(frozen=True)
class NonTerminal:
    """A labeled constituent with at least one child."""

    label: Label
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError(f"non-terminal {self.label} must have at least one child")


Node = Union[NonTerminal, Token]


def iter_token_leaves(node: Node) -> Iterator[Token]:
    """In-order terminals below ``node``, from one generator with an
    explicit stack rather than one generator per level."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Token):
            yield node
        else:
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class Tree:
    """A root non-terminal paired with the utterance tokens it spans.

    ``tokens`` defaults to the in-order terminal yield of ``root``; passing
    tokens explicitly asserts that they match the yield.
    """

    root: NonTerminal
    tokens: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.root, NonTerminal):
            raise ValueError("tree root must be a non-terminal")
        leaves = tuple([t.text for t in iter_token_leaves(self.root)])
        if self.tokens is None:
            object.__setattr__(self, "tokens", leaves)
        else:
            object.__setattr__(self, "tokens", tuple(self.tokens))
            if self.tokens != leaves:
                raise ValueError(
                    f"tokens {list(self.tokens)} do not match tree yield {list(leaves)}"
                )


# Constraint identifiers used in Violation.constraint.
ROOT_NOT_INTENT = "RootNotIntent"
INTENT_HAS_INTENT_CHILD = "IntentHasIntentChild"
SLOT_MIXED_CHILDREN = "SlotMixedChildren"


@dataclass(frozen=True)
class Violation:
    """One failed well-formedness constraint at a node.

    ``path`` is the sequence of child indices from the root (empty = root).
    """

    constraint: str
    path: tuple = ()
    detail: str = ""

    def __str__(self) -> str:
        where = ".".join(str(i) for i in self.path) or "root"
        msg = f"{self.constraint} at {where}"
        return f"{msg}: {self.detail}" if self.detail else msg


def parse_bracketed(text: str) -> Tree:
    """Parse one bracketed tree, e.g. ``[IN:X hello [SL:Y world ] ]``.

    Only structural sanity is enforced here (balance, non-empty
    non-terminals, IN:/SL: label prefixes, nesting at most ``MAX_DEPTH``
    deep); use :func:`validate` for the semantic constraints.  Raises
    :class:`FormatError` subclasses carrying the offending character
    offset.
    """
    n = len(text)
    i = _skip_ws(text, 0)
    if i >= n or text[i] != "[":
        raise UnbalancedBrackets("expected '[' to open a tree", i)
    root, i = _parse_nonterminal(text, i, 1)
    i = _skip_ws(text, i)
    if i < n:
        raise TrailingInput("unexpected input after tree", i)
    return Tree(root)


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _scan_word(text: str, i: int) -> int:
    n = len(text)
    while i < n and not text[i].isspace() and text[i] not in _BRACKETS:
        i += 1
    return i


def _parse_nonterminal(text: str, i: int, depth: int):
    if depth > MAX_DEPTH:
        raise NestingTooDeep(f"non-terminals nested deeper than {MAX_DEPTH}", i)
    open_offset = i
    i += 1  # past '['
    label_start = i
    i = _scan_word(text, i)
    raw_label = text[label_start:i]
    try:
        label = shared_label(raw_label)
    except ValueError:
        raise BadLabelPrefix(f"bad non-terminal label {raw_label!r}", label_start) from None
    children = []
    n = len(text)
    while True:
        i = _skip_ws(text, i)
        if i >= n:
            raise UnbalancedBrackets("unclosed '['", open_offset)
        ch = text[i]
        if ch == "]":
            if not children:
                raise EmptyNonTerminal(f"non-terminal {raw_label} has no children", i)
            return NonTerminal(label, tuple(children)), i + 1
        if ch == "[":
            child, i = _parse_nonterminal(text, i, depth + 1)
            children.append(child)
        else:
            start = i
            i = _scan_word(text, i)
            children.append(shared_token(text[start:i]))


def serialize(obj: "Tree | Node") -> str:
    """Canonical bracketed form: single spaces, a space before every ``]``."""
    node = obj.root if isinstance(obj, Tree) else obj
    parts: list = []
    _serialize_into(node, parts)
    return " ".join(parts)


def _serialize_into(node: Node, parts: list) -> None:
    if isinstance(node, Token):
        parts.append(node.text)
        return
    parts.append(f"[{node.label}")
    for child in node.children:
        _serialize_into(child, parts)
    parts.append("]")


def validate(tree: Tree) -> list:
    """Check the three intent-slot constraints.  A ``Tree``'s tokens are its
    yield by construction, so they need no check here.

    Returns a list of :class:`Violation`; empty means well-formed.
    """
    violations: list = []
    root = tree.root
    if not root.label.is_intent:
        violations.append(Violation(ROOT_NOT_INTENT, (), f"root label is {root.label}"))
    _validate_node(root, (), violations)
    return violations


def _validate_node(node: NonTerminal, path: tuple, violations: list) -> None:
    if node.label.is_intent:
        for idx, child in enumerate(node.children):
            if isinstance(child, NonTerminal) and child.label.is_intent:
                violations.append(
                    Violation(INTENT_HAS_INTENT_CHILD, path + (idx,), f"{child.label} under {node.label}")
                )
    else:
        kids = node.children
        all_tokens = all(isinstance(c, Token) for c in kids)
        single_intent = (
            len(kids) == 1 and isinstance(kids[0], NonTerminal) and kids[0].label.is_intent
        )
        if not (all_tokens or single_intent):
            violations.append(
                Violation(SLOT_MIXED_CHILDREN, path, f"bad children under {node.label}")
            )
    for idx, child in enumerate(node.children):
        if isinstance(child, NonTerminal):
            _validate_node(child, path + (idx,), violations)


def depth(tree: "Tree | Node") -> int:
    """Maximum number of non-terminals on any root-to-leaf path.

    An intent with only token children has depth 1; the classic flat
    intent-with-slots shape has depth 2.
    """
    node = tree.root if isinstance(tree, Tree) else tree
    return _depth(node)


def _depth(node: Node) -> int:
    if isinstance(node, Token):
        return 0
    return 1 + max(_depth(c) for c in node.children)


def count_nonterminals(tree: "Tree | Node") -> int:
    node = tree.root if isinstance(tree, Tree) else tree
    if isinstance(node, Token):
        return 0
    return 1 + sum(count_nonterminals(c) for c in node.children)

