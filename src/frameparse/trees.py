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

from dataclasses import dataclass
from typing import Iterator, Union

INTENT = "IN"
SLOT = "SL"

_BRACKETS = frozenset("[]")


class FormatError(ValueError):
    """Bracketed text that cannot be parsed; ``offset`` is the character
    position and ``message`` the text without it."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class UnbalancedBrackets(FormatError):
    pass


class EmptyNonTerminal(FormatError):
    pass


class BadLabelPrefix(FormatError):
    pass


class TrailingInput(FormatError):
    pass


def _check_symbol(text: str, what: str) -> None:
    if not text:
        raise ValueError(f"{what} must be non-empty")
    if any(ch.isspace() or ch in _BRACKETS for ch in text):
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

    @property
    def is_slot(self) -> bool:
        return self.kind == SLOT

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
    """In-order terminals below ``node``."""
    if isinstance(node, Token):
        yield node
    else:
        for child in node.children:
            yield from iter_token_leaves(child)


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
        leaves = tuple(t.text for t in iter_token_leaves(self.root))
        if self.tokens is None:
            object.__setattr__(self, "tokens", leaves)
        else:
            object.__setattr__(self, "tokens", tuple(self.tokens))
            if self.tokens != leaves:
                raise ValueError(
                    f"tokens {list(self.tokens)} do not match tree yield {list(leaves)}"
                )


@dataclass(frozen=True)
class LabeledSpan:
    """A non-terminal's label together with its token span [start, end)."""

    label: Label
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span [{self.start}, {self.end})")

    def __str__(self) -> str:
        return f"{self.label}[{self.start},{self.end})"


# Constraint identifiers used in Violation.constraint.
ROOT_NOT_INTENT = "RootNotIntent"
INTENT_HAS_INTENT_CHILD = "IntentHasIntentChild"
SLOT_MIXED_CHILDREN = "SlotMixedChildren"
TOKEN_MISMATCH = "TokenMismatch"


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
    non-terminals, IN:/SL: label prefixes); use :func:`validate` for the
    semantic constraints.  Raises :class:`FormatError` subclasses carrying
    the offending character offset.
    """
    n = len(text)
    i = _skip_ws(text, 0)
    if i >= n or text[i] != "[":
        raise UnbalancedBrackets("expected '[' to open a tree", i)
    root, i = _parse_nonterminal(text, i)
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


def _parse_nonterminal(text: str, i: int):
    open_offset = i
    i += 1  # past '['
    label_start = i
    i = _scan_word(text, i)
    raw_label = text[label_start:i]
    try:
        label = Label.parse(raw_label)
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
            child, i = _parse_nonterminal(text, i)
            children.append(child)
        else:
            start = i
            i = _scan_word(text, i)
            children.append(Token(text[start:i]))


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
    """Check the three intent-slot constraints plus the token/yield agreement.

    Returns a list of :class:`Violation`; empty means well-formed.
    """
    violations: list = []
    root = tree.root
    if not root.label.is_intent:
        violations.append(Violation(ROOT_NOT_INTENT, (), f"root label is {root.label}"))
    _validate_node(root, (), violations)
    leaves = tuple(t.text for t in iter_token_leaves(root))
    if leaves != tree.tokens:
        violations.append(Violation(TOKEN_MISMATCH, (), "tokens do not match tree yield"))
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


def labeled_spans(tree: Tree) -> list:
    """One :class:`LabeledSpan` per non-terminal (a multiset: duplicates kept)."""
    spans: list = []
    _spans(tree.root, 0, spans)
    return spans


def _spans(node: Node, start: int, spans: list) -> int:
    if isinstance(node, Token):
        return start + 1
    end = start
    for child in node.children:
        end = _spans(child, end, spans)
    spans.append(LabeledSpan(node.label, start, end))
    return end


def yield_tokens(tree: Tree) -> list:
    """The utterance tokens, left to right."""
    return list(tree.tokens)
