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

``Tree`` and ``NonTerminal`` check themselves when built: a non-terminal
has a child, and a tree's tokens are its root's yield, found by a walk of
the whole tree.  Two builders skip these checks (``_prechecked``), having
just established what they would re-derive: ``parse_bracketed``, for its
non-terminals and its tree, raises ``EmptyNonTerminal`` before a childless
node and collects the yield as it reads each token; ``transitions.execute``,
for its tree, follows the action mask, which closes the root only once the
buffer is empty, so the yield is the tokens in order.  Every other builder,
the decoders among them, is checked.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, Union

INTENT = "IN"
SLOT = "SL"

# The class of exactly the characters for which ``ch.isspace() or ch in
# "[]"``: no symbol contains one, and they split bracketed text.
_SEPARATORS = r"\s\[\]"
_BAD_SYMBOL_CHAR = re.compile(f"[{_SEPARATORS}]")
# The lexemes of bracketed text: a bracket, or a run of characters that are
# neither whitespace nor brackets.  Whitespace separates lexemes and is
# never part of one.
_LEXEME = re.compile(rf"[\[\]]|[^{_SEPARATORS}]+")

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


def _prechecked(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass, without its ``__post_init__``
    check: for a builder that has just established what the check would
    re-derive (see the module docstring)."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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
    stack = []  # per open non-terminal: (label, children, offset of its '[')
    children = None  # the innermost open non-terminal's children
    words = []  # the yield so far
    lexemes = _LEXEME.finditer(text)
    for match in lexemes:
        lexeme = match.group()
        if lexeme == "[":
            start = match.start()
            if len(stack) == MAX_DEPTH:
                raise NestingTooDeep(f"non-terminals nested deeper than {MAX_DEPTH}", start)
            # The label is the word right after the '['; a gap, a bracket
            # or the end of the text there is an empty label.
            match = next(lexemes, None)
            raw = ""
            if match is not None and match.start() == start + 1 and match.group() not in "[]":
                raw = match.group()
            try:
                label = shared_label(raw)
            except ValueError:
                raise BadLabelPrefix(f"bad non-terminal label {raw!r}", start + 1) from None
            children = []
            stack.append((label, children, start))
        elif lexeme == "]":
            if not stack:
                raise UnbalancedBrackets("expected '[' to open a tree", match.start())
            label, _, _ = stack.pop()
            if not children:
                raise EmptyNonTerminal(f"non-terminal {label} has no children", match.start())
            node = _prechecked(NonTerminal, label=label, children=tuple(children))
            if not stack:
                break
            children = stack[-1][1]
            children.append(node)
        elif not stack:
            raise UnbalancedBrackets("expected '[' to open a tree", match.start())
        else:
            token = shared_token(lexeme)
            children.append(token)
            words.append(token.text)
    else:
        if stack:
            raise UnbalancedBrackets("unclosed '['", stack[-1][2])
        raise UnbalancedBrackets("expected '[' to open a tree", len(text))
    trailing = next(lexemes, None)
    if trailing is not None:
        raise TrailingInput("unexpected input after tree", trailing.start())
    return _prechecked(Tree, root=node, tokens=tuple(words))


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

