"""Transition system for top-down parsing of intent-slot trees.

A derivation starts from the full token buffer and an empty stack and
applies three kinds of actions: NT(label) opens a non-terminal, SHIFT moves
the next buffer token under the rightmost open non-terminal, and REDUCE
closes the rightmost open non-terminal into a finished subtree.  The action
mask (:func:`valid_actions`) bakes in both the structural rules of the
parser and the intent-slot grammar constraints, so every completed
derivation yields a well-formed tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .trees import INTENT, SLOT, Label, NonTerminal, Token, Tree, validate

DEFAULT_MAX_OPEN_NTS = 40


class TransitionError(Exception):
    pass


class EmptyUtterance(TransitionError):
    pass


class InvalidAction(TransitionError):
    def __init__(self, action: "Action", state_summary: str, step: Optional[int] = None):
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"invalid action {action}{at} in state {state_summary}")
        self.action = action
        self.state_summary = state_summary
        self.step = step


class IncompleteDerivation(TransitionError):
    pass


class ConstraintViolation(TransitionError):
    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Action:
    """SHIFT, REDUCE, or NT(label)."""

    op: str
    label: Optional[Label] = None

    def __post_init__(self):
        if self.op not in ("SHIFT", "REDUCE", "NT"):
            raise ValueError(f"unknown action op {self.op!r}")
        if (self.op == "NT") != (self.label is not None):
            raise ValueError("NT actions carry a label; SHIFT/REDUCE do not")

    def __str__(self) -> str:
        return f"NT({self.label})" if self.op == "NT" else self.op


SHIFT = Action("SHIFT")
REDUCE = Action("REDUCE")


def nt(label: "Label | str") -> Action:
    if isinstance(label, str):
        label = Label.parse(label)
    return Action("NT", label)


_NT_RE = re.compile(r"^NT\((.+)\)$")


def parse_action(text: str) -> Action:
    if text == "SHIFT":
        return SHIFT
    if text == "REDUCE":
        return REDUCE
    m = _NT_RE.match(text)
    if m:
        return nt(m.group(1))
    raise ValueError(f"cannot parse action {text!r}")


def format_actions(actions: Sequence[Action]) -> str:
    return " ".join(str(a) for a in actions)


def parse_actions(line: str) -> list:
    return [parse_action(tok) for tok in line.split()]


class ActionKind(Enum):
    """Mask granularity: NT actions are split by label kind only."""

    SHIFT = "SHIFT"
    REDUCE = "REDUCE"
    NT_INTENT = "NT-intent"
    NT_SLOT = "NT-slot"


def kind_of(action: Action) -> ActionKind:
    if action.op == "SHIFT":
        return ActionKind.SHIFT
    if action.op == "REDUCE":
        return ActionKind.REDUCE
    return ActionKind.NT_INTENT if action.label.is_intent else ActionKind.NT_SLOT


class _OpenNT:
    """An open non-terminal on the stack with the children gathered so far."""

    __slots__ = ("label", "children", "has_nt_child")

    def __init__(self, label, children, has_nt_child):
        self.label = label
        self.children = children
        self.has_nt_child = has_nt_child


class ParserState:
    """Immutable derivation state; apply() returns a fresh state.

    The stack is represented as the tuple of open non-terminals (each with
    its partial child list); finished subtrees are attached to their parent
    as soon as they close, and the final tree lands in ``root``.
    """

    __slots__ = ("tokens", "pos", "open_stack", "root")

    def __init__(self, tokens, pos=0, open_stack=(), root=None):
        self.tokens = tokens
        self.pos = pos
        self.open_stack = open_stack
        self.root = root

    @property
    def buffer(self) -> tuple:
        return self.tokens[self.pos :]

    @property
    def open_count(self) -> int:
        return len(self.open_stack)

    @property
    def is_terminal(self) -> bool:
        return self.root is not None

    def summary(self) -> str:
        top = self.open_stack[-1].label if self.open_stack else None
        return (
            f"(buffer={len(self.tokens) - self.pos}, open={self.open_count}, "
            f"top={top}, done={self.root is not None})"
        )

    def __repr__(self) -> str:
        return f"ParserState{self.summary()}"


def initial_state(tokens: Sequence[str]) -> ParserState:
    if not tokens:
        raise EmptyUtterance("cannot parse an empty utterance")
    return ParserState(tuple(tokens))


def valid_actions(state: ParserState, max_open_nts: int = DEFAULT_MAX_OPEN_NTS) -> frozenset:
    """The set of permitted :class:`ActionKind` values; empty iff terminal.

    Encodes the parser's structural rules plus the grammar constraints:
    intents open at the root or under a childless slot, slots open under
    intents, a slot that holds an intent accepts nothing further, and once
    the buffer is exhausted only REDUCE remains.
    """
    if state.root is not None:
        return frozenset()
    buffer_empty = state.pos >= len(state.tokens)
    if state.open_count == 0:
        # Nothing derived yet: the root non-terminal must be an intent.
        return frozenset() if buffer_empty else frozenset({ActionKind.NT_INTENT})
    if buffer_empty:
        return frozenset({ActionKind.REDUCE})
    kinds = set()
    top = state.open_stack[-1]
    if not (top.label.kind == SLOT and top.has_nt_child):
        kinds.add(ActionKind.SHIFT)
    if state.open_count < max_open_nts:
        if top.label.kind == INTENT:
            kinds.add(ActionKind.NT_SLOT)
        elif not top.children:
            kinds.add(ActionKind.NT_INTENT)
    if top.children and state.open_count > 1:
        kinds.add(ActionKind.REDUCE)
    return frozenset(kinds)


def apply(
    state: ParserState, action: Action, max_open_nts: int = DEFAULT_MAX_OPEN_NTS
) -> ParserState:
    """Execute one action, or raise :class:`InvalidAction` if masked out."""
    if kind_of(action) not in valid_actions(state, max_open_nts):
        raise InvalidAction(action, state.summary())
    return apply_unchecked(state, action)


def apply_unchecked(state: ParserState, action: Action) -> ParserState:
    """Execute an action the caller has already taken from the
    :func:`valid_actions` mask; an unmasked action gives a corrupt state."""
    if action.op == "NT":
        return ParserState(
            state.tokens,
            state.pos,
            state.open_stack + (_OpenNT(action.label, (), False),),
        )
    if action.op == "SHIFT":
        top = state.open_stack[-1]
        new_top = _OpenNT(
            top.label, top.children + (Token(state.tokens[state.pos]),), top.has_nt_child
        )
        return ParserState(state.tokens, state.pos + 1, state.open_stack[:-1] + (new_top,))
    # REDUCE
    top = state.open_stack[-1]
    node = NonTerminal(top.label, top.children)
    rest = state.open_stack[:-1]
    if rest:
        parent = rest[-1]
        new_parent = _OpenNT(parent.label, parent.children + (node,), True)
        return ParserState(state.tokens, state.pos, rest[:-1] + (new_parent,))
    return ParserState(state.tokens, state.pos, (), node)


def oracle(tree: Tree) -> list:
    """The action sequence that derives ``tree``: NT at each non-terminal
    entry, SHIFT per token, REDUCE at each exit (preorder walk)."""
    violations = validate(tree)
    if violations:
        raise ConstraintViolation(violations)
    actions: list = []
    _oracle_walk(tree.root, actions)
    return actions


def _oracle_walk(node, actions: list) -> None:
    actions.append(nt(node.label))
    for child in node.children:
        if isinstance(child, Token):
            actions.append(SHIFT)
        else:
            _oracle_walk(child, actions)
    actions.append(REDUCE)


def execute(
    actions: Sequence[Action],
    tokens: Sequence[str],
    max_open_nts: int = DEFAULT_MAX_OPEN_NTS,
) -> Tree:
    """Fold :func:`apply` over ``actions`` starting from ``tokens``."""
    state = initial_state(tokens)
    for step, action in enumerate(actions):
        if state.is_terminal:
            raise InvalidAction(action, state.summary(), step=step)
        try:
            state = apply(state, action, max_open_nts)
        except InvalidAction as err:
            raise InvalidAction(err.action, err.state_summary, step=step) from None
    if not state.is_terminal:
        raise IncompleteDerivation(
            f"derivation ended in non-terminal state {state.summary()}"
        )
    return Tree(state.root, state.tokens)
