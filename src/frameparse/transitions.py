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

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .trees import (
    INTENT, LABEL_CACHE_SIZE, MAX_DEPTH, SLOT, Label, NonTerminal, Token, Tree, _prechecked,
    shared_token, validate,
)

# One nesting limit: every tree that parse_bracketed accepts can be derived.
DEFAULT_MAX_OPEN_NTS = MAX_DEPTH


class TransitionError(Exception):
    pass


class EmptyUtterance(TransitionError):
    pass


class InvalidAction(TransitionError):
    """An action the mask refuses; the message names the action, the step
    (when given) and the state's :meth:`ParserState.summary`."""

    def __init__(self, action: "Action", state_summary: str, step: Optional[int] = None):
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"invalid action {action}{at} in state {state_summary}")
        self.action = action
        self.step = step


class IncompleteDerivation(TransitionError):
    pass


class ConstraintViolation(TransitionError):
    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))


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


# Actions are immutable and compare by value, so, as with ``shared_label``,
# each label has one shared NT action rather than a fresh one per use.
@functools.lru_cache(maxsize=LABEL_CACHE_SIZE)
def nt(label: "Label | str") -> Action:
    if isinstance(label, str):
        label = Label.parse(label)
    return Action("NT", label)


def format_actions(actions: Sequence[Action]) -> str:
    return " ".join(str(a) for a in actions)


# Mask bits, one per action kind: NT actions are split by label kind only.
_SHIFT, _REDUCE, _NT_INTENT, _NT_SLOT = 1, 2, 4, 8


def kind_of(action: Action) -> int:
    """The mask bit of the action's kind."""
    if action.op == "SHIFT":
        return _SHIFT
    if action.op == "REDUCE":
        return _REDUCE
    return _NT_INTENT if action.label.is_intent else _NT_SLOT


class _OpenNT:
    """An open non-terminal on the stack with the children gathered so far."""

    __slots__ = ("label", "children")

    def __init__(self, label, children):
        self.label = label
        self.children = children


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


def valid_actions(state: ParserState, max_open_nts: int = DEFAULT_MAX_OPEN_NTS) -> int:
    """The mask of permitted action kinds: the OR of the :func:`kind_of`
    bits it allows, 0 iff terminal.

    Encodes the parser's structural rules plus the grammar constraints:
    intents open at the root or under a childless slot, slots open under
    intents, a slot that holds an intent accepts nothing further, and once
    the buffer is exhausted only REDUCE remains.
    """
    if state.root is not None:
        return 0
    buffer_empty = state.pos >= len(state.tokens)
    open_count = len(state.open_stack)
    if open_count == 0:
        # Nothing derived yet: the root non-terminal must be an intent.
        return 0 if buffer_empty else _NT_INTENT
    if buffer_empty:
        return _REDUCE
    bits = 0
    top = state.open_stack[-1]
    # A slot's children are all tokens or one intent.
    if not (top.label.kind == SLOT and top.children and type(top.children[0]) is NonTerminal):
        bits |= _SHIFT
    if open_count < max_open_nts:
        if top.label.kind == INTENT:
            bits |= _NT_SLOT
        elif not top.children:
            bits |= _NT_INTENT
    if top.children and open_count > 1:
        bits |= _REDUCE
    return bits


def apply(state: ParserState, action: Action) -> ParserState:
    """Execute one action, or raise :class:`InvalidAction` if the default
    mask refuses it."""
    if not kind_of(action) & valid_actions(state):
        raise InvalidAction(action, state.summary())
    return apply_unchecked(state, action)


def apply_unchecked(state: ParserState, action: Action) -> ParserState:
    """Execute an action the caller has already taken from the
    :func:`valid_actions` mask; an unmasked action gives a corrupt state."""
    if action.op == "NT":
        return ParserState(
            state.tokens,
            state.pos,
            state.open_stack + (_OpenNT(action.label, ()),),
        )
    if action.op == "SHIFT":
        top = state.open_stack[-1]
        new_top = _OpenNT(top.label, top.children + (shared_token(state.tokens[state.pos]),))
        return ParserState(state.tokens, state.pos + 1, state.open_stack[:-1] + (new_top,))
    # REDUCE
    top = state.open_stack[-1]
    node = NonTerminal(top.label, top.children)
    rest = state.open_stack[:-1]
    if rest:
        parent = rest[-1]
        new_parent = _OpenNT(parent.label, parent.children + (node,))
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


def execute(actions: Sequence[Action], tokens: Sequence[str]) -> Tree:
    """Fold :func:`apply` over ``actions`` starting from ``tokens``; an
    action the mask refuses (every action, once the state is terminal)
    raises :class:`InvalidAction` naming its step."""
    state = initial_state(tokens)
    for step, action in enumerate(actions):
        if not kind_of(action) & valid_actions(state):
            raise InvalidAction(action, state.summary(), step=step)
        state = apply_unchecked(state, action)
    if not state.is_terminal:
        raise IncompleteDerivation(
            f"derivation ended in non-terminal state {state.summary()}"
        )
    # The mask closes the root only once the buffer is empty, so the tree's
    # yield is ``state.tokens``, in order: no walk needs to confirm it.
    return _prechecked(Tree, root=state.root, tokens=state.tokens)
