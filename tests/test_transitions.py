import numpy as np
import pytest

import oracles
import synth
from frameparse.transitions import (
    Action,
    ActionKind,
    ConstraintViolation,
    EmptyUtterance,
    IncompleteDerivation,
    InvalidAction,
    REDUCE,
    SHIFT,
    apply,
    execute,
    format_actions,
    initial_state,
    kind_of,
    nt,
    oracle,
    parse_actions,
    valid_actions,
)
from frameparse.trees import (
    Tree,
    count_nonterminals,
    intent,
    parse_bracketed,
    serialize,
    slot,
    validate,
)

NESTED = (
    "[IN:GET_DIRECTIONS Driving directions to "
    "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] [SL:CAT_EVENT game ] ] ] ]"
)
NESTED_ACTIONS = [
    nt("IN:GET_DIRECTIONS"), SHIFT, SHIFT, SHIFT,
    nt("SL:DESTINATION"), nt("IN:GET_EVENT"), SHIFT,
    nt("SL:NAME_EVENT"), SHIFT, REDUCE,
    nt("SL:CAT_EVENT"), SHIFT, REDUCE,
    REDUCE, REDUCE, REDUCE,
]


def test_initial_state():
    state = initial_state(["hello"])
    assert state.buffer == ("hello",)
    assert state.open_count == 0 and not state.is_terminal
    assert initial_state(NESTED.split()[1:7]) is not None
    assert len(initial_state(("a", "b", "c")).buffer) == 3
    with pytest.raises(EmptyUtterance):
        initial_state([])


def test_action_parsing_and_formatting():
    actions = [nt("IN:X"), SHIFT, REDUCE]
    line = format_actions(actions)
    assert line == "NT(IN:X) SHIFT REDUCE"
    assert parse_actions(line) == actions
    with pytest.raises(ValueError):
        Action("NT")
    with pytest.raises(ValueError):
        Action("SHIFT", intent("X"))


def test_valid_actions_initial():
    state = initial_state(("a", "b"))
    assert valid_actions(state) == {ActionKind.NT_INTENT}


def test_valid_actions_after_root_open():
    state = apply(initial_state(("a", "b")), nt("IN:X"))
    # Root open, no children yet: cannot reduce, cannot open another intent.
    assert valid_actions(state) == {ActionKind.SHIFT, ActionKind.NT_SLOT}


def test_valid_actions_buffer_empty_is_reduce_only():
    state = initial_state(("a",))
    for action in (nt("IN:X"), nt("SL:Y"), SHIFT):
        state = apply(state, action)
    assert state.pos == 1 and state.open_count == 2
    assert valid_actions(state) == {ActionKind.REDUCE}


def test_valid_actions_slot_with_intent_child_is_reduce_only():
    state = initial_state(("a", "b"))
    for action in (nt("IN:X"), nt("SL:Y"), nt("IN:X"), SHIFT, REDUCE):
        state = apply(state, action)
    # Open slot now holds a finished intent; only REDUCE may follow.
    assert valid_actions(state) == {ActionKind.REDUCE}


def test_valid_actions_respects_open_cap():
    state = initial_state(("a",))
    state = apply(state, nt("IN:X"), max_open_nts=3)
    state = apply(state, nt("SL:Y"), max_open_nts=3)
    kinds = valid_actions(state, max_open_nts=3)
    assert ActionKind.NT_INTENT in kinds
    state = apply(state, nt("IN:X"), max_open_nts=3)
    kinds = valid_actions(state, max_open_nts=3)
    assert ActionKind.NT_SLOT not in kinds and ActionKind.NT_INTENT not in kinds
    assert ActionKind.SHIFT in kinds


def test_apply_minimal_derivation():
    state = initial_state(("hello",))
    for action in (nt("IN:X"), SHIFT, REDUCE):
        state = apply(state, action)
    assert state.is_terminal
    assert serialize(state.root) == "[IN:X hello ]"


def test_apply_rejects_invalid():
    state = initial_state(("a", "b"))
    with pytest.raises(InvalidAction):
        apply(state, SHIFT)  # nothing open yet
    for action in (nt("IN:X"), SHIFT, nt("SL:Y"), SHIFT):
        state = apply(state, action)
    # Buffer exhausted: only REDUCE is permitted.
    with pytest.raises(InvalidAction):
        apply(state, SHIFT)
    with pytest.raises(InvalidAction):
        apply(state, nt("SL:Z"))


def test_apply_rejects_wrong_nt_kind():
    state = initial_state(("a",))
    with pytest.raises(InvalidAction):
        apply(state, nt("SL:Y"))  # root must be an intent
    state = apply(state, nt("IN:X"))
    with pytest.raises(InvalidAction):
        apply(state, nt("IN:Z"))  # intents may not nest directly


def test_full_nested_derivation():
    tokens = ("Driving", "directions", "to", "the", "Eagles", "game")
    assert execute(NESTED_ACTIONS, tokens) == parse_bracketed(NESTED)


def test_oracle_examples():
    assert oracle(parse_bracketed("[IN:X hello ]")) == [nt("IN:X"), SHIFT, REDUCE]
    assert oracle(parse_bracketed(NESTED)) == NESTED_ACTIONS
    assert len(NESTED_ACTIONS) == 16


def test_oracle_rejects_invalid_tree():
    from frameparse.trees import NonTerminal, Token

    slot_root = Tree(NonTerminal(slot("Y"), (Token("a"),)))
    with pytest.raises(ConstraintViolation):
        oracle(slot_root)


def test_execute_errors():
    with pytest.raises(IncompleteDerivation):
        execute([nt("IN:X"), SHIFT], ("hello",))
    with pytest.raises(InvalidAction) as err:
        execute([nt("IN:X"), SHIFT, SHIFT], ("hello",))
    assert err.value.step == 2
    with pytest.raises(InvalidAction) as err:
        execute([nt("IN:X"), SHIFT, REDUCE, REDUCE], ("hello",))
    assert err.value.step == 3


def test_oracle_roundtrip_random():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        tree = synth.random_valid_tree(rng)
        actions = oracle(tree)
        assert len(actions) == len(tree.tokens) + 2 * count_nonterminals(tree)
        assert execute(actions, tree.tokens) == tree


def test_oracle_actions_always_valid():
    rng = np.random.default_rng(7)
    for _ in range(300):
        tree = synth.random_valid_tree(rng, max_tokens=10)
        state = initial_state(tree.tokens)
        for action in oracle(tree):
            assert kind_of(action) in valid_actions(state)
            state = apply(state, action)
        assert state.is_terminal and valid_actions(state) == frozenset()


def _all_completions(tokens, intents, slots, max_len):
    """Every action sequence the mask permits, up to max_len actions."""
    finished = []
    concrete = {
        ActionKind.SHIFT: [SHIFT],
        ActionKind.REDUCE: [REDUCE],
        ActionKind.NT_INTENT: [nt(lab) for lab in intents],
        ActionKind.NT_SLOT: [nt(lab) for lab in slots],
    }
    stack = [(initial_state(tokens), [])]
    while stack:
        state, history = stack.pop()
        if state.is_terminal:
            finished.append((state, history))
            continue
        if len(history) >= max_len:
            continue
        for kind in valid_actions(state):
            for action in concrete[kind]:
                stack.append((apply(state, action), history + [action]))
    return finished


def test_mask_soundness_and_completeness_small():
    intents = [intent("X")]
    slots = [slot("Y")]
    finished = _all_completions(("a", "b"), intents, slots, max_len=9)
    derived = set()
    for state, history in finished:
        tree = Tree(state.root)
        assert validate(tree) == []
        assert oracles.brute_constraints_ok(tree)
        derived.add(serialize(tree))
    assert derived == oracles.enumerate_valid_trees(("a", "b"), intents, slots, max_nts=3)
