import numpy as np
import pytest

import oracles
import synth
from frameparse.transitions import (
    DEFAULT_MAX_OPEN_NTS,
    Action,
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
    valid_actions,
)
from frameparse.trees import (
    INTENT,
    LABEL_CACHE_SIZE,
    MAX_DEPTH,
    SLOT,
    NonTerminal,
    Tree,
    count_nonterminals,
    intent,
    parse_bracketed,
    serialize,
    slot,
    validate,
)

# The mask bit of each action kind.
SHIFT_BIT, REDUCE_BIT, NT_INTENT_BIT, NT_SLOT_BIT = (
    kind_of(action) for action in (SHIFT, REDUCE, nt("IN:X"), nt("SL:Y"))
)


def parse_actions(line: str) -> list:
    """The inverse of ``format_actions``."""
    actions = []
    for text in line.split():
        if text in ("SHIFT", "REDUCE"):
            actions.append(Action(text))
        elif text.startswith("NT(") and text.endswith(")"):
            actions.append(nt(text[3:-1]))
        else:
            raise ValueError(f"cannot parse action {text!r}")
    return actions


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
    assert state.tokens[state.pos:] == ("hello",)
    assert state.open_count == 0 and not state.is_terminal
    assert initial_state(NESTED.split()[1:7]) is not None
    state = initial_state(("a", "b", "c"))
    assert len(state.tokens[state.pos:]) == 3
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


def test_nt_actions_are_shared_per_label():
    """``nt`` gives one shared action per label, from a cache as bounded as
    the label cache; a bad label raises on every call."""
    assert nt(intent("X")) is nt(intent("X")) == Action("NT", intent("X"))
    assert nt.cache_info().maxsize == LABEL_CACHE_SIZE
    for _ in range(2):
        with pytest.raises(ValueError):
            nt("XX:Y")


def test_valid_actions_initial():
    state = initial_state(("a", "b"))
    assert valid_actions(state) == NT_INTENT_BIT


def test_valid_actions_after_root_open():
    state = apply(initial_state(("a", "b")), nt("IN:X"))
    # Root open, no children yet: cannot reduce, cannot open another intent.
    assert valid_actions(state) == SHIFT_BIT | NT_SLOT_BIT


def test_valid_actions_buffer_empty_is_reduce_only():
    state = initial_state(("a",))
    for action in (nt("IN:X"), nt("SL:Y"), SHIFT):
        state = apply(state, action)
    assert state.pos == 1 and state.open_count == 2
    assert valid_actions(state) == REDUCE_BIT


def test_valid_actions_slot_with_intent_child_is_reduce_only():
    state = initial_state(("a", "b"))
    for action in (nt("IN:X"), nt("SL:Y"), nt("IN:X"), SHIFT, REDUCE):
        state = apply(state, action)
    # Open slot now holds a finished intent; only REDUCE may follow.
    assert valid_actions(state) == REDUCE_BIT


def test_valid_actions_respects_open_cap():
    state = initial_state(("a",))
    state = apply(state, nt("IN:X"))
    state = apply(state, nt("SL:Y"))
    kinds = valid_actions(state, max_open_nts=3)
    assert kinds & NT_INTENT_BIT
    state = apply(state, nt("IN:X"))
    kinds = valid_actions(state, max_open_nts=3)
    assert not kinds & NT_SLOT_BIT and not kinds & NT_INTENT_BIT
    assert kinds & SHIFT_BIT


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
    from frameparse.trees import Token

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
            assert kind_of(action) & valid_actions(state)
            state = apply(state, action)
        assert state.is_terminal and valid_actions(state) == 0


def reference_valid_actions(state, max_open_nts):
    """The action mask as a set of kind bits built from the rules on every
    call; the set of bits of the int that ``valid_actions`` returns must
    equal it."""
    if state.is_terminal:
        return set()
    buffer_empty = not state.tokens[state.pos:]
    if state.open_count == 0:
        return set() if buffer_empty else {NT_INTENT_BIT}
    if buffer_empty:
        return {REDUCE_BIT}
    kinds = set()
    top = state.open_stack[-1]
    holds_nt = any(isinstance(child, NonTerminal) for child in top.children)
    if not (top.label.kind == SLOT and holds_nt):
        kinds.add(SHIFT_BIT)
    if state.open_count < max_open_nts:
        if top.label.kind == INTENT:
            kinds.add(NT_SLOT_BIT)
        elif not top.children:
            kinds.add(NT_INTENT_BIT)
    if top.children and state.open_count > 1:
        kinds.add(REDUCE_BIT)
    return kinds


def mask_bits(mask: int) -> set:
    """The kind bits set in a mask."""
    return {bit for bit in (SHIFT_BIT, REDUCE_BIT, NT_INTENT_BIT, NT_SLOT_BIT) if mask & bit}


def test_valid_actions_equals_the_set_building_reference():
    """On every state of random derivations (each step a random permitted
    action), under tight and default caps on open non-terminals."""
    rng = np.random.default_rng(8)
    concrete = {
        SHIFT_BIT: [SHIFT],
        REDUCE_BIT: [REDUCE],
        NT_INTENT_BIT: [nt("IN:X"), nt("IN:Z")],
        NT_SLOT_BIT: [nt("SL:Y")],
    }
    for walk in range(600):
        cap = (2, 3, 5, DEFAULT_MAX_OPEN_NTS)[walk % 4]
        state = initial_state(tuple(f"w{i}" for i in range(int(rng.integers(1, 9)))))
        while True:
            mask = valid_actions(state, cap)
            assert type(mask) is int and 0 <= mask < 16
            kinds = mask_bits(mask)
            assert kinds == reference_valid_actions(state, cap)
            if not kinds:
                break
            # A fixed order, so that the seed fixes the walk.
            ordered = [k for k in (NT_INTENT_BIT, NT_SLOT_BIT, REDUCE_BIT, SHIFT_BIT) if k in kinds]
            kind = ordered[int(rng.integers(len(ordered)))]
            options = concrete[kind]
            state = apply(state, options[int(rng.integers(len(options)))])
        assert state.is_terminal and validate(Tree(state.root)) == []


def test_execute_derives_the_deepest_parsable_tree():
    """The executor's default limit on open non-terminals is the parser's
    nesting limit, so a valid tree MAX_DEPTH deep replays from its oracle."""
    labels = ["IN:A" if level % 2 == 0 else "SL:B" for level in range(MAX_DEPTH)]
    tree = parse_bracketed("".join(f"[{label} " for label in labels) + "w" + " ]" * MAX_DEPTH)
    assert DEFAULT_MAX_OPEN_NTS == MAX_DEPTH and validate(tree) == []
    assert execute(oracle(tree), tree.tokens) == tree


def _all_completions(tokens, intents, slots, max_len):
    """Every action sequence the mask permits, up to max_len actions."""
    finished = []
    concrete = {
        SHIFT_BIT: [SHIFT],
        REDUCE_BIT: [REDUCE],
        NT_INTENT_BIT: [nt(lab) for lab in intents],
        NT_SLOT_BIT: [nt(lab) for lab in slots],
    }
    stack = [(initial_state(tokens), [])]
    while stack:
        state, history = stack.pop()
        if state.is_terminal:
            finished.append((state, history))
            continue
        if len(history) >= max_len:
            continue
        for kind in mask_bits(valid_actions(state)):
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
