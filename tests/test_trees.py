import numpy as np
import pytest

import oracles
import synth
from frameparse.metrics import read_gold_file
from frameparse.trees import (
    BadLabelPrefix,
    EmptyNonTerminal,
    Label,
    LabeledSpan,
    NonTerminal,
    Token,
    TrailingInput,
    Tree,
    UnbalancedBrackets,
    count_nonterminals,
    depth,
    intent,
    labeled_spans,
    parse_bracketed,
    serialize,
    slot,
    validate,
    yield_tokens,
)

NESTED = (
    "[IN:GET_DIRECTIONS Driving directions to "
    "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] [SL:CAT_EVENT game ] ] ] ]"
)
DISTANCE = (
    "[IN:GET_DISTANCE How far is "
    "[SL:DESTINATION [IN:GET_RESTAURANT_LOCATION the [SL:TYPE_FOOD coffee ] shop ] ] ]"
)


def test_parse_nested_example():
    tree = parse_bracketed(NESTED)
    assert tree.root.label == intent("GET_DIRECTIONS")
    assert tree.tokens == ("Driving", "directions", "to", "the", "Eagles", "game")
    dest = tree.root.children[3]
    assert isinstance(dest, NonTerminal) and dest.label == slot("DESTINATION")
    inner = dest.children[0]
    assert inner.label == intent("GET_EVENT")
    assert [c.label.name for c in inner.children[1:]] == ["NAME_EVENT", "CAT_EVENT"]


def test_parse_minimal():
    tree = parse_bracketed("[IN:X hello ]")
    assert tree.root == NonTerminal(intent("X"), (Token("hello"),))
    assert tree.tokens == ("hello",)


def test_parse_empty_nonterminal():
    with pytest.raises(EmptyNonTerminal) as err:
        parse_bracketed("[IN:X [SL:Y ] ]")
    assert err.value.offset == "[IN:X [SL:Y ] ]".index("]")


def test_parse_errors_carry_offsets():
    with pytest.raises(UnbalancedBrackets) as err:
        parse_bracketed("[IN:X hello")
    assert err.value.offset == 0
    with pytest.raises(UnbalancedBrackets):
        parse_bracketed("hello")
    with pytest.raises(UnbalancedBrackets):
        parse_bracketed("")
    with pytest.raises(BadLabelPrefix) as err:
        parse_bracketed("[FOO hello ]")
    assert err.value.offset == 1
    with pytest.raises(BadLabelPrefix):
        parse_bracketed("[IN: hello ]")
    with pytest.raises(BadLabelPrefix):
        parse_bracketed("[ IN:X hello ]")
    with pytest.raises(TrailingInput) as err:
        parse_bracketed("[IN:X hello ] junk")
    assert err.value.offset == len("[IN:X hello ] ")
    with pytest.raises(TrailingInput):
        parse_bracketed("[IN:X hello ] ]")


def test_parse_accepts_extra_whitespace():
    tree = parse_bracketed("  [IN:X   hello\t[SL:Y world ]  ] ")
    assert serialize(tree) == "[IN:X hello [SL:Y world ] ]"


def test_serialize_canonical():
    assert serialize(parse_bracketed(NESTED)) == NESTED
    assert serialize(parse_bracketed("[IN:X hello ]")) == "[IN:X hello ]"


def test_roundtrip_random_trees():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        tree = synth.random_valid_tree(rng, max_tokens=20, max_depth=8)
        assert parse_bracketed(serialize(tree)) == tree


def test_read_bracketed_file(tmp_path):
    path = tmp_path / "trees.txt"
    path.write_text(f"{NESTED}\n\n[IN:X hello ]\n", encoding="utf-8")
    trees = read_gold_file(path)
    assert len(trees) == 2 and trees[1].tokens == ("hello",)
    path.write_text("[IN:X hello\n", encoding="utf-8")
    with pytest.raises(UnbalancedBrackets) as err:
        read_gold_file(path)
    assert "line 1" in str(err.value)


def test_label_invariants():
    with pytest.raises(ValueError):
        Label("XX", "NAME")
    with pytest.raises(ValueError):
        Label("IN", "")
    with pytest.raises(ValueError):
        Label("IN", "A B")
    with pytest.raises(ValueError):
        Token("")
    with pytest.raises(ValueError):
        Token("a]b")
    with pytest.raises(ValueError):
        NonTerminal(intent("X"), ())


def test_tree_token_agreement_enforced():
    root = NonTerminal(intent("X"), (Token("hello"),))
    assert Tree(root).tokens == ("hello",)
    assert Tree(root, ("hello",)).tokens == ("hello",)
    with pytest.raises(ValueError):
        Tree(root, ("goodbye",))


def test_validate_good_trees():
    assert validate(parse_bracketed(NESTED)) == []
    assert validate(parse_bracketed(DISTANCE)) == []


def test_validate_root_not_intent():
    tree = Tree(NonTerminal(slot("Y"), (Token("a"),)))
    names = [v.constraint for v in validate(tree)]
    assert names == ["RootNotIntent"]


def test_validate_slot_mixed_children():
    inner = NonTerminal(intent("Z"), (Token("b"),))
    bad_slot = NonTerminal(slot("Y"), (Token("a"), inner))
    tree = Tree(NonTerminal(intent("X"), (bad_slot,)))
    violations = validate(tree)
    assert [v.constraint for v in violations] == ["SlotMixedChildren"]
    assert violations[0].path == (0,)


def test_validate_intent_under_intent():
    inner = NonTerminal(intent("Z"), (Token("a"),))
    tree = Tree(NonTerminal(intent("X"), (inner,)))
    assert [v.constraint for v in validate(tree)] == ["IntentHasIntentChild"]


def test_validate_slot_under_slot():
    inner = NonTerminal(slot("Z"), (Token("a"),))
    tree = Tree(NonTerminal(intent("X"), (NonTerminal(slot("Y"), (inner,)),)))
    assert [v.constraint for v in validate(tree)] == ["SlotMixedChildren"]


def test_validate_matches_brute_force_on_mutated_trees():
    rng = np.random.default_rng(1)
    for _ in range(500):
        tree = synth.random_valid_tree(rng, max_tokens=8, max_depth=5)
        if rng.random() < 0.6:
            tree = _flip_random_label(tree, rng)
        assert (validate(tree) == []) == oracles.brute_constraints_ok(tree)


def _flip_random_label(tree, rng):
    """Flip the kind of one random non-terminal (may create violations)."""
    target = int(rng.integers(count_nonterminals(tree)))
    counter = [0]

    def rebuild(node):
        if isinstance(node, Token):
            return node
        index = counter[0]
        counter[0] += 1
        label = node.label
        if index == target:
            label = Label("SL" if label.kind == "IN" else "IN", label.name)
        return NonTerminal(label, tuple(rebuild(c) for c in node.children))

    return Tree(rebuild(tree.root))


def test_depth_examples():
    assert depth(parse_bracketed("[IN:X hello ]")) == 1
    assert depth(parse_bracketed("[IN:X a [SL:Y b ] ]")) == 2
    assert depth(parse_bracketed(NESTED)) == 4
    assert depth(parse_bracketed(DISTANCE)) == 4


def test_depth_bounds_property():
    rng = np.random.default_rng(2)
    for _ in range(300):
        tree = synth.random_valid_tree(rng)
        d = depth(tree)
        assert 1 <= d <= count_nonterminals(tree)


def test_labeled_spans_nested_example():
    got = {str(s) for s in labeled_spans(parse_bracketed(NESTED))}
    assert got == {
        "IN:GET_DIRECTIONS[0,6)",
        "SL:DESTINATION[3,6)",
        "IN:GET_EVENT[3,6)",
        "SL:NAME_EVENT[4,5)",
        "SL:CAT_EVENT[5,6)",
    }


def test_labeled_spans_minimal():
    spans = labeled_spans(parse_bracketed("[IN:X hello ]"))
    assert spans == [LabeledSpan(intent("X"), 0, 1)]


def test_labeled_spans_duplicates_preserved():
    tree = parse_bracketed("[IN:X [SL:Y a ] [SL:Y b ] ]")
    assert len(labeled_spans(tree)) == 3


def test_labeled_spans_count_and_nesting_property():
    rng = np.random.default_rng(3)
    for _ in range(300):
        tree = synth.random_valid_tree(rng)
        spans = labeled_spans(tree)
        assert len(spans) == count_nonterminals(tree)
        for a in spans:
            for b in spans:
                # nested or disjoint, never crossing
                assert (
                    a.end <= b.start
                    or b.end <= a.start
                    or (a.start <= b.start and b.end <= a.end)
                    or (b.start <= a.start and a.end <= b.end)
                )


def test_labeled_spans_match_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(200):
        tree = synth.random_valid_tree(rng)
        mine = sorted((str(s.label), s.start, s.end) for s in labeled_spans(tree))
        assert mine == sorted(oracles.brute_spans(tree))


def test_yield_tokens():
    assert yield_tokens(parse_bracketed(NESTED)) == [
        "Driving", "directions", "to", "the", "Eagles", "game",
    ]
    assert yield_tokens(parse_bracketed("[IN:X hello ]")) == ["hello"]
    rng = np.random.default_rng(5)
    for _ in range(100):
        tree = synth.random_valid_tree(rng)
        assert tuple(yield_tokens(tree)) == tree.tokens
