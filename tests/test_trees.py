import sys

import numpy as np
import pytest

import oracles
import synth
from frameparse import trees
from frameparse.dataset import IngestError
from frameparse.metrics import bracket_items, evaluate, read_gold_file
from frameparse.transitions import execute, oracle
from frameparse.trees import (
    LABEL_CACHE_SIZE,
    TOKEN_CACHE_SIZE,
    BadLabelPrefix,
    EmptyNonTerminal,
    Label,
    MAX_DEPTH,
    NestingTooDeep,
    NonTerminal,
    Token,
    TrailingInput,
    Tree,
    UnbalancedBrackets,
    count_nonterminals,
    depth,
    intent,
    parse_bracketed,
    serialize,
    shared_label,
    shared_token,
    slot,
    validate,
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


def _nested(levels: int) -> str:
    labels = ["IN:A" if level % 2 == 0 else "SL:B" for level in range(levels)]
    return "".join(f"[{label} " for label in labels) + "w" + " ]" * levels


def test_nesting_limit():
    """The deepest accepted tree goes through every recursive traversal;
    one level more is refused at the offset of the '[' that exceeds it."""
    text = _nested(MAX_DEPTH)
    tree = parse_bracketed(text)
    assert depth(tree) == count_nonterminals(tree) == MAX_DEPTH
    assert serialize(tree) == text and validate(tree) == []
    assert tree == parse_bracketed(text) and sum(bracket_items(tree).values()) == MAX_DEPTH
    assert len(oracle(tree)) == 2 * MAX_DEPTH + 1
    assert evaluate([tree], [tree]).exact_match == 100.0
    with pytest.raises(NestingTooDeep) as err:
        parse_bracketed(_nested(MAX_DEPTH + 1))
    assert err.value.offset == 6 * MAX_DEPTH  # each level opens with "[IN:A " or "[SL:B "


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
    with pytest.raises(IngestError) as err:
        read_gold_file(path)
    assert (err.value.kind, err.value.line) == ("tree-format", 1)
    assert str(err.value) == f"{path}: line 1: unclosed '[' (offset 0)"


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


def test_symbol_check_matches_the_per_character_rule():
    """The one-regex search refuses exactly the code points that the rule
    ``ch.isspace() or ch in "[]"`` refuses, over all of Unicode."""
    bad = trees._BAD_SYMBOL_CHAR
    mismatched = [
        hex(cp) for cp in range(sys.maxunicode + 1)
        if (bad.search(chr(cp)) is not None) != (chr(cp).isspace() or chr(cp) in "[]")
    ]
    assert mismatched == []
    with pytest.raises(ValueError):
        Token("a\x1cb")  # a Unicode separator, whitespace to str.isspace
    assert Token("a:b").text == "a:b"


def test_parsed_tokens_and_labels_are_shared_yet_compare_by_value():
    a = parse_bracketed("[IN:X turn [SL:Y the lights ] ]")
    b = parse_bracketed("[IN:X  turn\t[SL:Y the   lights ] ]")
    assert a.root.label is b.root.label
    assert a.root.children[0] is b.root.children[0]
    slot_a, slot_b = a.root.children[1], b.root.children[1]
    assert slot_a.label is slot_b.label
    assert all(x is y for x, y in zip(slot_a.children, slot_b.children))
    assert execute(oracle(a), a.tokens).root.children[0] is a.root.children[0]
    fresh = Tree(NonTerminal(intent("X"), (
        Token("turn"), NonTerminal(slot("Y"), (Token("the"), Token("lights"))),
    )))
    assert fresh.root.children[0] is not a.root.children[0]
    assert a == b == fresh and hash(a) == hash(b) == hash(fresh)
    assert Token("turn") == a.root.children[0] and hash(Token("turn")) == hash(a.root.children[0])
    assert {Label.parse("SL:Y"), slot_a.label} == {slot("Y")}


def test_invalid_symbols_raise_on_every_call():
    """Text that fails validation is never cached, so it raises each time."""
    token_hits = shared_token.cache_info().hits
    label_hits = shared_label.cache_info().hits
    for _ in range(3):
        with pytest.raises(ValueError):
            Token("a b")
        with pytest.raises(ValueError):
            shared_token("a b")
        with pytest.raises(ValueError):
            Label.parse("XX:y")
        with pytest.raises(ValueError):
            shared_label("XX:y")
        with pytest.raises(BadLabelPrefix):
            parse_bracketed("[XX:y a ]")
    assert shared_token.cache_info().hits == token_hits
    assert shared_label.cache_info().hits == label_hits


def test_share_caches_are_bounded_by_fixed_constants():
    assert shared_token.cache_info().maxsize == TOKEN_CACHE_SIZE == 1 << 16
    assert shared_label.cache_info().maxsize == LABEL_CACHE_SIZE == 1 << 12


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
    assert set(bracket_items(parse_bracketed(NESTED))) == {
        ("IN:GET_DIRECTIONS", 0, 6),
        ("SL:DESTINATION", 3, 6),
        ("IN:GET_EVENT", 3, 6),
        ("SL:NAME_EVENT", 4, 5),
        ("SL:CAT_EVENT", 5, 6),
    }


def test_labeled_spans_minimal():
    assert bracket_items(parse_bracketed("[IN:X hello ]")) == {("IN:X", 0, 1): 1}


def test_labeled_spans_duplicates_preserved():
    tree = parse_bracketed("[IN:X [SL:Y a ] [SL:Y b ] ]")
    assert sum(bracket_items(tree).values()) == 3
    chain = parse_bracketed("[IN:X [SL:Y [IN:X a ] ] ]")
    assert bracket_items(chain)[("IN:X", 0, 1)] == 2


def test_labeled_spans_count_and_nesting_property():
    rng = np.random.default_rng(3)
    for _ in range(300):
        tree = synth.random_valid_tree(rng)
        spans = list(bracket_items(tree).elements())
        assert len(spans) == count_nonterminals(tree)
        for _, a_start, a_end in spans:
            for _, b_start, b_end in spans:
                # nested or disjoint, never crossing
                assert (
                    a_end <= b_start
                    or b_end <= a_start
                    or (a_start <= b_start and b_end <= a_end)
                    or (b_start <= a_start and a_end <= b_end)
                )


def test_labeled_spans_match_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(200):
        tree = synth.random_valid_tree(rng)
        mine = sorted(bracket_items(tree).elements())
        assert mine == sorted(oracles.brute_spans(tree))


def test_tree_tokens_are_the_leaves_left_to_right():
    assert parse_bracketed(NESTED).tokens == (
        "Driving", "directions", "to", "the", "Eagles", "game",
    )
    assert parse_bracketed("[IN:X hello ]").tokens == ("hello",)
    rng = np.random.default_rng(5)
    for _ in range(100):
        tree = synth.random_valid_tree(rng)
        assert tree.tokens == tuple(leaf.text for leaf in oracles.token_leaves(tree.root))
