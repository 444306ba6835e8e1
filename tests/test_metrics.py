import numpy as np
import pytest

import oracles
import synth
from frameparse.dataset import IngestError
from frameparse.metrics import (
    LengthMismatch,
    bracket_items,
    bracket_prf,
    evaluate,
    exact_match,
    f1_score,
    read_beam_file,
    read_gold_file,
    read_predictions_file,
    subtree_items,
    top_k_accuracy,
    tree_labeled_prf,
    tree_validity,
)
from frameparse.trees import parse_bracketed

NESTED = (
    "[IN:GET_DIRECTIONS Driving directions to "
    "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] [SL:CAT_EVENT game ] ] ] ]"
)
# Same tree without the SL:CAT_EVENT bracket: "game" hangs off IN:GET_EVENT.
NESTED_MINUS_CAT = (
    "[IN:GET_DIRECTIONS Driving directions to "
    "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] game ] ] ]"
)
# Same tree with SL:CAT_EVENT relabeled SL:NAME_EVENT.
NESTED_RELABELED = (
    "[IN:GET_DIRECTIONS Driving directions to "
    "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] [SL:NAME_EVENT game ] ] ] ]"
)


def trees_of(*texts):
    return [parse_bracketed(t) for t in texts]


def test_exact_match_identity():
    gold = trees_of(NESTED, "[IN:X hello ]")
    assert exact_match(gold, gold) == 100.0


def test_exact_match_half():
    gold = trees_of("[IN:X a ]", "[IN:X b ]")
    pred = trees_of("[IN:X a ]", "[IN:Y b ]")
    assert exact_match(gold, pred) == 50.0


def test_exact_match_invalid_counts_as_miss():
    gold = trees_of("[IN:X a ]", "[IN:X b ]")
    assert exact_match(gold, [gold[0], None]) == 50.0


def test_length_mismatch():
    gold = trees_of("[IN:X a ]")
    with pytest.raises(LengthMismatch):
        exact_match(gold, [])
    with pytest.raises(LengthMismatch):
        bracket_prf(gold, [])
    with pytest.raises(LengthMismatch):
        top_k_accuracy(gold, [], 1)


def test_bracket_identity():
    gold = trees_of(NESTED)
    assert bracket_prf(gold, gold) == (100.0, 100.0, 100.0)


def test_bracket_dropped_bracket_hand_computed():
    gold = trees_of(NESTED)
    pred = trees_of(NESTED_MINUS_CAT)
    p, r, f1 = bracket_prf(gold, pred)
    assert p == 100.0
    assert r == 80.0
    assert f1 == pytest.approx(2 * 100.0 * 80.0 / 180.0, abs=1e-12)  # 88.888...


def test_tl_relabel_hand_computed():
    gold = trees_of(NESTED)
    pred = trees_of(NESTED_RELABELED)
    bp, br, _ = bracket_prf(gold, pred)
    tp, tr, _ = tree_labeled_prf(gold, pred)
    assert (bp, br) == (80.0, 80.0)
    # Only the leaf [SL:NAME_EVENT Eagles ] subtree survives: every ancestor
    # contains the relabeled bracket.
    assert (tp, tr) == (20.0, 20.0)


def test_tl_identity():
    gold = trees_of(NESTED, NESTED_MINUS_CAT)
    assert tree_labeled_prf(gold, gold) == (100.0, 100.0, 100.0)


def test_tl_matches_never_exceed_bracket_matches():
    rng = np.random.default_rng(30)
    for _ in range(200):
        gold = synth.random_valid_tree(rng, max_tokens=10)
        pred = synth.random_valid_tree(rng, vocab=gold.tokens, max_tokens=len(gold.tokens))
        tl = sum((subtree_items(gold) & subtree_items(pred)).values())
        br = sum((bracket_items(gold) & bracket_items(pred)).values())
        assert tl <= br


def test_swap_symmetry():
    rng = np.random.default_rng(31)
    gold = [synth.random_valid_tree(rng, max_tokens=8) for _ in range(40)]
    pred = [synth.random_valid_tree(rng, max_tokens=8) for _ in range(40)]
    for prf in (bracket_prf, tree_labeled_prf):
        p1, r1, _ = prf(gold, pred)
        p2, r2, _ = prf(pred, gold)
        assert p1 == pytest.approx(r2, abs=1e-12)
        assert r1 == pytest.approx(p2, abs=1e-12)


def _random_pairs(rng, n):
    gold, pred = [], []
    for _ in range(n):
        tree = synth.random_valid_tree(rng, max_tokens=10)
        gold.append(tree)
        roll = rng.random()
        if roll < 0.15:
            pred.append(None)
        elif roll < 0.45:
            pred.append(tree)
        else:
            # A different random tree over the same tokens.
            pred.append(synth.random_valid_tree(rng, vocab=tree.tokens,
                                                max_tokens=len(tree.tokens)))
    return gold, pred


def test_prf_matches_brute_force_oracle():
    rng = np.random.default_rng(32)
    gold, pred = _random_pairs(rng, 100)
    fast = bracket_prf(gold, pred)
    slow = oracles.brute_prf(gold, pred, lambda t: [tuple(i) for i in oracles.brute_spans(t)])
    for a, b in zip(fast, slow):
        assert a == pytest.approx(b, abs=1e-12)
    fast_tl = tree_labeled_prf(gold, pred)
    slow_tl = oracles.brute_prf(gold, pred, oracles.brute_subtree_items)
    for a, b in zip(fast_tl, slow_tl):
        assert a == pytest.approx(b, abs=1e-12)


def test_f1_zero_when_empty():
    assert f1_score(0.0, 0.0) == 0.0


def test_tree_validity():
    lines = [NESTED, "[IN:X hello", "[SL:Y hello ]", "not a tree", "[IN:X hello ]"]
    # Balanced brackets suffice; the slot-rooted line counts as valid here.
    assert tree_validity(lines) == pytest.approx(100.0 * 3 / 5)
    assert tree_validity([NESTED]) == 100.0
    assert tree_validity([]) == 100.0


def test_top_k_accuracy():
    gold = trees_of("[IN:X a ]", "[IN:X b ]")
    beams = [
        trees_of("[IN:X a ]", "[IN:Y a ]"),
        trees_of("[IN:Y b ]", "[IN:X b ]"),
    ]
    assert top_k_accuracy(gold, beams, 1) == 50.0
    assert top_k_accuracy(gold, beams, 2) == 100.0
    # k=1 equals exact match of the top hypothesis.
    tops = [beam[0] for beam in beams]
    assert top_k_accuracy(gold, beams, 1) == exact_match(gold, tops)


def test_top_k_monotone():
    rng = np.random.default_rng(33)
    gold = [synth.random_valid_tree(rng, max_tokens=6) for _ in range(30)]
    beams = []
    for tree in gold:
        beam = [synth.random_valid_tree(rng, vocab=tree.tokens, max_tokens=len(tree.tokens))
                for _ in range(5)]
        if rng.random() < 0.5:
            beam[int(rng.integers(5))] = tree
        beams.append(beam)
    accs = [top_k_accuracy(gold, beams, k) for k in (1, 3, 5)]
    assert accs[0] <= accs[1] <= accs[2]


def test_evaluate_identity_all_hundred():
    gold = [synth.random_valid_tree(np.random.default_rng(34), max_tokens=8)
            for _ in range(20)]
    report = evaluate(gold, gold)
    assert report.exact_match == 100.0
    assert report.bracket_f1 == 100.0
    assert report.tl_f1 == 100.0
    assert report.tree_validity == 100.0
    assert report.n_invalid_predictions == 0


def test_report_table_and_json():
    gold = trees_of(NESTED)
    report = evaluate(gold, gold, top_ks=(1,), beams=[[gold[0]]])
    table = report.to_table()
    assert "Exact match" in table and "Tree Validity" in table and "Top-1" in table
    payload = report.to_json_dict()
    assert payload["bracket"]["f1"] == 100.0
    assert payload["top_k"]["1"] == 100.0


def test_scores_of_no_gold_tree_are_refused():
    """Every score is a share of the gold trees, so none is defined without
    one; the refusal says so instead of dividing by zero."""
    for score in (lambda: evaluate([], []), lambda: exact_match([], []),
                  lambda: evaluate([], [], raw_lines=[], beams=[], top_ks=(1,)),
                  lambda: top_k_accuracy([], [], 1)):
        with pytest.raises(ValueError, match="no gold trees to score"):
            score()


def test_readers(tmp_path):
    gold_path = tmp_path / "gold.txt"
    gold_path.write_text(f"{NESTED}\n[IN:X hello ]\n", encoding="utf-8")
    assert len(read_gold_file(gold_path)) == 2

    bad_gold = tmp_path / "bad.txt"
    bad_gold.write_text("\n[IN:X hello\n", encoding="utf-8")
    with pytest.raises(IngestError) as err:
        read_gold_file(bad_gold)
    assert (err.value.kind, err.value.line, err.value.path) == ("tree-format", 2, bad_gold)
    assert str(err.value) == f"{bad_gold}: line 2: unclosed '[' (offset 0)"
    bad_gold.write_text("\n \n", encoding="utf-8")
    with pytest.raises(IngestError) as err:
        read_gold_file(bad_gold)
    assert (err.value.kind, err.value.line, err.value.path) == ("empty-corpus", None, bad_gold)

    pred_path = tmp_path / "pred.txt"
    pred_path.write_text(f"{NESTED}\nbroken [line\n", encoding="utf-8")
    pred = read_predictions_file(pred_path)
    assert len(pred) == 2 and pred[0] is not None and pred[1] is None
    pred_path.write_text("-0.5\t[IN:X a ]\n\n-0.1\tbroken [\n\n", encoding="utf-8")
    pred = read_predictions_file(pred_path)  # parse's output, beam of one
    assert pred == [parse_bracketed("[IN:X a ]"), None]

    beam_path = tmp_path / "beam.txt"
    beam_path.write_text(
        "-0.5\t[IN:X a ]\n-0.9\t[IN:Y a ]\n\n-0.1\t[IN:X b ]\n\n", encoding="utf-8"
    )
    beams, top_lines = read_beam_file(beam_path)
    assert [len(b) for b in beams] == [2, 1]
    assert top_lines == ["[IN:X a ]", "[IN:X b ]"]
