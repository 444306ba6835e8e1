"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written from the definitions, without
reusing the package's own traversal, counting or scanning code, so the tests
compare two genuinely different routes to the same answer.  The exceptions are
:func:`reference_score_actions`, :func:`reference_taped_score` and
:func:`reference_example_loss`, which share the parser's encoder but not its
decoders or its training loss.
"""

from __future__ import annotations

import numpy as np

from frameparse import rnng
from frameparse.neural import core
from frameparse.trees import (
    MAX_DEPTH, BadLabelPrefix, EmptyNonTerminal, Label, NestingTooDeep, NonTerminal, Token, Tree,
    TrailingInput, UnbalancedBrackets,
)


def brute_constraints_ok(tree: Tree) -> bool:
    """Recursive check of the intent-slot constraints, written directly
    from their statements."""

    def node_ok(node) -> bool:
        if isinstance(node, Token):
            return True
        if not node.children:
            return False
        if node.label.kind == "IN":
            for child in node.children:
                if isinstance(child, NonTerminal) and child.label.kind == "IN":
                    return False
        else:
            token_children = [c for c in node.children if isinstance(c, Token)]
            nt_children = [c for c in node.children if isinstance(c, NonTerminal)]
            if nt_children:
                if len(nt_children) != 1 or token_children:
                    return False
                if nt_children[0].label.kind != "IN":
                    return False
        return all(node_ok(c) for c in node.children)

    root = tree.root
    if not (isinstance(root, NonTerminal) and root.label.kind == "IN"):
        return False
    if tuple(t.text for t in token_leaves(root)) != tree.tokens:
        return False
    return node_ok(root)


def token_leaves(node) -> list:
    """The ``Token`` leaves below ``node``, left to right, by recursion."""
    if isinstance(node, Token):
        return [node]
    out = []
    for child in node.children:
        out.extend(token_leaves(child))
    return out


def reference_parse_bracketed(text: str) -> Tree:
    """A recursive-descent reader of one bracketed tree, character by
    character, through the checked constructors.  It raises the same
    ``FormatError`` subclasses, messages and offsets that
    ``trees.parse_bracketed`` documents: whitespace is what ``str.isspace``
    says, a label is the word right after its ``[``, and the first fault
    from the left wins."""
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def scan_word(i: int) -> int:
        while i < n and not text[i].isspace() and text[i] not in "[]":
            i += 1
        return i

    def nonterminal(i: int, depth: int):
        if depth > MAX_DEPTH:
            raise NestingTooDeep(f"non-terminals nested deeper than {MAX_DEPTH}", i)
        open_offset = i
        label_start = i + 1
        i = scan_word(label_start)
        raw_label = text[label_start:i]
        try:
            label = Label.parse(raw_label)
        except ValueError:
            raise BadLabelPrefix(f"bad non-terminal label {raw_label!r}", label_start) from None
        children = []
        while True:
            i = skip_ws(i)
            if i >= n:
                raise UnbalancedBrackets("unclosed '['", open_offset)
            if text[i] == "]":
                if not children:
                    raise EmptyNonTerminal(f"non-terminal {raw_label} has no children", i)
                return NonTerminal(label, tuple(children)), i + 1
            if text[i] == "[":
                child, i = nonterminal(i, depth + 1)
                children.append(child)
            else:
                start = i
                i = scan_word(i)
                children.append(Token(text[start:i]))

    i = skip_ws(0)
    if i >= n or text[i] != "[":
        raise UnbalancedBrackets("expected '[' to open a tree", i)
    root, i = nonterminal(i, 1)
    i = skip_ws(i)
    if i < n:
        raise TrailingInput("unexpected input after tree", i)
    return Tree(root)


def brute_spans(tree: Tree) -> list:
    """(label string, start, end) per non-terminal, computed by locating
    each node's first and last leaf instead of threading an offset."""
    positions = {id(leaf): i for i, leaf in enumerate(token_leaves(tree.root))}
    spans = []

    def walk(node):
        if isinstance(node, Token):
            return
        leaves = token_leaves(node)
        start = positions[id(leaves[0])]
        end = positions[id(leaves[-1])] + 1
        spans.append((str(node.label), start, end))
        for child in node.children:
            walk(child)

    walk(tree.root)
    return spans


def render(node) -> str:
    """An independent serializer (same canonical format)."""
    if isinstance(node, Token):
        return node.text
    inner = " ".join(render(c) for c in node.children)
    return f"[{node.label} {inner} ]"


def brute_subtree_items(tree: Tree) -> list:
    """(label, start, end, rendering) per non-terminal."""
    positions = {id(leaf): i for i, leaf in enumerate(token_leaves(tree.root))}
    items = []

    def walk(node):
        if isinstance(node, Token):
            return
        leaves = token_leaves(node)
        start = positions[id(leaves[0])]
        end = positions[id(leaves[-1])] + 1
        items.append((str(node.label), start, end, render(node)))
        for child in node.children:
            walk(child)

    walk(tree.root)
    return items


def match_count(a_items: list, b_items: list) -> int:
    """Multiset intersection size via explicit pairing with used flags."""
    used = [False] * len(b_items)
    matched = 0
    for item in a_items:
        for j, other in enumerate(b_items):
            if not used[j] and item == other:
                used[j] = True
                matched += 1
                break
    return matched


def brute_prf(gold_trees, pred_trees, extract) -> tuple:
    """Micro-averaged percentages computed with the pairing matcher."""
    matched = 0
    n_gold = 0
    n_pred = 0
    for gold, pred in zip(gold_trees, pred_trees):
        g_items = extract(gold)
        n_gold += len(g_items)
        if pred is None:
            continue
        p_items = extract(pred)
        n_pred += len(p_items)
        matched += match_count(p_items, g_items)
    precision = 100.0 * matched / n_pred if n_pred else 0.0
    recall = 100.0 * matched / n_gold if n_gold else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def enumerate_valid_trees(tokens, intent_labels, slot_labels, max_nts: int) -> set:
    """Render every constraint-satisfying tree over exactly ``tokens`` that
    uses at most ``max_nts`` non-terminals.

    Recursive enumeration from the grammar: an intent covers a span with a
    sequence of token/slot children; a slot covers a span with either all
    tokens or one nested intent.
    """

    def gen_intents(lo: int, hi: int, budget: int):
        # Yields (intent node, non-terminals used), used <= budget.
        if budget < 1 or lo == hi:
            return
        for children, used in gen_child_seqs(lo, hi, budget - 1):
            for label in intent_labels:
                yield NonTerminal(label, tuple(children)), used + 1

    def gen_child_seqs(lo: int, hi: int, budget: int):
        # Sequences of token/slot children exactly covering [lo, hi).
        if lo == hi:
            yield [], 0
            return
        for rest, used in gen_child_seqs(lo + 1, hi, budget):
            yield [Token(tokens[lo])] + rest, used
        for mid in range(lo + 1, hi + 1):
            for slot_node, slot_used in gen_slots(lo, mid, budget):
                for rest, rest_used in gen_child_seqs(mid, hi, budget - slot_used):
                    yield [slot_node] + rest, slot_used + rest_used

    def gen_slots(lo: int, hi: int, budget: int):
        if budget < 1 or lo == hi:
            return
        for label in slot_labels:
            yield NonTerminal(label, tuple(Token(t) for t in tokens[lo:hi])), 1
        for inner, used in gen_intents(lo, hi, budget - 1):
            for label in slot_labels:
                yield NonTerminal(label, (inner,)), used + 1

    results = set()
    for node, used in gen_intents(0, len(tokens), max_nts):
        results.add(render(node))
    return results


def start_every_step_hypothesis(model: rnng.Model, tokens, tape=None):
    """``rnng.start_hypothesis`` plus the buffer entry at position n, the
    buffer LSTM's learned empty-sequence output, which encoding a hypothesis
    with an empty buffer reads.  The parser never encodes one (see
    ``rnng._forced``), so it keeps no such entry; the references that score
    every step do."""
    hyp = rnng.start_hypothesis(model, tuple(tokens), tape)
    if model.config.use_buffer:
        lstm = model.buffer_lstm
        hyp.buffer_outputs.append(lstm.output(lstm.initial(tape)))
    return hyp


def reference_score_actions(model: rnng.Model, tokens, actions) -> float:
    """The cumulative masked log-probability of an action sequence, with
    every step scored through the masked softmax, the forced REDUCEs after
    the last SHIFT included.  The decoders skip that tail and add log 1 = 0
    instead, which is what the softmax gives for finite logits, so the score
    a decoder reports for a derivation must equal this bit for bit."""
    branch = start_every_step_hypothesis(model, tokens)
    total = 0.0
    for action in actions:
        indices = rnng._valid_indices(model, branch.state)
        (position,) = np.nonzero(indices == model.action_index[action])[0]
        logps = core.masked_log_probs(rnng.encode_state(model, [branch])[0], indices)
        total = total + float(logps[int(position)])
        rnng.advance(model, branch, action, 0.0)
    return total


def reference_taped_score(model: rnng.Model, tokens, actions) -> float:
    """The cumulative masked log-probability of an action sequence the way
    training computes it: every step, the forced REDUCEs included, encoded
    on a tape (one vector per op, no rows) and scored with ``masked_nll``,
    adding ``float(-nll)`` in step order.  It shares neither the forward-only
    encoder path nor ``masked_log_probs`` with the decoders, so a decoder's
    score must equal it bit for bit only because both compute the same
    products and the same softmax."""
    tape = core.Tape()
    hyp = start_every_step_hypothesis(model, tokens, tape)
    total = 0.0
    for action in actions:
        indices = rnng._valid_indices(model, hyp.state)
        logits = rnng.encode_state(model, [hyp], tape)
        nll = core.masked_nll(tape, logits, model.action_index[action], indices)
        total = total + float(-nll.value)
        rnng.advance(model, hyp, action, 0.0)
    return total


def reference_example_loss(model: rnng.Model, tokens, gold_actions, tape):
    """``rnng.example_loss`` with every step encoded and scored through the
    masked softmax, the forced REDUCEs after the last SHIFT included, and
    the last action's queued encoder input run.  The action LSTM steps with
    the stack LSTM in each step's queue, and every dropout draws its own
    mask from the tape's stream as it runs.  Each forced step adds a loss
    of exactly 0 with a zero gradient, and ``example_loss`` takes every
    mask at its run-order position in one block of as many values, so
    training with either must give the same losses, parameters and tape
    stream state bit for bit."""
    hyp = start_every_step_hypothesis(model, tokens, tape)
    losses = []
    for action in gold_actions:
        indices = rnng._valid_indices(model, hyp.state)
        logits = rnng.encode_state(model, [hyp], tape)
        losses.append(core.masked_nll(tape, logits, model.action_index[action], indices))
        rnng.advance(model, hyp, action, 0.0)
    rnng._run_queued(model, [hyp], tape)
    return core.add_n(tape, losses)
