"""Property tests of the decoders over random-parameter tiny models.

Seeded and bounded (``derandomize=True``, a fixed ``max_examples``), so a
run is deterministic and takes a few seconds.

The ``reference_*`` decoders score every step, the forced REDUCEs after
the last SHIFT included, through the masked softmax.  The package's
decoders skip that tail and add log 1 = 0 instead, which is what the
softmax gives for finite logits, so both must agree bit for bit.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frameparse import rnng  # noqa: E402
from frameparse.dataset import Vocab  # noqa: E402
from frameparse.neural import core  # noqa: E402
from frameparse.preprocess import TokenNormalizer  # noqa: E402
from frameparse.rnng import (  # noqa: E402
    Model,
    RnngConfig,
    parse_beam,
    parse_greedy,
)
from frameparse.transitions import REDUCE, oracle  # noqa: E402
from frameparse.trees import Tree, intent, parse_bracketed, slot, validate  # noqa: E402
from oracles import reference_score_actions, start_every_step_hypothesis  # noqa: E402

WORDS = ("turn", "the", "lights", "off", "up", "7", "zzz")


def random_model(seed: int, scale: float, precision: str) -> Model:
    config = RnngConfig(seed=seed, precision=precision, word_dim=6, label_dim=4, action_dim=3,
                        lstm_units=5, lstm_layers=2, dropout=0.0, max_open_nts=6)
    vocab = Vocab(("<UNK>", "<NUM>", "turn", "the", "lights", "off"))
    model = Model(config, vocab, (intent("SET"), intent("GET")), (slot("WHAT"), slot("HOW")),
                  TokenNormalizer(frozenset(vocab.symbols)))
    rng = np.random.default_rng(seed)
    model.store.load_values({
        name: rng.normal(scale=scale, size=model.store[name].value.shape)
        for name in model.store
    })
    return model


def checking_reduces(checked: list):
    """Patch ``rnng.advance`` to check each REDUCE of an unforced
    hypothesis: its queued inputs have run, and its stack holds one symbol
    per open non-terminal and one per child of each, with one stack-LSTM
    state more.  ``advance`` finds the label to pop by that count.  Appends
    one entry to ``checked`` per REDUCE checked."""
    advance = rnng.advance

    def checked_advance(model, hyp, action, step_logp):
        if action == REDUCE and not rnng._forced(hyp):
            assert hyp.action is None and hyp.push is None
            open_stack = hyp.state.open_stack
            assert len(hyp.stack_elems) == sum(1 + len(o.children) for o in open_stack)
            assert len(hyp.stack_states) == len(hyp.stack_elems) + 1
            checked.append(len(open_stack))
        return advance(model, hyp, action, step_logp)

    return mock.patch.object(rnng, "advance", checked_advance)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    precision=st.sampled_from(["f32", "f64"]),
    tokens=st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(tuple),
)
def test_decoders_agree_on_random_models(seed, scale, precision, tokens):
    """Also checks the stack at every unforced REDUCE (see
    :func:`checking_reduces`) of beam search and of training on each
    result, and on a derivation that closes a slot, and the intent in it,
    before its last SHIFT."""
    model = random_model(seed, scale, precision)
    greedy_tree, greedy_score = parse_greedy(model, tokens)
    checked = []
    if len(tokens) > 1:
        nested = parse_bracketed(f"[IN:GET [SL:WHAT [IN:SET {tokens[0]} ] ] "
                                 f"{' '.join(tokens[1:])} ]")
        with checking_reduces(checked):
            rnng.example_loss(model, tokens, oracle(nested), core.Tape())
        assert len(checked) == 2
    for k in range(1, 6):
        with checking_reduces(checked):
            results = parse_beam(model, tokens, k)
            for tree, _ in results:
                rnng.example_loss(model, tokens, oracle(tree), core.Tape())
        assert 1 <= len(results) <= k
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)
        for tree, score in results:
            assert validate(tree) == []
            assert tree.tokens == tokens
            assert reference_score_actions(model, tokens, oracle(tree)) == score  # bitwise
        if k == 1:
            assert results[0][0] == greedy_tree
            assert results[0][1] == greedy_score  # bitwise


def reference_greedy(model: Model, tokens) -> tuple:
    tokens = tuple(tokens)
    branch = start_every_step_hypothesis(model, tokens)
    while not branch.state.is_terminal:
        indices = rnng._valid_indices(model, branch.state)
        logps = core.masked_log_probs(rnng.encode_state(model, [branch])[0], indices)
        best = int(np.argmax(logps))
        rnng.advance(model, branch, model.actions[indices[best]], float(logps[best]))
    return Tree(branch.state.root, tokens), branch.score


def reference_beam(model: Model, tokens, k: int) -> list:
    tokens = tuple(tokens)
    live = [start_every_step_hypothesis(model, tokens)]
    completed: list = []
    while live:
        logits = rnng.encode_state(model, live)
        totals, sources, actions, steps = [], [], [], []
        for src, branch in enumerate(live):
            indices = rnng._valid_indices(model, branch.state)
            logps = core.masked_log_probs(logits[src], indices).astype(np.float64)
            totals.append(branch.score + logps)
            sources.append(np.full(len(indices), src))
            actions.append(indices)
            steps.append(logps)
        totals = np.concatenate(totals)
        sources = np.concatenate(sources)
        actions = np.concatenate(actions)
        steps = np.concatenate(steps)
        next_live = []
        for j in np.lexsort((actions, sources, -totals))[:k]:
            branch = live[sources[j]].clone()
            rnng.advance(model, branch, model.actions[actions[j]], float(steps[j]))
            (completed if branch.state.is_terminal else next_live).append(branch)
        completed.sort(key=lambda h: -h.score)
        del completed[k:]
        live = next_live
        if len(completed) >= k and live and max(h.score for h in live) <= completed[k - 1].score:
            break
    return [(Tree(h.state.root, tokens), h.score) for h in completed[:k]]


def bits(results) -> list:
    """(tree, score) pairs with each score as its exact bit pattern."""
    return [(tree, float(score).hex()) for tree, score in results]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    precision=st.sampled_from(["f32", "f64"]),
    tokens=st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(tuple),
)
def test_decoders_equal_the_score_every_step_reference(seed, scale, precision, tokens):
    model = random_model(seed, scale, precision)
    assert bits([parse_greedy(model, tokens)]) == bits([reference_greedy(model, tokens)])
    for k in range(1, 6):
        results = parse_beam(model, tokens, k)
        assert bits(results) == bits(reference_beam(model, tokens, k))  # trees, scores, order


def test_no_hypothesis_with_an_empty_buffer_is_scored(monkeypatch):
    """The forced REDUCEs after the last SHIFT are never rows of the
    logits, in any decoder, and their queued encoder inputs never run.
    Greedy encodes once per unforced step of its derivation, and beam once
    per lockstep step that has unforced live rows, with exactly those rows
    in order: ``rnng.decode_steps_per_utt`` counts these calls."""
    model = random_model(seed=5, scale=1.0, precision="f32")
    tokens = ("turn", "the", "lights", "off")
    encode_state, run_queued = rnng.encode_state, rnng._run_queued
    step_log_probs = rnng._step_log_probs
    scored, run, encoded, steps = [], [], [], []

    def forced(branch):
        return branch.state.pos == len(branch.state.tokens)

    def checked_logits(model, branches, tape=None):
        scored.extend(forced(b) for b in branches)
        encoded.append(list(branches))
        return encode_state(model, branches, tape)

    def checked_run(model, branches, tape=None):
        run.extend(forced(b) for b in branches if b.action is not None)
        return run_queued(model, branches, tape)

    def checked_step(model, branches, masks):
        steps.append([b for b in branches if not forced(b)])
        return step_log_probs(model, branches, masks)

    monkeypatch.setattr(rnng, "encode_state", checked_logits)
    monkeypatch.setattr(rnng, "_run_queued", checked_run)
    monkeypatch.setattr(rnng, "_step_log_probs", checked_step)
    tree, _ = parse_greedy(model, tokens)
    # A derivation is unforced up to and including its last SHIFT.
    actions = oracle(tree)
    unforced = max(i for i, action in enumerate(actions) if action.op == "SHIFT") + 1
    assert len(encoded) == unforced
    assert len(steps) == len(actions)
    for k in (1, 5):
        del encoded[:], steps[:]
        parse_beam(model, tokens, k)
        live_steps = [rows for rows in steps if rows]
        assert len(encoded) == len(live_steps) < len(steps)
        for rows, unforced_rows in zip(encoded, live_steps):
            assert len(rows) == len(unforced_rows)
            assert all(a is b for a, b in zip(rows, unforced_rows))
    assert scored and not any(scored)
    assert run and not any(run)
