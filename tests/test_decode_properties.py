"""Property tests of the decoders over random-parameter tiny models.

Seeded and bounded (``derandomize=True``, a fixed ``max_examples``), so a
run is deterministic and takes a few seconds.

The ``reference_*`` decoders score every step, the forced REDUCEs after
the last SHIFT included, through the masked softmax.  The package's
decoders skip that tail and add log 1 = 0 instead, which is what the
softmax gives for finite logits, so both must agree bit for bit.
"""

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
    score_actions,
)
from frameparse.transitions import SHIFT, oracle  # noqa: E402
from frameparse.trees import Tree, intent, slot, validate  # noqa: E402

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


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    precision=st.sampled_from(["f32", "f64"]),
    tokens=st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(tuple),
)
def test_decoders_agree_on_random_models(seed, scale, precision, tokens):
    model = random_model(seed, scale, precision)
    greedy_tree, greedy_score = parse_greedy(model, tokens)
    for k in range(1, 6):
        results = parse_beam(model, tokens, k)
        assert 1 <= len(results) <= k
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)
        for tree, score in results:
            assert validate(tree) == []
            assert tree.tokens == tokens
            assert score_actions(model, tokens, oracle(tree)) == score  # bitwise
        if k == 1:
            assert results[0][0] == greedy_tree
            assert results[0][1] == greedy_score  # bitwise


def reference_greedy(model: Model, tokens) -> tuple:
    tokens = tuple(tokens)
    branch = rnng._start_branch(model, tokens)
    while not branch.state.is_terminal:
        indices = rnng._valid_indices(model, branch.state)
        logps = core.masked_log_probs(rnng._branch_logits(model, [branch])[0], indices)
        best = int(np.argmax(logps))
        rnng.advance(model, branch, model.actions[indices[best]], float(logps[best]))
    return Tree(branch.state.root, tokens), branch.score


def reference_beam(model: Model, tokens, k: int) -> list:
    tokens = tuple(tokens)
    live = [rnng._start_branch(model, tokens)]
    completed: list = []
    while live:
        logits = rnng._branch_logits(model, live)
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


def reference_score_actions(model: Model, tokens, actions) -> float:
    branch = rnng._start_branch(model, tuple(tokens))
    total = 0.0
    for action in actions:
        indices = rnng._valid_indices(model, branch.state)
        (position,) = np.nonzero(indices == model.action_index[action])[0]
        logps = core.masked_log_probs(rnng._branch_logits(model, [branch])[0], indices)
        total = total + float(logps[int(position)])
        rnng.advance(model, branch, action, 0.0)
    return total


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
        for tree, _ in results:
            gold = oracle(tree)
            assert bits([(tree, score_actions(model, tokens, gold))]) == bits(
                [(tree, reference_score_actions(model, tokens, gold))]
            )


def test_no_hypothesis_with_an_empty_buffer_is_scored(monkeypatch):
    """The forced REDUCEs after the last SHIFT are never rows of the
    logits, in any decoder, and their queued encoder inputs never run."""
    model = random_model(seed=5, scale=1.0, precision="f32")
    tokens = ("turn", "the", "lights", "off")
    branch_logits, run_queued = rnng._branch_logits, rnng._run_queued
    scored, run = [], []

    def checked_logits(model, branches):
        scored.extend(b.state.pos == len(b.state.tokens) for b in branches)
        return branch_logits(model, branches)

    def checked_run(model, branches):
        run.extend(b.state.pos == len(b.state.tokens) for b in branches if b.action is not None)
        return run_queued(model, branches)

    monkeypatch.setattr(rnng, "_branch_logits", checked_logits)
    monkeypatch.setattr(rnng, "_run_queued", checked_run)
    parse_greedy(model, tokens)
    for k in (1, 5):
        for tree, _ in parse_beam(model, tokens, k):
            score_actions(model, tokens, oracle(tree))
    assert scored and not any(scored)
    assert run and not any(run)


def test_score_actions_still_masks_a_forced_step():
    """Only REDUCE is valid once the buffer is empty; anything else is
    refused as before, although the step is not scored."""
    model = random_model(seed=3, scale=1.0, precision="f64")
    tokens = ("turn", "off")
    actions = oracle(parse_greedy(model, tokens)[0])
    with pytest.raises(ValueError, match="masked out"):
        score_actions(model, tokens, actions[:-1] + [SHIFT])
