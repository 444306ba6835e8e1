"""Property tests of the decoders over random-parameter tiny models.

Seeded and bounded (``derandomize=True``, a fixed ``max_examples``), so a
run is deterministic and takes a few seconds.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frameparse.dataset import Vocab  # noqa: E402
from frameparse.preprocess import TokenNormalizer  # noqa: E402
from frameparse.rnng import (  # noqa: E402
    Model,
    RnngConfig,
    parse_beam,
    parse_greedy,
    score_actions,
)
from frameparse.transitions import oracle  # noqa: E402
from frameparse.trees import intent, slot, validate  # noqa: E402

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
