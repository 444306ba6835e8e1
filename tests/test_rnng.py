import numpy as np
import pytest

import synth
from frameparse import rnng
from frameparse.dataset import Corpus, Example, Vocab, build_vocabs
from frameparse.neural import Tape, Var, grad_check
from frameparse.preprocess import TokenNormalizer
from frameparse.rnng import (
    AllEncodersDisabled,
    Model,
    RnngConfig,
    ablate,
    encode_state,
    example_loss,
    load_model,
    parse_beam,
    parse_greedy,
    save_model,
    score_actions,
    start_hypothesis,
    train,
    train_example,
)
from frameparse.transitions import EmptyUtterance, oracle
from frameparse.trees import intent, parse_bracketed, slot, validate

TINY = dict(word_dim=8, label_dim=6, action_dim=5, lstm_units=9, lstm_layers=2, dropout=0.0)


def tiny_model(seed=0, precision="f64", **overrides):
    config = RnngConfig(seed=seed, precision=precision, **{**TINY, **overrides})
    vocab = Vocab(("<UNK>", "<NUM>", "turn", "the", "lights", "off", "up", "down"))
    intents = (intent("SET"), intent("GET"))
    slots = (slot("WHAT"), slot("HOW"))
    return Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))


def example_of(text):
    tree = parse_bracketed(text)
    return Example(" ".join(tree.tokens), tree.tokens, tree)


# ---------------------------------------------------------------------------
# Configuration and ablation


def test_config_validation():
    with pytest.raises(ValueError):
        RnngConfig(word_dim=0)
    with pytest.raises(AllEncodersDisabled):
        RnngConfig(use_stack=False, use_buffer=False, use_actions=False)
    with pytest.raises(ValueError):
        RnngConfig(dropout=1.0)
    with pytest.raises(ValueError):
        RnngConfig(precision="f16")


def test_ablate():
    config = RnngConfig(**TINY)
    no_actions = ablate(config, "actions")
    assert no_actions.enabled_encoders == ("stack", "buffer")
    no_buffer = ablate(config, "buffer")
    assert no_buffer.enabled_encoders == ("stack", "actions")
    with pytest.raises(ValueError):
        ablate(config, "nonsense")
    last = ablate(ablate(config, "stack"), "buffer")
    with pytest.raises(AllEncodersDisabled):
        ablate(last, "actions")


def test_action_inventory_order():
    model = tiny_model()
    names = [str(a) for a in model.actions]
    assert names[:2] == ["SHIFT", "REDUCE"]
    assert names[2:] == ["NT(IN:GET)", "NT(IN:SET)", "NT(SL:HOW)", "NT(SL:WHAT)"]


def test_summary_width_matches_enabled_encoders():
    full = tiny_model()
    assert full.ff_w.value.shape[1] == 3 * full.config.lstm_units
    partial = tiny_model(use_actions=False)
    assert partial.ff_w.value.shape[1] == 2 * partial.config.lstm_units


# ---------------------------------------------------------------------------
# State encoding


def test_encode_state_initial_shapes():
    model = tiny_model()
    tape = Tape()
    hyp = start_hypothesis(model, ("turn", "the", "lights", "off"), tape)
    logits = encode_state(model, hyp, tape)
    assert logits.value.shape == (len(model.actions),)
    assert np.all(np.isfinite(logits.value))


def test_ablated_buffer_ignores_remaining_tokens():
    model = tiny_model(use_buffer=False)
    tape = Tape()
    h1 = start_hypothesis(model, ("turn", "the", "lights"), tape)
    h2 = start_hypothesis(model, ("turn", "up", "down"), tape)
    for hyp in (h1, h2):
        rnng.advance(model, hyp, model.actions[3], 0.0)  # NT(IN:SET)
        rnng.advance(model, hyp, model.actions[0], 0.0)  # SHIFT "turn"
    # Same consumed prefix and actions, different remaining tokens.
    a = encode_state(model, h1, tape).value
    b = encode_state(model, h2, tape).value
    assert np.array_equal(a, b)


def test_full_model_sees_remaining_tokens():
    model = tiny_model()
    tape = Tape()
    h1 = start_hypothesis(model, ("turn", "the", "lights"), tape)
    h2 = start_hypothesis(model, ("turn", "up", "down"), tape)
    for hyp in (h1, h2):
        rnng.advance(model, hyp, model.actions[3], 0.0)
    a = encode_state(model, h1, tape).value
    assert not np.array_equal(a, encode_state(model, h2, tape).value)


# ---------------------------------------------------------------------------
# Composition: REDUCE encodes the open label's stack vector and its children


def stack_symbols(model, rng, n):
    return [Var(rng.normal(size=model.config.word_dim)) for _ in range(n)]


def test_compose_width_independent_of_child_count():
    model = tiny_model()
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        out = model.compose.encode(Tape(), stack_symbols(model, rng, 1 + n))
        assert out.value.shape == (model.config.word_dim,)


def test_compose_single_token_child():
    model = tiny_model()
    out = model.compose.encode(Tape(), stack_symbols(model, np.random.default_rng(1), 2))
    assert np.all(np.isfinite(out.value))


def test_compose_is_order_sensitive():
    model = tiny_model()
    label, a, b = stack_symbols(model, np.random.default_rng(2), 3)
    fwd = model.compose.encode(Tape(), [label, a, b])
    rev = model.compose.encode(Tape(), [label, b, a])
    assert not np.allclose(fwd.value, rev.value)


# ---------------------------------------------------------------------------
# Training


def test_overfit_single_example():
    model = tiny_model(seed=5, precision="f32", lr=0.01, word_dim=16, lstm_units=16)
    example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
    rng = np.random.default_rng(0)
    loss = None
    for _ in range(200):
        loss = train_example(model, example, rng)
    assert loss < 0.01
    tree, _ = parse_greedy(model, example.tokens)
    assert tree == example.tree


def test_zero_learning_rate_changes_nothing():
    model = tiny_model(seed=6, lr=0.0)
    corpus = Corpus(examples=[example_of("[IN:SET turn [SL:WHAT the lights ] off ]")])
    before = {name: model.store[name].value.copy() for name in model.store}
    trace = train(model, corpus, epochs=3)
    for name in model.store:
        assert np.array_equal(model.store[name].value, before[name])
    assert trace[0] == pytest.approx(trace[1]) and trace[1] == pytest.approx(trace[2])


def test_training_reduces_loss():
    corpus = synth.learnable_corpus(seed=9, size=30)
    vocab, intents, slots = build_vocabs(corpus)
    config = RnngConfig(seed=1, lr=0.005, **TINY)
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    trace = train(model, corpus, epochs=8)
    assert trace[-1] < trace[0] * 0.7


def test_gold_label_outside_inventory_fails_clearly():
    model = tiny_model()
    example = example_of("[IN:UNSEEN hello ]")
    with pytest.raises(KeyError):
        train_example(model, example, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Decoding


def test_greedy_outputs_are_always_valid():
    rng = np.random.default_rng(20)
    model = tiny_model(seed=21)
    vocab_tokens = ("turn", "the", "lights", "off", "up", "down", "zzz")
    for _ in range(150):
        n = int(rng.integers(1, 9))
        tokens = tuple(vocab_tokens[int(rng.integers(len(vocab_tokens)))] for _ in range(n))
        tree, score = parse_greedy(model, tokens)
        assert validate(tree) == []
        assert tree.tokens == tokens
        assert np.isfinite(score) and score <= 0.0


def test_greedy_single_token_untrained():
    model = tiny_model(seed=22)
    tree, _ = parse_greedy(model, ("lights",))
    assert validate(tree) == [] and tree.tokens == ("lights",)


def test_parse_empty_utterance():
    model = tiny_model()
    with pytest.raises(EmptyUtterance):
        parse_greedy(model, ())
    with pytest.raises(EmptyUtterance):
        parse_beam(model, (), 3)


def test_beam_one_equals_greedy_exactly():
    rng = np.random.default_rng(23)
    model = tiny_model(seed=24)
    tokens_pool = ("turn", "the", "lights", "off", "up")
    for _ in range(50):
        n = int(rng.integers(1, 7))
        tokens = tuple(tokens_pool[int(rng.integers(len(tokens_pool)))] for _ in range(n))
        g_tree, g_score = parse_greedy(model, tokens)
        beam = parse_beam(model, tokens, 1)
        assert len(beam) == 1
        assert beam[0][0] == g_tree
        assert beam[0][1] == g_score  # bitwise identical accumulation


def test_beam_results_sorted_and_valid():
    model = tiny_model(seed=25)
    results = parse_beam(model, ("turn", "the", "lights", "off"), 5)
    assert 1 <= len(results) <= 5
    scores = [s for _, s in results]
    assert scores == sorted(scores, reverse=True)
    for tree, _ in results:
        assert validate(tree) == []


def test_beam_topk_containment_on_trained_model():
    # On an untrained (near-uniform) model, beam-k may legitimately find k
    # trees that all outscore the greedy path, so containment is checked on
    # a model with concentrated probability mass.
    model = tiny_model(seed=26, precision="f32", lr=0.01, word_dim=16, lstm_units=16)
    example = example_of("[IN:SET turn [SL:WHAT the lights ] down ]")
    rng = np.random.default_rng(0)
    for _ in range(150):
        train_example(model, example, rng)
    tokens = example.tokens
    top1 = parse_beam(model, tokens, 1)[0][0]
    for k in (2, 3, 5):
        trees = [t for t, _ in parse_beam(model, tokens, k)]
        assert top1 in trees
        assert trees[0] == top1


def test_scores_recompute():
    model = tiny_model(seed=27)
    tokens = ("turn", "the", "lights", "off")
    for k in (1, 3):
        for tree, score in parse_beam(model, tokens, k):
            again = score_actions(model, tokens, oracle(tree))
            assert abs(again - score) < 1e-6


def test_example_loss_matches_score_of_gold():
    model = tiny_model(seed=28)
    example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
    actions = oracle(example.tree)
    loss = example_loss(model, example.tokens, actions, Tape())
    assert float(loss.value) == pytest.approx(-score_actions(model, example.tokens, actions), rel=1e-9)


# ---------------------------------------------------------------------------
# Lockstep decoding


def _default_model(precision):
    config = RnngConfig(precision=precision)
    intents = tuple(intent(f"I{i}") for i in range(25))
    slots = tuple(slot(f"S{i}") for i in range(36))
    vocab = Vocab(("<UNK>", "<NUM>", "turn", "the", "lights"))
    return Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_row_products_are_bitwise_row_invariant(precision):
    # The decoders score B live hypotheses with one product per layer; every
    # row must equal the product of that row alone, so greedy (B = 1), beam
    # and rescoring agree bit for bit.
    from frameparse.neural import core

    model = _default_model(precision)
    weights = model.decode_weights()
    lstms = [weights.stack, weights.buffer, weights.actions, weights.compose.fwd,
             weights.compose.bwd]
    products = [layer for lstm in lstms for layer in lstm.layers]
    products += [weights.compose.proj, weights.ff, weights.scorer,
                 (np.ascontiguousarray(model.label_proj_w.value.T), model.label_proj_b.value)]
    assert len({w.shape for w, _ in products}) == 7  # every decode shape of the default config
    rng = np.random.default_rng(0)
    dtype = model.config.dtype
    for weight_t, bias in products:
        x = rng.normal(size=(5, weight_t.shape[0])).astype(dtype)
        alone = [core.linear_rows(x[i : i + 1], weight_t, bias)[0] for i in range(5)]
        assert np.array_equal(alone[0], x[0] @ weight_t + bias)
        for batch in range(1, 6):
            rows = core.linear_rows(x[:batch], weight_t, bias)
            for i in range(batch):
                assert np.array_equal(rows[i], alone[i]), (weight_t.shape, batch, i)
    for lstm in lstms:
        hidden = lstm.initial.shape[-1]
        x = rng.normal(size=(5, lstm.layers[0][0].shape[0] - hidden)).astype(dtype)
        state = rng.normal(size=(5,) + lstm.initial.shape).astype(dtype)
        alone = [lstm.step(x[i : i + 1], state[i : i + 1])[0] for i in range(5)]
        for batch in range(1, 6):
            new = lstm.step(x[:batch], state[:batch])
            for i in range(batch):
                assert np.array_equal(new[i], alone[i])


def _refreshed(model):
    fresh = Model(model.config, model.token_vocab, model.intent_labels, model.slot_labels,
                  model.normalizer)
    fresh.store.load_values(model.store.value_arrays())
    return fresh


def test_decode_weights_follow_parameter_updates():
    model = tiny_model(seed=32, precision="f32", lr=0.05)
    example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
    tokens = example.tokens
    before = parse_beam(model, tokens, 3)
    train_example(model, example, np.random.default_rng(0))
    after_step = parse_beam(model, tokens, 3)
    assert after_step == parse_beam(_refreshed(model), tokens, 3)
    assert after_step != before
    other = tiny_model(seed=33, precision="f32")
    model.store.load_values(other.store.value_arrays())
    after_load = parse_beam(model, tokens, 3)
    assert after_load == parse_beam(_refreshed(other), tokens, 3)
    assert parse_greedy(model, tokens) == parse_greedy(other, tokens)
    assert score_actions(model, tokens, oracle(example.tree)) == score_actions(
        other, tokens, oracle(example.tree))


def test_beam_matches_golden_fixture():
    import json
    from pathlib import Path

    from frameparse.trees import serialize

    golden = json.loads((Path(__file__).parent / "data" / "beam_top5_golden.json").read_text())
    corpus = synth.learnable_corpus(seed=41, size=24)
    vocab, intents, slots = build_vocabs(corpus)
    config = RnngConfig(seed=42, precision="f32", lr=0.01, **TINY)
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    train(model, corpus, epochs=3)
    for entry, example in zip(golden["utterances"], corpus.examples):
        assert list(example.tokens) == entry["tokens"]
        beam = parse_beam(model, example.tokens, 5)
        assert [serialize(tree) for tree, _ in beam] == [text for text, _ in entry["top5"]]
        for (_, score), (_, recorded) in zip(beam, entry["top5"]):
            assert score == pytest.approx(recorded, abs=1e-5)


def test_training_matches_golden_fixture():
    # Pins the order of the taped ops and the dropout stream: one dropout
    # mask more or less anywhere in an example shifts every later loss.
    import json
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "data" / "train_golden.json").read_text())
    corpus = synth.learnable_corpus(seed=51, size=10)
    vocab, intents, slots = build_vocabs(corpus)
    config = RnngConfig(seed=52, precision="f64", lr=0.01, **{**TINY, "dropout": 0.3})
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    rng = np.random.default_rng(53)
    losses = [train_example(model, example, rng) for example in corpus.examples]
    assert losses == pytest.approx(golden["losses"], rel=1e-9, abs=0)


# ---------------------------------------------------------------------------
# Gradient check of the full step


def test_full_training_step_gradients():
    model = tiny_model(seed=29)
    example = example_of("[IN:GET turn [SL:HOW up ] [SL:WHAT the lights ] ]")
    actions = oracle(example.tree)

    def loss_fn(tape):
        return example_loss(model, example.tokens, actions, tape)

    report = grad_check(loss_fn, model.store, max_coords_per_param=6,
                        rng=np.random.default_rng(9))
    assert report.passed, report.summary()


def test_full_step_gradients_with_dropout_fixed_seed():
    model = tiny_model(seed=30, dropout=0.25)
    example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
    actions = oracle(example.tree)

    def loss_fn(tape):
        local = np.random.default_rng(77)  # same masks on every call
        return example_loss(model, example.tokens, actions, tape, local)

    report = grad_check(loss_fn, model.store, max_coords_per_param=4,
                        rng=np.random.default_rng(10))
    assert report.passed, report.summary()


def test_ablated_models_gradients():
    for component in ("stack", "buffer", "actions"):
        config = ablate(RnngConfig(seed=31, precision="f64", **TINY), component)
        vocab = Vocab(("<UNK>", "<NUM>", "turn", "the", "lights", "off"))
        model = Model(config, vocab, (intent("SET"),), (slot("WHAT"),),
                      TokenNormalizer(frozenset(vocab.symbols)))
        example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
        actions = oracle(example.tree)

        def loss_fn(tape):
            return example_loss(model, example.tokens, actions, tape)

        report = grad_check(loss_fn, model.store, max_coords_per_param=4,
                            rng=np.random.default_rng(11))
        assert report.passed, f"{component}: {report.summary()}"


# ---------------------------------------------------------------------------
# Determinism and checkpointing


def test_training_is_deterministic():
    corpus = synth.learnable_corpus(seed=13, size=12)
    vocab, intents, slots = build_vocabs(corpus)
    params = []
    traces = []
    for _ in range(2):
        config = RnngConfig(seed=3, precision="f32", **TINY)
        model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
        traces.append(train(model, corpus, epochs=2))
        params.append({name: model.store[name].value.copy() for name in model.store})
    assert traces[0] == traces[1]  # identical losses, not just close
    for name in params[0]:
        assert np.array_equal(params[0][name], params[1][name]), name


def test_checkpoint_roundtrip(tmp_path):
    corpus = synth.learnable_corpus(seed=14, size=10)
    vocab, intents, slots = build_vocabs(corpus)
    config = RnngConfig(seed=4, precision="f32", **TINY)
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    train(model, corpus, epochs=1)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.token_vocab.symbols == model.token_vocab.symbols
    assert loaded.intent_labels == model.intent_labels
    for name in model.store:
        assert np.array_equal(loaded.store[name].value, model.store[name].value), name
    tokens = corpus.examples[0].tokens
    assert parse_greedy(loaded, tokens) == parse_greedy(model, tokens)


def test_checkpoint_rejects_other_files(tmp_path):
    from frameparse.neural import save_checkpoint
    from frameparse.neural.params import CheckpointError

    path = tmp_path / "other.ckpt"
    save_checkpoint(path, {"x": np.zeros(3)}, {"format": "something-else"})
    with pytest.raises(CheckpointError):
        load_model(path)


def test_pretrained_embeddings_frozen_rows(tmp_path):
    corpus = synth.learnable_corpus(seed=15, size=10)
    vocab, intents, slots = build_vocabs(corpus)
    dim = TINY["word_dim"]
    emb_path = tmp_path / "vectors.txt"
    known = [w for w in vocab.symbols if not w.startswith("<")][:4]
    with open(emb_path, "w", encoding="utf-8") as handle:
        for i, word in enumerate(known):
            values = " ".join(str(0.01 * (i + j)) for j in range(dim))
            handle.write(f"{word} {values}\n")
    from frameparse.preprocess import load_embeddings

    table = load_embeddings(emb_path, vocab.symbols, seed=0)
    config = RnngConfig(seed=5, precision="f32", **TINY)
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)),
                  embeddings=table)
    frozen_idx = vocab.index(known[0])
    row_before = model.word_emb.value[frozen_idx].copy()
    train(model, corpus, epochs=2)
    assert np.array_equal(model.word_emb.value[frozen_idx], row_before)
    # Rows without pretrained vectors stay trainable.
    trainable = [i for i, w in enumerate(vocab.symbols) if w in table.missing]
    assert any(
        not np.array_equal(model.word_emb.value[i], Model(
            config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)),
            embeddings=table,
        ).word_emb.value[i])
        for i in trainable
    )
