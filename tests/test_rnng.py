import ast
import hashlib
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import frameparse
import synth
from frameparse import cli, dataset as dataset_mod, metrics, preprocess, rnng
from frameparse import transitions, trees as trees_mod
from frameparse.dataset import Corpus, Example, Split, Vocab, build_vocabs, load_embeddings
from frameparse.neural import Tape, Var, grad_check
from frameparse.neural import core as neural_core, gradcheck as neural_gradcheck
from frameparse.neural import layers as neural_layers, params as neural_params
from frameparse.preprocess import TokenNormalizer
from frameparse.rnng import (
    AllEncodersDisabled,
    Model,
    RnngConfig,
    encode_state,
    example_loss,
    load_model,
    parse_beam,
    parse_greedy,
    save_model,
    start_hypothesis,
    train,
    train_example,
)
from frameparse.transitions import REDUCE, SHIFT, EmptyUtterance, kind_of, nt, oracle
from frameparse.trees import intent, parse_bracketed, slot, validate
from oracles import (
    reference_example_loss,
    reference_score_actions,
    reference_taped_score,
    start_every_step_hypothesis,
)

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


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must not be negative"),
    ("lr", -1.0, "lr must be finite and not negative"),
    ("lr", float("nan"), "lr must be finite and not negative"),
    ("lr", float("inf"), "lr must be finite and not negative"),
    ("weight_decay", -1.0, "weight_decay must be finite and not negative"),
    ("weight_decay", float("nan"), "weight_decay must be finite and not negative"),
], ids=["negative-seed", "negative-lr", "nan-lr", "inf-lr", "negative-weight-decay",
        "nan-weight-decay"])
def test_config_refuses_a_negative_seed_and_a_bad_step_size(field, value, message):
    with pytest.raises(ValueError, match=message):
        RnngConfig(**{field: value})
    # 0 is valid for each: no update, no decay, or the first seed.
    assert getattr(RnngConfig(**{field: 0}), field) == 0


@pytest.mark.parametrize("field, value", [("seed", -1), ("lr", float("nan")),
                                          ("weight_decay", -1.0), ("seed", 1.5),
                                          ("lstm_units", 2.5), ("seed", True),
                                          ("use_stack", "yes")])
def test_checkpoint_with_a_config_the_model_refuses_is_a_checkpoint_error(tmp_path, field,
                                                                           value):
    from frameparse.neural import load_checkpoint, save_checkpoint
    from frameparse.neural.params import CheckpointError

    path = tmp_path / "m.ckpt"
    save_model(tiny_model(seed=4), path)
    arrays, meta = load_checkpoint(path)
    meta["config"][field] = value
    save_checkpoint(path, arrays, meta)
    with pytest.raises(CheckpointError, match=f"bad model config: {field} must"):
        load_model(path)


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("lstm_units", 2.5, "lstm_units must be an integer, got 2.5"),
    ("seed", True, "seed must be an integer, got True"),
    ("use_stack", "yes", "use_stack must be a boolean, got 'yes'"),
    ("use_buffer", 1, "use_buffer must be a boolean, got 1"),
    ("dropout", True, "dropout must be a number, got True"),
    ("lr", "0.1", "lr must be a number, got '0.1'"),
    ("precision", 32, "precision must be a string, got 32"),
], ids=["fractional-seed", "fractional-units", "boolean-seed", "string-flag", "integer-flag",
        "boolean-dropout", "string-lr", "integer-precision"])
def test_config_refuses_a_field_of_the_wrong_type(field, value, message):
    with pytest.raises(TypeError, match=message):
        RnngConfig(**{field: value})


def test_config_takes_numpy_numbers_and_integral_reals():
    config = RnngConfig(seed=np.int64(3), lstm_units=np.int32(5), dropout=np.float32(0.25), lr=0)
    assert (config.seed, config.lstm_units, config.dropout, config.lr) == (3, 5, 0.25, 0)


def test_ablate():
    config = RnngConfig(**TINY)
    no_actions = replace(config, use_actions=False)
    assert no_actions.enabled_encoders == ("stack", "buffer")
    no_buffer = replace(config, use_buffer=False)
    assert no_buffer.enabled_encoders == ("stack", "actions")
    with pytest.raises(TypeError):
        replace(config, use_nonsense=False)
    last = replace(config, use_stack=False, use_buffer=False)
    assert last.enabled_encoders == ("actions",)
    with pytest.raises(AllEncodersDisabled):
        replace(last, use_actions=False)


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
    logits = encode_state(model, [hyp], tape)
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
    a = encode_state(model, [h1], tape).value
    b = encode_state(model, [h2], tape).value
    assert np.array_equal(a, b)


def test_full_model_sees_remaining_tokens():
    model = tiny_model()
    tape = Tape()
    h1 = start_hypothesis(model, ("turn", "the", "lights"), tape)
    h2 = start_hypothesis(model, ("turn", "up", "down"), tape)
    for hyp in (h1, h2):
        rnng.advance(model, hyp, model.actions[3], 0.0)
    a = encode_state(model, [h1], tape).value
    assert not np.array_equal(a, encode_state(model, [h2], tape).value)


# ---------------------------------------------------------------------------
# Composition: REDUCE encodes the open label's stack vector and its children


def stack_symbols(model, rng, n):
    return [Var(rng.normal(size=model.config.word_dim)) for _ in range(n)]


def test_compose_width_independent_of_child_count():
    model = tiny_model()
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        out = model.compose.encode(Tape(), [stack_symbols(model, rng, 1 + n)])
        assert out.value.shape == (model.config.word_dim,)


def test_compose_single_token_child():
    model = tiny_model()
    out = model.compose.encode(Tape(), [stack_symbols(model, np.random.default_rng(1), 2)])
    assert np.all(np.isfinite(out.value))


def test_compose_is_order_sensitive():
    model = tiny_model()
    label, a, b = stack_symbols(model, np.random.default_rng(2), 3)
    fwd = model.compose.encode(Tape(), [[label, a, b]])
    rev = model.compose.encode(Tape(), [[label, b, a]])
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


def test_non_finite_loss_is_refused_before_any_update():
    model = tiny_model(seed=38)
    model.store["scorer.bias"].value[0] = np.nan  # the SHIFT logit
    before = {name: value.copy() for name, value in model.store.value_arrays().items()}
    example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
    with pytest.raises(rnng.NonFiniteLoss, match="loss is nan on example 'turn the lights off'"):
        train_example(model, example, np.random.default_rng(0))
    for name, value in model.store.value_arrays().items():
        assert np.array_equal(value, before[name], equal_nan=True), name
    corpus = Corpus([example_of("[IN:GET up ]"), example], Split.TRAIN)
    with pytest.raises(rnng.NonFiniteLoss, match=r"^epoch 1, example [12]: loss is nan"):
        train(model, corpus, epochs=1)


def test_training_refuses_an_empty_corpus_before_any_draw():
    model = tiny_model(seed=39)
    before = {name: value.copy() for name, value in model.store.value_arrays().items()}
    rng = np.random.default_rng(5)
    for epochs in (None, 0, 1):
        with pytest.raises(ValueError, match="^cannot train on an empty corpus$"):
            train(model, Corpus([], Split.TRAIN), epochs=epochs, rng=rng)
    assert rng.random() == np.random.default_rng(5).random()
    for name, value in model.store.value_arrays().items():
        assert np.array_equal(value, before[name]), name


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


def test_mask_indices_list_the_actions_each_mask_allows():
    rng = np.random.default_rng(43)
    vocab = Vocab(("<UNK>", "<NUM>", "turn"))
    for _ in range(6):
        intents = [intent(f"I{i}") for i in rng.choice(40, size=rng.integers(0, 5), replace=False)]
        slots = [slot(f"S{i}") for i in rng.choice(40, size=rng.integers(0, 5), replace=False)]
        model = Model(RnngConfig(**TINY), vocab, intents, slots,
                      TokenNormalizer(frozenset(vocab.symbols)))
        assert len(model.mask_indices) == 16  # every 4-bit mask
        for mask, indices in enumerate(model.mask_indices):
            brute = [i for i, action in enumerate(model.actions) if kind_of(action) & mask]
            assert indices.tolist() == brute  # ascending, like enumerate
            assert indices.dtype == np.intp and not indices.flags.writeable


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
            again = reference_score_actions(model, tokens, oracle(tree))
            assert abs(again - score) < 1e-6


def test_example_loss_matches_score_of_gold():
    model = tiny_model(seed=28)
    example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
    actions = oracle(example.tree)
    loss = example_loss(model, example.tokens, actions, Tape())
    expected = -reference_score_actions(model, example.tokens, actions)
    assert float(loss.value) == pytest.approx(expected, rel=1e-9)


def test_a_tape_without_a_stream_scores_without_dropout():
    # The tape owns dropout: the configured rate only applies on a tape that
    # train_example builds with the random stream.
    example = example_of("[IN:SET turn [SL:WHAT the lights ] off ]")
    actions = oracle(example.tree)
    losses, grads = [], []
    for rate in (0.3, 0.0):
        model = tiny_model(seed=32, precision="f32", dropout=rate)
        tape = Tape()
        loss = example_loss(model, example.tokens, actions, tape)
        tape.backward(loss)
        losses.append(loss.value.tobytes())
        grads.append({name: model.store[name].grad.tobytes() for name in model.store})
    assert losses[0] == losses[1]
    assert grads[0] == grads[1]


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
    # row must equal the product of that row alone, so greedy (B = 1) and
    # beam agree bit for bit.
    from frameparse.neural import core

    model = _default_model(precision)
    lstms = [model.stack_lstm, model.buffer_lstm, model.action_lstm, model.compose.fwd,
             model.compose.bwd]
    products = [(weight, bias) for lstm in lstms for weight, bias, _, _ in lstm.layers]
    products += [(model.compose.proj_weight, model.compose.proj_bias), (model.ff_w, model.ff_b),
                 (model.out_w, model.out_b), (model.label_proj_w, model.label_proj_b)]
    assert len({w.shape for w, _ in products}) == 7  # every decode shape of the default config
    rng = np.random.default_rng(0)
    dtype = model.config.dtype
    for weight, bias in products:
        assert weight.value.T.flags.c_contiguous, weight.name
        x = rng.normal(size=(5, weight.shape[1])).astype(dtype)
        alone = [core.linear(None, weight, bias, x[i]) for i in range(5)]
        assert np.array_equal(alone[0], (x[:1] @ weight.value.T)[0] + bias.value)
        for batch in range(1, 6):
            rows = core.linear(None, weight, bias, x[:batch])
            for i in range(batch):
                assert np.array_equal(rows[i], alone[i]), (weight.shape, batch, i)
    for lstm in lstms:
        x = rng.normal(size=(5, lstm.layers[0][0].shape[1] - lstm.hidden_dim)).astype(dtype)
        state = rng.normal(size=(5,) + lstm.initial(None).shape).astype(dtype)
        alone = [lstm.step(None, x[i], state[i]) for i in range(5)]
        for batch in range(1, 6):
            new = lstm.step(None, x[:batch], state[:batch])
            for i in range(batch):
                assert np.array_equal(new[i], alone[i])


def _refreshed(model):
    fresh = Model(model.config, model.token_vocab, model.intent_labels, model.slot_labels,
                  model.normalizer)
    fresh.store.load_values(model.store.value_arrays())
    return fresh


def test_decoding_follows_parameter_updates():
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
    assert reference_score_actions(model, tokens, oracle(example.tree)) == (
        reference_score_actions(other, tokens, oracle(example.tree)))


@pytest.mark.parametrize(
    "weight", ["scorer.weight", "ff.weight", "label_proj.weight", "compose.proj.weight",
               "stack.l1.weight", "actions.l0.weight", "buffer.l0.weight"]
)
def test_decoding_reads_directly_written_weights(weight):
    # Decoding reads the parameters themselves, so a write that goes around
    # adam_step and load_values is seen by the next parse.
    model = tiny_model(seed=34, precision="f32")
    tokens = ("turn", "the", "lights", "off")
    before = parse_beam(model, tokens, 3)
    model.store[weight].value[...] = np.random.default_rng(35).normal(
        size=model.store[weight].shape)
    after = parse_beam(model, tokens, 3)
    assert after == parse_beam(_refreshed(model), tokens, 3)
    assert after != before
    assert parse_greedy(model, tokens) == parse_greedy(_refreshed(model), tokens)


@pytest.mark.parametrize("dims", [TINY, {}], ids=["tiny", "default"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_taped_and_decode_logits_are_bitwise_equal(precision, dims):
    # Training (encode_state on a tape) and decoding (encode_state without
    # one, over rows) compute every product on the same column-major
    # weights, so the logits along an oracle derivation agree bit for bit.
    corpus = synth.learnable_corpus(seed=36, size=12)
    vocab, intents, slots = build_vocabs(corpus)
    for seed in (36, 37):
        config = RnngConfig(seed=seed, precision=precision, **dims)
        model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
        steps = 0
        for example in corpus.examples:
            tape = Tape()
            hyp = start_every_step_hypothesis(model, example.tokens, tape)
            branch = start_every_step_hypothesis(model, example.tokens)
            for action in oracle(example.tree):
                taped = encode_state(model, [hyp], tape).value
                rows = encode_state(model, [branch])
                assert np.array_equal(taped, rows[0]), (seed, example.raw_utterance, steps)
                rnng.advance(model, hyp, action, 0.0)
                rnng.advance(model, branch, action, 0.0)
                steps += 1
        assert steps > 100


def test_decoded_scores_equal_the_taped_score_at_the_default_shape():
    # At the default f32 shape (164 units, 2 layers) the products run the
    # BLAS kernels the benchmark runs, not the tiny models' ones.  Every
    # greedy and beam-5 score must be what the taped training path gives
    # for the same derivation, bit for bit.
    corpus = synth.learnable_corpus(seed=39, size=8)
    vocab, intents, slots = build_vocabs(corpus)
    model = Model(RnngConfig(seed=39), vocab, intents, slots,
                  TokenNormalizer(frozenset(vocab.symbols)))
    assert model.config.lstm_units == 164 and model.config.lstm_layers == 2
    assert model.store.dtype == np.float32
    scored = 0
    for example in corpus.examples:
        for tree, score in [parse_greedy(model, example.tokens)] + parse_beam(
                model, example.tokens, 5):
            taped = reference_taped_score(model, example.tokens, oracle(tree))
            assert float(score).hex() == taped.hex(), (example.raw_utterance, str(tree))
            scored += 1
    assert scored > 8 * 3


# sha256 of save_model's bytes for tiny_model(seed=38) in each precision;
# recorded before product weights were stored column-major, which must
# change no checkpoint byte.
CHECKPOINT_SHA256 = {
    "f32": "916df6180dc7528d21730fb582f7ad158be856a3fff94551a5c201aa07ee3899",
    "f64": "8a718244d838b3113ff9ee97eed87ee2dc9a47c1162a038e63a40509c91e75ba",
}


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_checkpoint_bytes_are_pinned(tmp_path, precision):
    import hashlib

    path = tmp_path / "model.ckpt"
    save_model(tiny_model(seed=38, precision=precision), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[precision]


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


# The forced tail: once the last token is shifted, training neither encodes
# nor scores a step, yet draws the dropout values that work would draw.
FORCED_TAIL_CONFIGS = {
    "layers1": dict(lstm_layers=1),
    "layers2": {},
    "layers3": dict(lstm_layers=3),
    "no-stack": dict(use_stack=False),
    "no-buffer": dict(use_buffer=False),
    "no-actions": dict(use_actions=False),
    "buffer-only": dict(use_stack=False, use_actions=False),
    "no-dropout": dict(dropout=0.0),
    # The default shape (164 units, 2 layers, dropout 0.34): each step's
    # weights and the BLAS kernels are the benchmark's, not the tiny ones'.
    "default": {name: getattr(RnngConfig(), name) for name in TINY},
}


def _trained_epoch(overrides, precision, loss_fn, monkeypatch):
    """One 24-example epoch of a tiny model with ``loss_fn`` as
    ``rnng.example_loss``; returns the epoch loss, the parameters' bytes and
    the next draw of the stream."""
    corpus = synth.learnable_corpus(seed=61, size=24)
    vocab, intents, slots = build_vocabs(corpus)
    config = RnngConfig(seed=62, precision=precision, **{**TINY, "dropout": 0.3, **overrides})
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    rng = np.random.default_rng(63)
    monkeypatch.setattr(rnng, "example_loss", loss_fn)
    (loss,) = train(model, corpus, epochs=1, rng=rng)
    monkeypatch.undo()
    params = {name: model.store[name].value.tobytes() for name in model.store}
    return loss, params, rng.random()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("overrides", FORCED_TAIL_CONFIGS.values(), ids=FORCED_TAIL_CONFIGS)
def test_training_equals_the_score_every_step_reference(overrides, precision, monkeypatch):
    loss, params, draw = _trained_epoch(overrides, precision, example_loss, monkeypatch)
    ref_loss, ref_params, ref_draw = _trained_epoch(overrides, precision,
                                                    reference_example_loss, monkeypatch)
    assert float(loss).hex() == float(ref_loss).hex()
    assert draw == ref_draw
    assert params.keys() == ref_params.keys()
    for name in params:
        assert params[name] == ref_params[name], name


def _zero_everything_train_example(model, example, rng):
    """``rnng.train_example`` with every gradient zeroed before the backward
    pass, so no gradient can outlive its example."""
    tape = Tape(rng, model.config.dropout)
    loss = example_loss(model, example.tokens, oracle(example.tree), tape)
    model.store.grad.fill(0)
    tape.backward(loss)
    model.store.adam_step(model.config.lr, model.config.weight_decay)
    return float(loss.value)


def test_a_product_weight_an_example_does_not_use_keeps_no_stale_gradient():
    # The backward pass writes the gradient of each product weight it uses.
    # A one-token tree's only REDUCE is forced, so its pass never runs
    # compose: compose's gradient must read 0, not the previous example's.
    examples = [example_of("[IN:SET turn [SL:WHAT the lights ] off ]"), example_of("[IN:GET up ]")]
    models = [tiny_model(seed=68, precision="f32", dropout=0.3, lr=0.01) for _ in range(2)]
    rngs = [np.random.default_rng(69), np.random.default_rng(69)]
    compose = models[0].store["compose.fwd.l0.weight"]
    train_example(models[0], examples[0], rngs[0])
    assert compose.grad.any()
    train_example(models[0], examples[1], rngs[0])
    assert not compose.grad.any()
    for example in examples:
        _zero_everything_train_example(models[1], example, rngs[1])
    assert rngs[0].random() == rngs[1].random()
    for name in models[0].store:
        assert models[0].store[name].value.tobytes() == models[1].store[name].value.tobytes(), name


def test_training_never_encodes_a_forced_hypothesis(monkeypatch):
    corpus = synth.learnable_corpus(seed=64, size=6)
    vocab, intents, slots = build_vocabs(corpus)
    config = RnngConfig(seed=65, precision="f32", **{**TINY, "dropout": 0.3})
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    encode, run_queued = rnng.encode_state, rnng._run_queued
    encoded, run = [], []

    def checked_encode(model, branches, tape=None):
        encoded.extend(rnng._forced(b) for b in branches)
        return encode(model, branches, tape)

    def checked_run(model, branches, tape=None):
        run.extend(b.state.pos == len(b.state.tokens) for b in branches if b.action is not None)
        return run_queued(model, branches, tape)

    monkeypatch.setattr(rnng, "encode_state", checked_encode)
    monkeypatch.setattr(rnng, "_run_queued", checked_run)
    train(model, corpus, epochs=1)
    assert encoded and not any(encoded)
    assert run and not any(run)


@pytest.mark.parametrize("after_last_shift", [SHIFT, nt(slot("WHAT"))], ids=["shift", "nt"])
def test_forced_step_with_a_gold_action_other_than_reduce_is_masked(after_last_shift):
    model = tiny_model(seed=66, dropout=0.3)
    actions = [nt(intent("SET")), SHIFT, SHIFT, after_last_shift, REDUCE]
    with pytest.raises(neural_core.GoldMasked):
        example_loss(model, ("turn", "off"), actions, Tape(np.random.default_rng(67), 0.3))


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
        # Seed the tape's stream per call, so every probe draws the same masks.
        tape.rng, tape.rate = np.random.default_rng(77), model.config.dropout
        return example_loss(model, example.tokens, actions, tape)

    report = grad_check(loss_fn, model.store, max_coords_per_param=4,
                        rng=np.random.default_rng(10))
    assert report.passed, report.summary()


def test_ablated_models_gradients():
    for component in ("stack", "buffer", "actions"):
        config = replace(RnngConfig(seed=31, precision="f64", **TINY),
                         **{f"use_{component}": False})
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
    vectors, pretrained = load_embeddings(emb_path, vocab.symbols, dim, seed=0)
    config = RnngConfig(seed=5, precision="f32", **TINY)
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)),
                  embeddings=(vectors, pretrained))
    frozen_idx = vocab.index(known[0])
    row_before = model.word_emb.value[frozen_idx].copy()
    train(model, corpus, epochs=2)
    assert np.array_equal(model.word_emb.value[frozen_idx], row_before)
    # Rows without pretrained vectors stay trainable.
    trainable = np.flatnonzero(~pretrained)
    assert any(
        not np.array_equal(model.word_emb.value[i], Model(
            config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)),
            embeddings=(vectors, pretrained),
        ).word_emb.value[i])
        for i in trainable
    )
    with pytest.raises(neural_core.DimensionMismatch):
        Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)),
              embeddings=(vectors[:, 1:], pretrained))


# sha256 of the store values before and after two epochs and of the saved
# checkpoint's bytes, per (precision, finetune_embeddings), as the parser
# gave them when the embeddings loader inferred the width from the file.
PRETRAINED_DIGESTS = {
    ("f32", False): ("e6f94dfa6ec7a11adaf5f3ab53201a369f9c14ddeccaba764086117e643b55cc",
                     "e4a8ad9a643657cd1ab95b1c42075015bdfce68397b1a2a0c22e58de2575597f",
                     "77da4fd9751d9ba87f78002c0e31772097dc2aab55a28f9d20d93e2beb8bcbca"),
    ("f32", True): ("e6f94dfa6ec7a11adaf5f3ab53201a369f9c14ddeccaba764086117e643b55cc",
                    "6cc01cea482e40cce00825ef4d8db943b39e37c2ec19b93fc83c589f9c41410d",
                    "488b6ce71a486e6bbea277547087b338e3d38fb5d9512166fc9413d42517bb38"),
    ("f64", False): ("0a5ca28fa586ad5853281086f83b8b12fa5ee2d9a9e44b684de2745f740c2388",
                     "56900cb430183ca5b1e92788d22bb89f0a573b4e4167dca235589bccd833a0aa",
                     "69c12e2b3aa656ea2ef3e6b39bef1fcf61a17c6c13f44975c0c0b021379d376b"),
    ("f64", True): ("0a5ca28fa586ad5853281086f83b8b12fa5ee2d9a9e44b684de2745f740c2388",
                    "42b3209908a6f258065b98307104fa391d81052367aa7ca93a5e7ebfba85eced",
                    "0a5e9372efbf30cdcf1d52ab6154b31b9fa7a19e5c640ff7410239e52e38b930"),
}


@pytest.mark.parametrize("finetune", [False, True], ids=["frozen", "finetuned"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_pretrained_embeddings_train_bit_for_bit(tmp_path, precision, finetune):
    """A model started from an embeddings file, one of whose lines is a word
    outside the vocabulary, builds, trains and saves to pinned bytes."""
    corpus = synth.learnable_corpus(seed=15, size=10)
    vocab, intents, slots = build_vocabs(corpus)
    dim = TINY["word_dim"]
    known = [w for w in vocab.symbols if not w.startswith("<")][:4]
    lines = [f"{w} {' '.join(str(0.01 * (i + j)) for j in range(dim))}"
             for i, w in enumerate(known)]
    lines.insert(1, "out-of-vocabulary " + " ".join(["-0.5"] * dim))
    emb_path = tmp_path / "vectors.txt"
    emb_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    embeddings = load_embeddings(emb_path, vocab.symbols, dim, seed=0)
    config = RnngConfig(seed=5, precision=precision, finetune_embeddings=finetune, **TINY)
    model = Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)),
                  embeddings=embeddings)
    initial = hashlib.sha256(model.store.value.tobytes()).hexdigest()
    train(model, corpus, epochs=2)
    trained = hashlib.sha256(model.store.value.tobytes()).hexdigest()
    save_model(model, tmp_path / "m.ckpt")
    saved = hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest()
    assert (initial, trained, saved) == PRETRAINED_DIGESTS[precision, finetune]


# ---------------------------------------------------------------------------
# No public helper that only the tests call


def _referenced_names(root: Path, skip) -> set:
    """Every name a .py file under ``root`` reads, as a variable or as an
    attribute; imports and definitions alone do not count."""
    names = set()
    for path in root.rglob("*.py"):
        if skip(path):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_methods(cls):
    """The public methods and properties ``cls`` defines itself."""
    return [name for name, value in vars(cls).items() if not name.startswith("_") and (
        inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod)))]


def test_every_public_parser_name_has_a_caller_outside_the_tests():
    """Each public function and class of every module of the package, and
    each public method and property of its classes, is used by the package
    or the benchmark, or is library API (re-exported by
    ``frameparse/__init__.py``).  Names are matched without their owner, so
    a method passes if anything of the same name is read."""
    package = Path(frameparse.__file__).parent
    used = _referenced_names(package, lambda path: path.name == "__init__.py")
    used |= _referenced_names(Path(__file__).resolve().parents[1] / "perfbench",
                              lambda path: "tests" in path.parts)
    used |= set(vars(frameparse))
    unused = []
    for module in (rnng, neural_core, neural_layers, neural_params, neural_gradcheck,
                   trees_mod, transitions, dataset_mod, metrics, preprocess, cli):
        for name, value in vars(module).items():
            if (name.startswith("_") or not (inspect.isfunction(value) or inspect.isclass(value))
                    or value.__module__ != module.__name__):
                continue
            names = [name]
            if inspect.isclass(value):
                names += [f"{name}.{method}" for method in _public_methods(value)]
            unused += [f"{module.__name__}.{qualified}" for qualified in names
                       if qualified.rpartition(".")[2] not in used]
    assert unused == []
