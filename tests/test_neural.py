import gc
import json
import math
import weakref

import numpy as np
import pytest

import synth
from frameparse import rnng
from frameparse.dataset import build_vocabs
from frameparse.neural import (
    BiLstmEncoder,
    CheckpointError,
    DimensionMismatch,
    EmptySequence,
    GoldMasked,
    Lstm,
    ParamStore,
    Tape,
    Var,
    add_n,
    concat,
    dropout,
    embedding_lookup,
    grad_check,
    linear,
    load_checkpoint,
    lstm_cell,
    masked_log_probs,
    masked_nll,
    relu,
    save_checkpoint,
)
from frameparse.neural.params import ADAM_CHUNK
from frameparse.dataset import load_embeddings
from frameparse.preprocess import TokenNormalizer


def f64_store(seed=0):
    return ParamStore(seed=seed, dtype=np.float64)


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_zero_everything_gives_zero_hiddens():
    store = f64_store()
    lstm = Lstm(store, "lstm", 3, 4, 2)
    store.allocate()
    inputs = [Var(np.zeros(3)) for _ in range(5)]
    outputs = [lstm.output(s) for s in lstm.run(Tape(), inputs)]
    assert len(outputs) == len(inputs)
    for out in outputs:
        assert np.allclose(out.value, 0.0)


def test_lstm_scalar_step_hand_computed():
    store = f64_store()
    lstm = Lstm(store, "lstm", 1, 1, 1)
    store.allocate()
    weight, bias, _, _ = lstm.layers[0]
    # Gate rows: input, forget, candidate, output; columns: [x, h].
    weight.value[...] = np.array([[0.5, 0.1], [0.3, 0.2], [1.0, -0.5], [0.25, 0.4]])
    bias.value[...] = np.array([0.1, 0.2, -0.2, 0.05])
    tape = Tape()
    state = lstm.step(tape, Var(np.array([1.0])), lstm.initial(tape))
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    gate_in = sig(0.5 * 1.0 + 0.1 * 0.0 + 0.1)
    gate_fg = sig(0.3 * 1.0 + 0.2 * 0.0 + 0.2)
    cand = math.tanh(1.0 * 1.0 - 0.5 * 0.0 - 0.2)
    gate_out = sig(0.25 * 1.0 + 0.4 * 0.0 + 0.05)
    c1 = gate_fg * 0.0 + gate_in * cand
    h1 = gate_out * math.tanh(c1)
    assert state[0][1].value[0] == pytest.approx(c1, abs=1e-15)
    assert state[0][0].value[0] == pytest.approx(h1, abs=1e-15)


def test_lstm_output_length_matches_input_length():
    store = f64_store(3)
    lstm = Lstm(store, "lstm", 2, 5, 2)
    store.allocate()
    for n in (1, 4, 9):
        inputs = [Var(np.random.default_rng(n).normal(size=2)) for _ in range(n)]
        assert len(lstm.run(Tape(), inputs)) == n


def test_lstm_dimension_mismatch():
    store = f64_store()
    lstm = Lstm(store, "lstm", 3, 4, 1)
    store.allocate()
    with pytest.raises(DimensionMismatch):
        tape = Tape()
        lstm.step(tape, Var(np.zeros(5)), lstm.initial(tape))


def test_lstm_cell_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    store = f64_store(4)
    lstm = Lstm(store, "lstm", 3, 4, 2)
    store.allocate()
    inputs_value = rng.normal(size=(6, 3))

    def loss_fn(tape):
        outs = [lstm.output(s) for s in lstm.run(tape, [Var(v.copy()) for v in inputs_value])]
        return masked_nll(tape, add_n(tape, outs), 0, [0, 1, 2, 3])

    report = grad_check(loss_fn, store)
    assert report.passed, report.summary()


class _RowSpyTape(Tape):
    """Keeps its own per-step ``np.outer`` sum of every weight-gradient row
    that a closure hands back, and checks that the row is only handed back:
    the weight's gradient is still untouched while the closures run."""

    __slots__ = ("outer_sums",)

    def __init__(self):
        super().__init__()
        self.outer_sums = {}

    def record(self, backward_fn):
        sums = self.outer_sums

        def spy():
            rows = backward_fn()
            if rows is not None:
                weight, dz, x = rows
                assert not weight.grad.any(), "weight gradient was not deferred"
                sums[weight.name] = sums.get(weight.name, 0.0) + np.outer(dz, x)
            return rows

        super().record(spy)


def test_deferred_weight_gradients_match_per_step_outer_products():
    rng = np.random.default_rng(18)
    store = f64_store(18)
    hidden, x_dim, n_out = 5, 3, 4
    cell_w = store.add("cell.weight", (4 * hidden, x_dim + hidden))
    cell_b = store.add("cell.bias", (4 * hidden,))
    out_w = store.add("out.weight", (n_out, hidden))
    out_b = store.add("out.bias", (n_out,))
    store.allocate()
    for name in store:
        store[name].value[...] = rng.normal(scale=0.5, size=store[name].value.shape)
    store.zero_grad()
    tape = _RowSpyTape()
    h, c = Var(np.zeros(hidden)), Var(np.zeros(hidden))
    losses = []
    for step in range(6):
        h, c = lstm_cell(tape, cell_w, cell_b, Var(rng.normal(size=x_dim)), h, c)
        logits = linear(tape, out_w, out_b, h)
        losses.append(masked_nll(tape, logits, step % n_out, list(range(n_out))))
    tape.backward(add_n(tape, losses))
    assert sorted(tape.outer_sums) == ["cell.weight", "out.weight"]
    for name, expected in tape.outer_sums.items():
        got = store[name].grad
        # rtol 1e-12, with an absolute floor for entries that cancel to ~0.
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_backward_consumes_tape_and_refcount_frees_it():
    store = f64_store(19)
    lstm = Lstm(store, "lstm", 3, 4, 2)
    scorer = store.add("scorer", (4, 4))
    scorer_b = store.add("scorer.bias", (4,))
    store.allocate()
    inputs = [Var(np.random.default_rng(i).normal(size=3)) for i in range(4)]
    gc.disable()
    try:
        tape = Tape()
        outs = [lstm.output(s) for s in lstm.run(tape, inputs)]
        loss = masked_nll(tape, linear(tape, scorer, scorer_b, outs[-1]), 1, [0, 1, 2, 3])
        tape_ref, hidden_ref = weakref.ref(tape), weakref.ref(outs[0])
        tape.backward(loss)
        assert len(tape) == 0
        del tape, outs, loss
        # No reference cycle keeps the tape or its intermediate Vars alive.
        assert tape_ref() is None
        assert hidden_ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Bidirectional encoder


def test_bilstm_single_element_reads_same_both_ways():
    store = f64_store(5)
    enc = BiLstmEncoder(store, "enc", 3, 4, 6)
    store.allocate()
    # Copy forward parameters onto the backward direction.
    for (fw, fb, fh, fc), (bw, bb, bh, bc) in zip(enc.fwd.layers, enc.bwd.layers):
        bw.value[...] = fw.value
        bb.value[...] = fb.value
        bh.value[...] = fh.value
        bc.value[...] = fc.value
    x = Var(np.random.default_rng(0).normal(size=3))
    h_fwd = enc.fwd.output(enc.fwd.run(Tape(), [x])[-1])
    h_bwd = enc.bwd.output(enc.bwd.run(Tape(), [x])[-1])
    assert np.array_equal(h_fwd.value, h_bwd.value)


def test_bilstm_reversal_symmetry():
    store_a = f64_store(6)
    enc_a = BiLstmEncoder(store_a, "enc", 3, 4, 6)
    store_b = f64_store(999)
    enc_b = BiLstmEncoder(store_b, "enc", 3, 4, 6)
    store_a.allocate()
    store_b.allocate()
    # enc_b is enc_a with its two directions swapped, and so the two halves
    # of its projection; reading the sequence reversed gives the same summary.
    for a_dir, b_dir in ((enc_a.bwd, enc_b.fwd), (enc_a.fwd, enc_b.bwd)):
        for (aw, ab, ah, ac), (bw, bb, bh, bc) in zip(a_dir.layers, b_dir.layers):
            bw.value[...] = aw.value
            bb.value[...] = ab.value
            bh.value[...] = ah.value
            bc.value[...] = ac.value
    enc_b.proj_weight.value[...] = np.roll(enc_a.proj_weight.value, 4, axis=1)
    enc_b.proj_bias.value[...] = enc_a.proj_bias.value
    rng = np.random.default_rng(1)
    xs = [Var(rng.normal(size=3)) for _ in range(5)]
    summary_a = enc_a.encode(Tape(), [xs])
    summary_b = enc_b.encode(Tape(), [list(reversed(xs))])
    assert np.allclose(summary_a.value, summary_b.value)


def test_bilstm_zero_params_zero_summary():
    store = f64_store()
    enc = BiLstmEncoder(store, "enc", 3, 4, 6)
    store.allocate()
    for name in store:
        store[name].value[...] = 0.0
    out = enc.encode(Tape(), [[Var(np.random.default_rng(2).normal(size=3)) for _ in range(3)]])
    assert np.allclose(out.value, 0.0)


def test_bilstm_empty_sequence():
    store = f64_store()
    enc = BiLstmEncoder(store, "enc", 3, 4, 6)
    with pytest.raises(EmptySequence):
        enc.encode(Tape(), [[]])
    with pytest.raises(EmptySequence):
        enc.encode(None, [[np.zeros(3)], []])


def test_bilstm_gradients():
    store = f64_store(7)
    enc = BiLstmEncoder(store, "enc", 3, 4, 5)
    store.allocate()
    rng = np.random.default_rng(7)
    values = rng.normal(size=(4, 3))

    def loss_fn(tape):
        out = enc.encode(tape, [[Var(v.copy()) for v in values]])
        return masked_nll(tape, out, 2, [0, 1, 2, 3, 4])

    report = grad_check(loss_fn, store)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# Masked softmax NLL


def test_masked_nll_uniform():
    logits = Var(np.zeros(6))
    loss = masked_nll(Tape(), logits, 2, [0, 2, 4, 5])
    assert float(loss.value) == pytest.approx(math.log(4), abs=1e-12)


def test_masked_nll_single_valid_action():
    logits = Var(np.random.default_rng(0).normal(size=5))
    loss = masked_nll(Tape(), logits, 3, [3])
    assert float(loss.value) == pytest.approx(0.0, abs=1e-12)


def test_masked_nll_gold_outside_mask():
    with pytest.raises(GoldMasked):
        masked_nll(Tape(), Var(np.zeros(4)), 1, [0, 2])


def test_masked_nll_masked_probability_is_zero():
    logits = np.array([100.0, 0.0, -3.0, 2.0])
    logps = masked_log_probs(logits, np.array([1, 3]))
    assert logps.shape == (2,)
    assert np.exp(logps).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_log_probs_are_the_negated_masked_nll_bitwise(dtype):
    # Decoding scores with masked_log_probs and training with masked_nll; a
    # decoded score equals the taped one only if every entry is the exact
    # negation of the loss of that action.  The one bit that may differ is
    # the sign of a zero (a sure action gets x - x = +0, its loss -(x - x)
    # = -0), which adding +0 clears, as adding it to a score does.
    rng = np.random.default_rng(11)
    for trial in range(200):
        logits = (rng.normal(size=40) * rng.choice([0.1, 1.0, 30.0])).astype(dtype)
        vi = np.sort(rng.choice(40, size=rng.integers(1, 41), replace=False)).astype(np.intp)
        before = logits.copy()
        logps = masked_log_probs(logits, vi)
        assert logps.dtype == dtype and np.array_equal(logits, before)
        for j, index in enumerate(vi):
            loss = masked_nll(Tape(), Var(logits), int(index), vi).value
            assert (logps[j] + 0).tobytes() == (-loss + 0).tobytes(), (trial, j)


def test_masked_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    store = f64_store(8)
    logits_param = store.add("logits", (7,))
    store.allocate()
    logits_param.value[...] = rng.normal(size=7)
    mask = [0, 2, 3, 6]

    def loss_fn(tape):
        return masked_nll(tape, logits_param, 3, mask)

    report = grad_check(loss_fn, store, tolerance=1e-6)
    assert report.passed, report.summary()
    # Masked-out coordinates receive exactly zero gradient.
    store.zero_grad()
    tape = Tape()
    tape.backward(loss_fn(tape))
    assert logits_param.grad[1] == 0.0 and logits_param.grad[4] == 0.0


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradients_no_change():
    store = f64_store(9)
    param = store.add("w", (3, 3))
    store.allocate()
    before = param.value.copy()
    store.zero_grad()
    store.adam_step(lr=0.1, weight_decay=0.0)
    assert np.array_equal(param.value, before)


def test_adam_single_step_hand_computed():
    store = f64_store()
    param = store.add("w", (1,))
    store.allocate()
    param.value[...] = 1.0
    param.grad[...] = 1.0
    store.adam_step(lr=0.0004, weight_decay=0.0)
    # One step from the defining formulas with beta1=0.9, beta2=0.999, eps=1e-8.
    m_hat = (0.1 * 1.0) / (1 - 0.9)
    v_hat = (0.001 * 1.0) / (1 - 0.999)
    expected = 1.0 - 0.0004 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert param.value[0] == pytest.approx(expected, abs=1e-15)


def test_adam_decoupled_weight_decay():
    store = f64_store()
    param = store.add("w", (1,))
    store.allocate()
    param.value[...] = 2.0
    param.grad[...] = 0.0
    store.adam_step(lr=0.01, weight_decay=0.1)
    assert param.value[0] == pytest.approx(2.0 - 0.01 * 0.1 * 2.0, abs=1e-15)


def test_adam_optimizes_quadratic():
    store = f64_store(10)
    param = store.add("xy", (2,))
    store.allocate()
    param.value[...] = (3.0, -2.0)
    target = np.array([1.0, 1.0])

    def loss():
        return float(((param.value - target) ** 2).sum())

    first = loss()
    for _ in range(100):
        store.zero_grad()
        param.grad[...] = 2.0 * (param.value - target)
        store.adam_step(lr=0.05)
    assert loss() < first * 0.1


def test_adam_respects_frozen_rows():
    store = f64_store(11)
    emb = store.add("emb", (3, 2))
    store.allocate()
    emb.frozen_rows = np.array([True, False, True])
    before = emb.value.copy()
    emb.grad[...] = 1.0
    store.adam_step(lr=0.1)
    assert np.array_equal(emb.value[0], before[0])
    assert np.array_equal(emb.value[2], before[2])
    assert not np.array_equal(emb.value[1], before[1])


def test_adam_step_is_bitwise_dense_adam():
    """20 float32 steps against the dense formula, with every temporary
    allocated, which is how Adam used to be written."""
    rng = np.random.default_rng(20)
    store = ParamStore(seed=20, dtype=np.float32)
    emb = store.add("emb", (6, 3))
    emb.frozen_rows = np.array([True, False, False, True, False, False])
    store.add("w", (4, 7))
    store.add("b", (4,))
    store.allocate()
    lr, weight_decay, beta1, beta2, eps = 0.01, 0.05, 0.9, 0.999, 1e-8
    dense = {
        name: {"value": store[name].value.copy(), "m": np.zeros_like(store[name].value),
               "v": np.zeros_like(store[name].value)}
        for name in store
    }
    for t in range(1, 21):
        for name in store:
            store[name].grad[...] = rng.normal(size=store[name].grad.shape)
        store.adam_step(lr, weight_decay)
        bias1 = 1.0 - beta1 ** t
        bias2 = 1.0 - beta2 ** t
        for name in store:
            ref, g = dense[name], store[name].grad
            ref["m"] *= beta1
            ref["m"] += (1.0 - beta1) * g
            ref["v"] *= beta2
            ref["v"] += (1.0 - beta2) * (g * g)
            update = (ref["m"] / bias1) / (np.sqrt(ref["v"] / bias2) + eps)
            update = update + weight_decay * ref["value"]
            if store[name].frozen_rows is not None:
                update[store[name].frozen_rows] = 0
            ref["value"] -= lr * update
    _assert_moments_equal(store, dense)
    for name in store:
        assert np.array_equal(store[name].value, dense[name]["value"]), name


def _assert_moments_equal(store, dense):
    """The store's flat Adam moments are the dense reference's, each
    parameter's raveled in its memory order and laid out in ``add`` order."""
    for moment in ("m", "v"):
        expected = np.concatenate([dense[name][moment].ravel(order=param.order)
                                   for name, param in store.params.items()])
        assert np.array_equal(getattr(store, moment), expected), moment


# ---------------------------------------------------------------------------
# Parameter arena


def _assert_views_tile_arena(store):
    """Every parameter's value and grad are the next slice of the store's
    flat buffers, in ``add`` order, and together they cover them."""
    offset = 0
    for param in store.params.values():
        size = math.prod(param.shape)
        for view in ("value", "grad"):
            array, flat = getattr(param, view), getattr(store, view)
            assert array.shape == param.shape, (param.name, view)
            assert array.flags[f"{param.order}_CONTIGUOUS"], (param.name, view)
            assert np.shares_memory(array, flat), (param.name, view)
            assert array.ctypes.data == flat[offset:].ctypes.data, (param.name, view)
        offset += size
    assert offset == store.value.size == store.num_values()


def _tiny_corpus_model(**model_kwargs):
    corpus = synth.learnable_corpus(seed=30, size=6)
    vocab, intents, slots = build_vocabs(corpus)
    config = rnng.RnngConfig(seed=30, word_dim=8, label_dim=6, action_dim=5, lstm_units=9,
                             lstm_layers=2)
    model = rnng.Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)),
                       **model_kwargs)
    return model, corpus


def test_arena_views_survive_training_and_loading(tmp_path):
    model, corpus = _tiny_corpus_model()
    store = model.store
    _assert_views_tile_arena(store)
    rnng.train_example(model, corpus.examples[0], np.random.default_rng(0))
    _assert_views_tile_arena(store)
    other, _ = _tiny_corpus_model()
    other.store.load_values({name: value + 1 for name, value in store.value_arrays().items()})
    _assert_views_tile_arena(other.store)
    assert np.array_equal(other.store.value, store.value + np.float32(1))

    emb_path = tmp_path / "vectors.txt"
    words = [w for w in model.token_vocab.symbols if not w.startswith("<")][:3]
    emb_path.write_text("".join(f"{w} {' '.join(['0.5'] * 8)}\n" for w in words))
    embeddings = load_embeddings(emb_path, model.token_vocab.symbols, 8, seed=0)
    pretrained, _ = _tiny_corpus_model(embeddings=embeddings)
    _assert_views_tile_arena(pretrained.store)
    assert np.all(pretrained.word_emb.value[model.token_vocab.index(words[0])] == 0.5)


def test_arena_initialization_draws_in_add_order():
    store = ParamStore(seed=31, dtype=np.float32)
    store.add("w1", (3, 4))
    store.add("b", (5,))
    store.add("w2", (2, 6))
    store.allocate()
    rng = np.random.default_rng(31)
    expected_w1 = rng.uniform(-np.sqrt(6.0 / 7), np.sqrt(6.0 / 7), (3, 4)).astype(np.float32)
    expected_w2 = rng.uniform(-np.sqrt(6.0 / 8), np.sqrt(6.0 / 8), (2, 6)).astype(np.float32)
    assert np.array_equal(store["w1"].value, expected_w1)
    assert np.array_equal(store["w2"].value, expected_w2)
    assert not store["b"].value.any()
    _assert_views_tile_arena(store)


def test_arena_add_after_allocation_raises():
    store = f64_store(32)
    param = store.add("w", (2, 2))
    store.add("b", (2,))
    with pytest.raises(AttributeError):
        param.value  # no view before the arena is allocated
    store.allocate()
    with pytest.raises(RuntimeError):
        store.add("late", (3,))
    assert "late" not in store.params and store.value.size == 6


def test_zero_grad_clears_exactly_the_row_major_gradients():
    store = f64_store(33)
    Lstm(store, "lstm", 3, 4, 1)
    store.add("scorer", (5, 4), order="F")
    store.allocate()
    store.grad[...] = 1.5
    store.zero_grad()
    for name in store:
        param = store[name]
        if param.order == "C":
            assert not param.grad.any(), name
        else:
            assert np.all(param.grad == 1.5), name
    _assert_views_tile_arena(store)


def test_store_backward_leaves_no_stale_gradient():
    """Gradients prefilled with garbage end bitwise equal to a fresh
    store's after the same pass, in a product weight the pass does not use
    ("unused") as in every other."""

    def build():
        store = f64_store(36)
        lstm = Lstm(store, "lstm", 3, 4, 1)
        weights = {name: store.add(name, (5, 4), order="F") for name in ("used", "unused")}
        bias = store.add("bias", (5,))
        store.allocate()
        return store, lstm, weights["used"], bias

    def loss_fn(tape, lstm, weight, bias):
        inputs = [Var(np.arange(3.0) + step) for step in range(3)]
        outputs = [lstm.output(s) for s in lstm.run(tape, inputs)]
        logits = linear(tape, weight, bias, outputs[-1])
        return masked_nll(tape, logits, 2, [0, 2, 4])

    fresh, *fresh_layers = build()
    tape = Tape()
    fresh.backward(tape, loss_fn(tape, *fresh_layers))
    assert not fresh["unused"].grad.any()
    stale, *stale_layers = build()
    stale.grad[...] = np.nan
    tape = Tape()
    stale.backward(tape, loss_fn(tape, *stale_layers))
    assert stale.grad.tobytes() == fresh.grad.tobytes()
    _assert_views_tile_arena(stale)


def test_dropped_model_frees_its_arena_without_cycle_collection():
    model, _ = _tiny_corpus_model()
    store_ref, buffer_ref = weakref.ref(model.store), weakref.ref(model.store.value)
    gc.disable()
    try:
        del model
        assert store_ref() is None and buffer_ref() is None
    finally:
        gc.enable()


def test_adam_chunks_match_dense_adam_across_frozen_boundary():
    """A frozen-row parameter that straddles a chunk boundary steps exactly
    like the dense per-parameter formula."""
    rng = np.random.default_rng(34)
    store = ParamStore(seed=34, dtype=np.float32)
    store.add("head", (5,))
    emb = store.add("emb", (1100, 64))
    store.add("tail", (3, 7))
    store.allocate()
    frozen = np.zeros(1100, dtype=bool)
    frozen[::3] = True
    frozen[1023] = True  # row 1023 holds the arena's element ADAM_CHUNK
    emb.frozen_rows = frozen
    assert 5 + 1023 * 64 < ADAM_CHUNK < 5 + 1024 * 64
    initial = emb.value.copy()
    lr, weight_decay, beta1, beta2, eps = 0.01, 0.05, 0.9, 0.999, 1e-8
    dense = {
        name: {"value": store[name].value.copy(), "m": np.zeros_like(store[name].value),
               "v": np.zeros_like(store[name].value)}
        for name in store
    }
    for t in range(1, 6):
        for name in store:
            store[name].grad[...] = rng.normal(size=store[name].shape)
        store.adam_step(lr, weight_decay)
        bias1 = 1.0 - beta1 ** t
        bias2 = 1.0 - beta2 ** t
        for name in store:
            ref, g = dense[name], store[name].grad
            ref["m"] *= beta1
            ref["m"] += (1.0 - beta1) * g
            ref["v"] *= beta2
            ref["v"] += (1.0 - beta2) * (g * g)
            update = (ref["m"] / bias1) / (np.sqrt(ref["v"] / bias2) + eps)
            update = update + weight_decay * ref["value"]
            if store[name].frozen_rows is not None:
                update[store[name].frozen_rows] = 0
            ref["value"] -= lr * update
    _assert_moments_equal(store, dense)
    for name in store:
        assert np.array_equal(store[name].value, dense[name]["value"]), name
    assert np.array_equal(emb.value[frozen], initial[frozen])
    assert not np.array_equal(emb.value[1022], initial[1022])


@pytest.mark.parametrize(
    "edit",
    [
        lambda arrays: arrays.update(zzz_extra=np.zeros(2)),
        lambda arrays: arrays.update(b=np.zeros(3)),
        lambda arrays: arrays.pop("b"),
    ],
    ids=["extra-array", "bad-shape-second", "missing"],
)
def test_load_values_checks_everything_before_writing(edit):
    store = f64_store(35)
    store.add("a", (2, 2))
    store.add("b", (2,))
    store.allocate()
    before = store.value.copy()
    arrays = {"a": np.full((2, 2), 7.0), "b": np.full(2, 7.0)}
    edit(arrays)
    with pytest.raises(CheckpointError):
        store.load_values(arrays)
    assert np.array_equal(store.value, before)


# ---------------------------------------------------------------------------
# Gradient checker


def _sum_to_scalar(tape, x):
    out = Var(np.asarray(x.value.sum(), dtype=x.value.dtype))
    if tape is not None:

        def backward():
            if out.grad is not None:
                x.add_grad(np.full_like(x.value, float(out.grad)))

        tape.record(backward)
    return out


def test_grad_check_linear_model_is_exact():
    store = f64_store(12)
    w = store.add("w", (4, 3))
    b = store.add("b", (4,))
    store.allocate()
    rng = np.random.default_rng(12)
    x = rng.normal(size=3)

    def loss_fn(tape):
        return _sum_to_scalar(tape, linear(tape, w, b, Var(x.copy())))

    # Linearity means central differences have zero truncation error, so a
    # large step leaves only negligible roundoff.
    report = grad_check(loss_fn, store, tolerance=1e-9, step=0.25)
    assert report.passed, report.summary()


def test_grad_check_detects_corruption():
    """A loss whose recorded backward doubles the gradient must fail."""
    store = f64_store(13)
    w = store.add("w", (4, 3))
    b = store.add("b", (4,))
    store.allocate()
    x = np.random.default_rng(13).normal(size=3)

    def loss_fn(tape):
        loss = masked_nll(tape, linear(tape, w, b, Var(x.copy())), 0, [0, 1, 2, 3])
        out = Var(loss.value.copy())  # the identity, forward

        def wrong_backward():
            loss.add_grad(2.0 * out.grad)

        tape.record(wrong_backward)
        return out

    report = grad_check(loss_fn, store)
    assert not report.passed
    # Both parameters get the doubled gradient, so each check fails.
    assert [(check.name, check.max_rel_err > report.tolerance) for check in report.checks] == [
        ("b", True), ("w", True)]


@pytest.mark.parametrize("coords", [0, -1])
def test_grad_check_refuses_fewer_than_one_coordinate(coords):
    """Checking no coordinate would pass whatever the gradient."""
    store = f64_store(14)
    store.add("w", (4, 3))
    calls = []

    def loss_fn(tape):
        calls.append(tape)
        raise AssertionError("the loss must not be built")

    with pytest.raises(ValueError, match="max_coords_per_param must be at least 1"):
        grad_check(loss_fn, store, max_coords_per_param=coords)
    assert calls == []


@pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
def test_grad_check_refuses_a_tolerance_that_is_not_positive_and_finite(tolerance):
    """A NaN or negative tolerance fails every check, an infinite one passes
    every check, whatever the gradient."""
    store = f64_store(14)
    store.add("w", (4, 3))
    calls = []

    def loss_fn(tape):
        calls.append(tape)
        raise AssertionError("the loss must not be built")

    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        grad_check(loss_fn, store, tolerance=tolerance)
    assert calls == []


# ---------------------------------------------------------------------------
# Dropout and misc ops


def test_dropout_zero_rate_is_identity():
    x = Var(np.random.default_rng(1).normal(size=50))
    for tape in (Tape(np.random.default_rng(0), 0.0), Tape()):
        assert tape.rate == 0.0
        assert dropout(tape, x) is x


@pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan")])
def test_tape_refuses_a_dropout_rate_outside_zero_to_one(rate):
    with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
        Tape(np.random.default_rng(0), rate)
    with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
        Tape(None, rate)


def test_dropout_mask_values_and_expectation():
    rng = np.random.default_rng(14)
    x = Var(np.ones(20000))
    out = dropout(Tape(rng, 0.34), x)
    kept = out.value[out.value != 0.0]
    assert np.allclose(kept, 1.0 / (1.0 - 0.34))
    assert out.value.mean() == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_masks_taken_by_position_from_one_draw_equal_per_op_draws(dtype):
    # A tape that drew its values in one block hands each dropout site the
    # slice at its position: the mask that site draws itself in run order,
    # whatever order the sites run in, and the stream ends where theirs do.
    sizes = [7, 3, 12, 1, 5, 9]
    xs = [Var(np.random.default_rng(size).normal(size=size).astype(dtype)) for size in sizes]
    per_op_rng, block_rng = np.random.default_rng(70), np.random.default_rng(70)
    per_op = Tape(per_op_rng, 0.4)
    expected = [dropout(per_op, x).value for x in xs]
    tape = Tape(block_rng, 0.4)
    tape.draw(sum(sizes))
    starts = np.cumsum([0] + sizes[:-1])
    for i in (3, 0, 5, 1, 4, 2):
        tape.at = starts[i]
        out = dropout(tape, xs[i])
        assert tape.at == starts[i] + sizes[i]
        assert out.value.dtype == dtype
        assert out.value.tobytes() == expected[i].tobytes(), i
    tape.at = 0
    assert [dropout(tape, x).value.tobytes() for x in xs] == [e.tobytes() for e in expected]
    assert block_rng.random() == per_op_rng.random()


def test_a_tape_that_does_not_drop_draws_no_block():
    rng = np.random.default_rng(71)
    for tape in (Tape(rng, 0.0), Tape()):
        tape.draw(10)
        assert tape.draws is None and tape.at == 0
    assert rng.random() == np.random.default_rng(71).random()


def test_dropout_backward_uses_same_mask():
    rng = np.random.default_rng(15)
    store = f64_store(15)
    w = store.add("w", (6,))
    store.allocate()
    w.value[...] = np.random.default_rng(2).normal(size=6)

    def loss_fn(tape):
        # Seed the tape's stream per call, so every probe draws the same mask.
        tape.rng, tape.rate = np.random.default_rng(99), 0.5
        return masked_nll(tape, dropout(tape, w), 0, [0, 1, 2, 3, 4, 5])

    report = grad_check(loss_fn, store, tolerance=1e-6)
    assert report.passed, report.summary()


def test_concat_and_relu_and_add_n_gradients():
    store = f64_store(16)
    a = store.add("a", (3,))
    b = store.add("b", (2,))
    store.allocate()
    a.value[...] = [0.5, -1.0, 2.0]
    b.value[...] = [1.5, -0.25]

    def loss_fn(tape):
        joined = concat(tape, [relu(tape, a), relu(tape, b)])
        return masked_nll(tape, joined, 0, [0, 1, 2, 3, 4])

    report = grad_check(loss_fn, store, tolerance=1e-6)
    assert report.passed, report.summary()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_untaped_ops_match_the_taped_ops_bitwise(monkeypatch, dtype):
    """Without a tape every op runs forward-only on plain arrays, over one
    vector or B rows, records nothing, and gives for each row bitwise what
    the taped op gives for that row alone.  Dropout is the exception: only
    training drops, so it takes a tape, whose rate and stream it uses."""
    store = ParamStore(seed=50, dtype=dtype)
    w = store.add("w", (6, 5), order="F")
    b = store.add("b", (6,))
    cell_w = store.add("cell.weight", (4 * 3, 5 + 3), order="F")
    cell_b = store.add("cell.bias", (4 * 3,))
    table = store.add("table", (7, 5))
    store.allocate()
    ops = {  # name -> (op, widths of its inputs)
        "linear": (lambda tape, x: linear(tape, w, b, x), [5]),
        "relu": (relu, [5]),
        "concat": (lambda tape, x, y: concat(tape, [x, y]), [5, 3]),
        "lstm_cell": (lambda tape, x, h, c: lstm_cell(tape, cell_w, cell_b, x, h, c), [5, 3, 3]),
        "embedding_lookup": (lambda tape, i: embedding_lookup(tape, table, i), [None]),
    }
    records = []
    monkeypatch.setattr(Tape, "record", lambda tape, fn: records.append(fn))
    rng = np.random.default_rng(50)

    def outputs(result):
        return result if isinstance(result, tuple) else (result,)

    def taped(op, widths, inputs):
        tape = Tape()
        wrapped = [x if width is None else Var(x) for x, width in zip(inputs, widths)]
        return [out.value for out in outputs(op(tape, *wrapped))]

    for name, (op, widths) in ops.items():
        for batch in range(1, 6):
            rows = [rng.integers(0, 7, size=batch) if width is None
                    else rng.normal(size=(batch, width)).astype(dtype) for width in widths]
            for inputs in ([r[0] for r in rows], rows):
                before = len(records)
                untaped = outputs(op(None, *inputs))
                assert len(records) == before, name
                assert all(type(out) is np.ndarray for out in untaped), name
                if inputs is rows:
                    for i in range(batch):
                        expected = taped(op, widths, [r[i] for r in rows])
                        for out, want in zip(untaped, expected):
                            assert np.array_equal(out[i], want), (name, batch, i)
                else:
                    for out, want in zip(untaped, taped(op, widths, inputs)):
                        assert np.array_equal(out, want), (name, batch)


def test_determinism_of_initialization():
    a = ParamStore(seed=42, dtype=np.float32)
    b = ParamStore(seed=42, dtype=np.float32)
    c = ParamStore(seed=43, dtype=np.float32)
    pa = a.add("w", (8, 8))
    pb = b.add("w", (8, 8))
    pc = c.add("w", (8, 8))
    for store in (a, b, c):
        store.allocate()
    assert np.array_equal(pa.value, pb.value)
    assert not np.array_equal(pc.value, pa.value)


# ---------------------------------------------------------------------------
# Checkpoint container


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    arrays = {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=7).astype(np.float32),
        "mask": np.array([1, 0, 1], dtype=np.uint8),
    }
    meta = {"kind": "test", "nested": {"x": 1}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr)


def test_checkpoint_bytes_deterministic(tmp_path):
    arrays = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, {"seed": 5})
    save_checkpoint(p2, arrays, {"seed": 5})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n{}\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _write_checkpoint(path, header, payload=b""):
    path.write_bytes(b"FRAMEPARSE-CKPT\n" + json.dumps(header).encode("utf-8") + b"\n" + payload)
    return path


_GOOD_ENTRY = {"name": "w", "dtype": "<f4", "shape": [2, 3], "nbytes": 24}


@pytest.mark.parametrize(
    "header",
    [
        pytest.param({"version": 1, "meta": {}}, id="no-arrays"),
        pytest.param({"version": 1, "meta": {}, "arrays": [dict(_GOOD_ENTRY, nbytes=20)]},
                     id="nbytes-not-shape-times-itemsize"),
        pytest.param([1, {"arrays": []}], id="header-not-a-dict"),
        pytest.param({"version": 1, "meta": {},
                      "arrays": [{k: v for k, v in _GOOD_ENTRY.items() if k != "dtype"}]},
                     id="entry-missing-key"),
        pytest.param({"version": 1, "meta": {},
                      "arrays": [dict(_GOOD_ENTRY, dtype="(2,)f4", shape=[3])]},
                     id="subarray-dtype"),
        pytest.param({"version": 1, "meta": {},
                      "arrays": [dict(_GOOD_ENTRY, dtype="<U3", shape=[2])]},
                     id="string-dtype"),
    ],
)
def test_checkpoint_rejects_malformed_header(tmp_path, header):
    path = _write_checkpoint(tmp_path / "bad.ckpt", header, bytes(24))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
