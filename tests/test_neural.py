import gc
import json
import math
import weakref

import numpy as np
import pytest

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
    grad_check,
    linear,
    load_checkpoint,
    lstm_cell,
    masked_log_probs,
    masked_nll,
    relu,
    save_checkpoint,
)


def f64_store(seed=0):
    return ParamStore(seed=seed, dtype=np.float64)


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_zero_everything_gives_zero_hiddens():
    store = f64_store()
    lstm = Lstm(store, "lstm", 3, 4, 2, forget_bias=1.0)
    inputs = [Var(np.zeros(3)) for _ in range(5)]
    outputs = [lstm.output(s) for s in lstm.run(Tape(), inputs)]
    assert len(outputs) == len(inputs)
    for out in outputs:
        assert np.allclose(out.value, 0.0)


def test_lstm_scalar_step_hand_computed():
    store = f64_store()
    lstm = Lstm(store, "lstm", 1, 1, 1, forget_bias=0.0)
    weight, bias, _, _ = lstm.layers[0]
    # Gate rows: input, forget, candidate, output; columns: [x, h].
    weight.value[...] = np.array([[0.5, 0.1], [0.3, 0.2], [1.0, -0.5], [0.25, 0.4]])
    bias.value[...] = np.array([0.1, 0.2, -0.2, 0.05])
    state = lstm.step(Tape(), Var(np.array([1.0])), lstm.initial())
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
    for n in (1, 4, 9):
        inputs = [Var(np.random.default_rng(n).normal(size=2)) for _ in range(n)]
        assert len(lstm.run(Tape(), inputs)) == n


def test_lstm_dimension_mismatch():
    store = f64_store()
    lstm = Lstm(store, "lstm", 3, 4, 1)
    with pytest.raises(DimensionMismatch):
        lstm.step(Tape(), Var(np.zeros(5)), lstm.initial())


def test_lstm_cell_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    store = f64_store(4)
    lstm = Lstm(store, "lstm", 3, 4, 2)
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
    inputs = [Var(np.random.default_rng(i).normal(size=3)) for i in range(4)]
    gc.disable()
    try:
        tape = Tape()
        outs = [lstm.output(s) for s in lstm.run(tape, inputs)]
        loss = masked_nll(tape, linear(tape, scorer, None, outs[-1]), 1, [0, 1, 2, 3])
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
    summary_a = enc_a.encode(Tape(), xs)
    summary_b = enc_b.encode(Tape(), list(reversed(xs)))
    assert np.allclose(summary_a.value, summary_b.value)


def test_bilstm_zero_params_zero_summary():
    store = f64_store()
    enc = BiLstmEncoder(store, "enc", 3, 4, 6)
    for name in store:
        store[name].value[...] = 0.0
    out = enc.encode(Tape(), [Var(np.random.default_rng(2).normal(size=3)) for _ in range(3)])
    assert np.allclose(out.value, 0.0)


def test_bilstm_empty_sequence():
    store = f64_store()
    enc = BiLstmEncoder(store, "enc", 3, 4, 6)
    with pytest.raises(EmptySequence):
        enc.encode(Tape(), [])


def test_bilstm_gradients():
    store = f64_store(7)
    enc = BiLstmEncoder(store, "enc", 3, 4, 5)
    rng = np.random.default_rng(7)
    values = rng.normal(size=(4, 3))

    def loss_fn(tape):
        out = enc.encode(tape, [Var(v.copy()) for v in values])
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


def test_masked_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    store = f64_store(8)
    logits_param = store.add("logits", (7,), init="zeros")
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
    before = param.value.copy()
    store.zero_grad()
    store.adam_step(lr=0.1, weight_decay=0.0)
    assert np.array_equal(param.value, before)


def test_adam_single_step_hand_computed():
    store = f64_store()
    param = store.add("w", (1,), init="zeros")
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
    param = store.add("w", (1,), init="zeros")
    param.value[...] = 2.0
    param.grad[...] = 0.0
    store.adam_step(lr=0.01, weight_decay=0.1)
    assert param.value[0] == pytest.approx(2.0 - 0.01 * 0.1 * 2.0, abs=1e-15)


def test_adam_optimizes_quadratic():
    store = f64_store(10)
    param = store.add("xy", (2,), init="zeros")
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
    for name in store:
        assert np.array_equal(store[name].m, dense[name]["m"]), name
        assert np.array_equal(store[name].v, dense[name]["v"]), name
        assert np.array_equal(store[name].value, dense[name]["value"]), name


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
    rng = np.random.default_rng(12)
    x = rng.normal(size=3)

    def loss_fn(tape):
        return _sum_to_scalar(tape, linear(tape, w, None, Var(x.copy())))

    # Linearity means central differences have zero truncation error, so a
    # large step leaves only negligible roundoff.
    report = grad_check(loss_fn, store, tolerance=1e-9, step=0.25)
    assert report.passed, report.summary()


def test_grad_check_detects_corruption():
    store = f64_store(13)
    w = store.add("w", (4, 3))
    x = np.random.default_rng(13).normal(size=3)

    def loss_fn(tape):
        return masked_nll(tape, linear(tape, w, None, Var(x.copy())), 0, [0, 1, 2, 3])

    report = grad_check(loss_fn, store, corrupt_param="w")
    assert not report.passed
    assert report.worst.name == "w"


# ---------------------------------------------------------------------------
# Dropout and misc ops


def test_dropout_zero_rate_is_identity():
    x = Var(np.random.default_rng(1).normal(size=50))
    out = dropout(Tape(), x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_mask_values_and_expectation():
    rng = np.random.default_rng(14)
    x = Var(np.ones(20000))
    out = dropout(Tape(), x, 0.34, rng)
    kept = out.value[out.value != 0.0]
    assert np.allclose(kept, 1.0 / (1.0 - 0.34))
    assert out.value.mean() == pytest.approx(1.0, abs=0.02)


def test_dropout_backward_uses_same_mask():
    rng = np.random.default_rng(15)
    store = f64_store(15)
    w = store.add("w", (6,), init="zeros")
    w.value[...] = np.random.default_rng(2).normal(size=6)

    def loss_fn(tape):
        # Reseed per call so every forward draws the identical mask.
        local = np.random.default_rng(99)
        return masked_nll(tape, dropout(tape, w, 0.5, local), 0, [0, 1, 2, 3, 4, 5])

    report = grad_check(loss_fn, store, tolerance=1e-6)
    assert report.passed, report.summary()


def test_concat_and_relu_and_add_n_gradients():
    store = f64_store(16)
    a = store.add("a", (3,), init="zeros")
    b = store.add("b", (2,), init="zeros")
    a.value[...] = [0.5, -1.0, 2.0]
    b.value[...] = [1.5, -0.25]

    def loss_fn(tape):
        joined = concat(tape, [relu(tape, a), relu(tape, b)])
        return masked_nll(tape, joined, 0, [0, 1, 2, 3, 4])

    report = grad_check(loss_fn, store, tolerance=1e-6)
    assert report.passed, report.summary()


def test_determinism_of_initialization():
    a = ParamStore(seed=42, dtype=np.float32)
    b = ParamStore(seed=42, dtype=np.float32)
    pa = a.add("w", (8, 8))
    pb = b.add("w", (8, 8))
    assert np.array_equal(pa.value, pb.value)
    c = ParamStore(seed=43, dtype=np.float32)
    assert not np.array_equal(c.add("w", (8, 8)).value, pa.value)


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
    ],
)
def test_checkpoint_rejects_malformed_header(tmp_path, header):
    path = _write_checkpoint(tmp_path / "bad.ckpt", header, bytes(24))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
