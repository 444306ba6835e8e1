"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import synth
from frameparse import cli, metrics, rnng
from frameparse.dataset import Split, Vocab, build_vocabs, compute_stats, load_tsv
from frameparse.neural import (
    BiLstmEncoder,
    Lstm,
    ParamStore,
    Var,
    add_n,
    concat,
    dropout,
    embedding_lookup,
    grad_check,
    linear,
    masked_nll,
    relu,
)
from frameparse.preprocess import TokenNormalizer
from frameparse.transitions import execute, oracle
from frameparse.trees import intent, parse_bracketed, serialize, slot, validate

TOLERANCE = 1e-4


def report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. Oracle roundtrip: 10,000 random valid trees in under 10 seconds.


def test_oracle_roundtrip_10k():
    rng = np.random.default_rng(12345)
    start = time.time()
    failures = 0
    for _ in range(10_000):
        tree = synth.random_valid_tree(rng, max_tokens=20, max_depth=8)
        if execute(oracle(tree), tree.tokens) != tree:
            failures += 1
    elapsed = time.time() - start
    assert failures == 0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report("oracle-roundtrip", f"10000 trees, 0 failures, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Mask soundness/completeness by exhaustive enumeration.


def test_mask_soundness_completeness():
    from test_transitions import _all_completions

    intents = [intent("X")]
    slots = [slot("Y")]
    finished = _all_completions(("a", "b"), intents, slots, max_len=9)
    derived = set()
    for state, _history in finished:
        from frameparse.trees import Tree

        tree = Tree(state.root)
        assert validate(tree) == [], serialize(tree)
        derived.add(serialize(tree))
    expected = oracles.enumerate_valid_trees(("a", "b"), intents, slots, max_nts=3)
    assert derived == expected
    report("mask-soundness-completeness", f"{len(derived)} trees on both routes")


# ---------------------------------------------------------------------------
# 3. Metric oracle equivalence on 100 random pairs.


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(777)
    gold, pred = [], []
    for _ in range(100):
        tree = synth.random_valid_tree(rng, max_tokens=10)
        gold.append(tree)
        roll = rng.random()
        if roll < 0.15:
            pred.append(None)
        elif roll < 0.45:
            pred.append(tree)
        else:
            pred.append(
                synth.random_valid_tree(rng, vocab=tree.tokens, max_tokens=len(tree.tokens))
            )
    # Integer match counts must agree exactly, per pair.
    for g, p in zip(gold, pred):
        if p is None:
            continue
        fast_br = sum((metrics.bracket_items(g) & metrics.bracket_items(p)).values())
        slow_br = oracles.match_count(
            [tuple(i) for i in oracles.brute_spans(p)],
            [tuple(i) for i in oracles.brute_spans(g)],
        )
        assert fast_br == slow_br
        fast_tl = sum((metrics.subtree_items(g) & metrics.subtree_items(p)).values())
        slow_tl = oracles.match_count(
            oracles.brute_subtree_items(p), oracles.brute_subtree_items(g)
        )
        assert fast_tl == slow_tl
    for fast, extract in (
        (metrics.bracket_prf(gold, pred),
         lambda t: [tuple(i) for i in oracles.brute_spans(t)]),
        (metrics.tree_labeled_prf(gold, pred), oracles.brute_subtree_items),
    ):
        slow = oracles.brute_prf(gold, pred, extract)
        for a, b in zip(fast, slow):
            assert abs(a - b) <= 1e-12
    report("metric-oracle-equivalence", "100 pairs, exact counts, F1 within 1e-12")


# ---------------------------------------------------------------------------
# 4. Identity scoring.


def test_identity_scoring():
    rng = np.random.default_rng(55)
    gold = [synth.random_valid_tree(rng, max_tokens=12) for _ in range(50)]
    rep = metrics.evaluate(gold, gold, raw_lines=[serialize(t) for t in gold])
    assert rep.exact_match == 100.0
    assert rep.bracket_f1 == 100.0 and rep.bracket_precision == 100.0
    assert rep.tl_f1 == 100.0 and rep.tl_recall == 100.0
    assert rep.tree_validity == 100.0
    report("identity-scoring", "exact/F1/TL-F1/validity all 100.00")


# ---------------------------------------------------------------------------
# 5. The derived metric example: dropped-label relabeling.


def test_derived_metric_example():
    nested = (
        "[IN:GET_DIRECTIONS Driving directions to "
        "[SL:DESTINATION [IN:GET_EVENT the [SL:NAME_EVENT Eagles ] [SL:CAT_EVENT game ] ] ] ]"
    )
    relabeled = nested.replace("SL:CAT_EVENT", "SL:NAME_EVENT")
    gold = [parse_bracketed(nested)]
    pred = [parse_bracketed(relabeled)]
    bp, br, _ = metrics.bracket_prf(gold, pred)
    tp, tr, _ = metrics.tree_labeled_prf(gold, pred)
    assert (bp, br) == (80.0, 80.0)
    assert (tp, tr) == (20.0, 20.0)
    report("derived-metric-example", "bracket 80.0/80.0, TL 20.0/20.0 exactly")


# ---------------------------------------------------------------------------
# 6. Gradient checks: every layer type plus the full training step,
#    20 random seeds each, 1e-4 relative tolerance in float64.


def _check_layer(builder, seed: int):
    store = ParamStore(seed=seed, dtype=np.float64)
    loss_fn = builder(store, np.random.default_rng(seed))
    store.allocate()
    rep = grad_check(loss_fn, store, tolerance=TOLERANCE)
    assert rep.passed, f"seed {seed}: {rep.summary()}"
    return rep.max_rel_err


def _linear_relu_builder(store, rng):
    # Dimensions drawn per configuration.
    d_in, d_hid = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    w1 = store.add("w1", (d_hid, d_in))
    b1 = store.add("b1", (d_hid,))
    w2 = store.add("w2", (3, d_hid))
    x = rng.normal(size=d_in)

    def loss_fn(tape):
        hidden = relu(tape, linear(tape, w1, b1, Var(x.copy())))
        return masked_nll(tape, linear(tape, w2, None, hidden), 1, [0, 1, 2])

    return loss_fn


def _embedding_builder(store, rng):
    rows, dim = int(rng.integers(3, 9)), int(rng.integers(2, 6))
    table = store.add("emb", (rows, dim))
    w = store.add("w", (3, 2 * dim))
    i, j = int(rng.integers(rows)), int(rng.integers(rows))

    def loss_fn(tape):
        pair = concat(tape, [embedding_lookup(tape, table, i), embedding_lookup(tape, table, j)])
        return masked_nll(tape, linear(tape, w, None, pair), 2, [0, 1, 2])

    return loss_fn


def _lstm_builder(store, rng):
    d_in = int(rng.integers(2, 5))
    hidden = int(rng.integers(2, 6))
    layers = int(rng.integers(1, 3))
    steps = int(rng.integers(1, 7))
    lstm = Lstm(store, "lstm", d_in, hidden, layers)
    xs = rng.normal(size=(steps, d_in))

    def loss_fn(tape):
        outs = [lstm.output(s) for s in lstm.run(tape, [Var(v.copy()) for v in xs])]
        return masked_nll(tape, add_n(tape, outs), 1, list(range(hidden)))

    return loss_fn


def _bilstm_builder(store, rng):
    d_in = int(rng.integers(2, 5))
    hidden = int(rng.integers(2, 6))
    out = int(rng.integers(2, 6))
    steps = int(rng.integers(1, 6))
    enc = BiLstmEncoder(store, "enc", d_in, hidden, out)
    xs = rng.normal(size=(steps, d_in))

    def loss_fn(tape):
        summary = enc.encode(tape, [[Var(v.copy()) for v in xs]])
        return masked_nll(tape, summary, 0, list(range(out)))

    return loss_fn


def _softmax_builder(store, rng):
    logits = store.add("logits", (8,), init="zeros")
    store.allocate()
    logits.value[...] = rng.normal(size=8)
    mask = sorted(rng.choice(8, size=5, replace=False).tolist())
    gold = int(mask[int(rng.integers(len(mask)))])

    def loss_fn(tape):
        return masked_nll(tape, logits, gold, mask)

    return loss_fn


def _dropout_builder(store, rng):
    w = store.add("w", (3, 6))
    x = rng.normal(size=6)
    mask_seed = int(rng.integers(1 << 30))

    def loss_fn(tape):
        # Seed the tape's stream per call, so every probe draws the same mask.
        tape.rng, tape.rate = np.random.default_rng(mask_seed), 0.4
        dropped = dropout(tape, Var(x.copy()))
        return masked_nll(tape, linear(tape, w, None, dropped), 0, [0, 1, 2])

    return loss_fn


LAYER_BUILDERS = (
    ("linear+relu", _linear_relu_builder),
    ("embedding", _embedding_builder),
    ("lstm", _lstm_builder),
    ("bilstm-compose", _bilstm_builder),
    ("masked-softmax", _softmax_builder),
    ("dropout", _dropout_builder),
)


def test_gradients_every_layer_twenty_seeds():
    worst = 0.0
    for name, builder in LAYER_BUILDERS:
        for seed in range(20):
            worst = max(worst, _check_layer(builder, seed))
    assert worst <= TOLERANCE
    report("gradients-layers", f"6 layer types x 20 seeds, worst rel err {worst:.2e}")


def test_gradients_full_step_twenty_seeds():
    # Tiny config: dims <= 8, an inventory of 2 labels, a 3-token utterance.
    tree = parse_bracketed("[IN:SET turn [SL:WHAT the lights ] ]")
    actions = oracle(tree)
    vocab = Vocab(("<UNK>", "<NUM>", "turn", "the", "lights"))
    worst = 0.0
    for seed in range(20):
        config = rnng.RnngConfig(
            word_dim=8, label_dim=6, action_dim=5, lstm_units=7, lstm_layers=2,
            dropout=0.0, seed=seed, precision="f64",
        )
        model = rnng.Model(config, vocab, (intent("SET"),), (slot("WHAT"),),
                           TokenNormalizer(frozenset(vocab.symbols)))

        def loss_fn(tape):
            return rnng.example_loss(model, tree.tokens, actions, tape)

        rep = grad_check(loss_fn, model.store, tolerance=TOLERANCE,
                         max_coords_per_param=4, rng=np.random.default_rng(seed))
        assert rep.passed, f"seed {seed}: {rep.summary()}"
        worst = max(worst, rep.max_rel_err)
    report("gradients-full-step", f"20 seeds, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 7 & 8. Learnability and the ablation direction (same corpus and budget).

LEARN_SEED = 42
MAX_EPOCHS = 50
CHUNK = 5


@pytest.fixture(scope="module")
def learnability_run():
    corpus = synth.learnable_corpus(seed=7, size=200)
    vocab, intents_, slots_ = build_vocabs(corpus)
    assert len(intents_) == 5 and len(slots_) == 8
    assert len(synth.synthetic_vocabulary()) == 60
    config = rnng.RnngConfig(
        word_dim=32, label_dim=32, action_dim=32, lstm_units=64, lstm_layers=2,
        seed=LEARN_SEED,
    )
    model = rnng.Model(config, vocab, intents_, slots_,
                       TokenNormalizer(frozenset(vocab.symbols)))
    rng = np.random.default_rng([config.seed, 1])
    start = time.time()
    epochs_used = 0
    em = 0.0
    while epochs_used < MAX_EPOCHS:
        rnng.train(model, corpus, epochs=CHUNK, rng=rng)
        epochs_used += CHUNK
        em = rnng.exact_match_rate(model, corpus.examples)
        if em >= 0.96:
            break
    elapsed = time.time() - start
    return {
        "corpus": corpus, "vocab": vocab, "intents": intents_, "slots": slots_,
        "model": model, "epochs": epochs_used, "em": em, "seconds": elapsed,
    }


def test_learnability(learnability_run):
    run = learnability_run
    assert run["epochs"] <= MAX_EPOCHS
    assert run["seconds"] < 600.0, f"took {run['seconds']:.0f}s"
    assert run["em"] >= 0.95, f"exact match {run['em']:.3f} after {run['epochs']} epochs"
    predictions = [serialize(rnng.parse_greedy(run["model"], e.tokens)[0])
                   for e in run["corpus"].examples]
    assert metrics.tree_validity(predictions) == 100.0
    report(
        "learnability",
        f"train EM {100 * run['em']:.1f}% after {run['epochs']} epochs "
        f"in {run['seconds']:.0f}s, validity 100.0",
    )


def test_ablation_direction(learnability_run):
    run = learnability_run
    config = rnng.RnngConfig(
        word_dim=32, label_dim=32, action_dim=32, lstm_units=64, lstm_layers=2,
        seed=LEARN_SEED, use_buffer=False,
    )
    ablated = rnng.Model(config, run["vocab"], run["intents"], run["slots"],
                         TokenNormalizer(frozenset(run["vocab"].symbols)))
    rng = np.random.default_rng([config.seed, 1])
    rnng.train(ablated, run["corpus"], epochs=run["epochs"], rng=rng)
    ablated_em = rnng.exact_match_rate(ablated, run["corpus"].examples)
    assert ablated_em < run["em"], (
        f"ablated {ablated_em:.3f} not below full {run['em']:.3f}"
    )
    report(
        "ablation-direction",
        f"no-buffer EM {100 * ablated_em:.1f}% < full {100 * run['em']:.1f}% "
        f"at {run['epochs']} epochs",
    )


# ---------------------------------------------------------------------------
# 9. Beam coherence.


def test_beam_coherence(learnability_run):
    # parse_beam(.., 1) == parse_greedy on 1000 random inputs.
    config = rnng.RnngConfig(
        word_dim=8, label_dim=6, action_dim=5, lstm_units=9, lstm_layers=2,
        dropout=0.0, seed=3, precision="f32",
    )
    vocab = Vocab(("<UNK>", "<NUM>", "turn", "the", "lights", "off", "up", "down"))
    model = rnng.Model(config, vocab, (intent("SET"), intent("GET")),
                       (slot("WHAT"), slot("HOW")),
                       TokenNormalizer(frozenset(vocab.symbols)))
    rng = np.random.default_rng(999)
    words = [w for w in vocab.symbols if not w.startswith("<")]
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        tokens = tuple(words[int(rng.integers(len(words)))] for _ in range(n))
        g_tree, g_score = rnng.parse_greedy(model, tokens)
        beam = rnng.parse_beam(model, tokens, 1)
        assert len(beam) == 1 and beam[0][0] == g_tree and beam[0][1] == g_score

    # Top-1 <= Top-3 <= Top-5 and score recomputation on a trained model.
    trained = learnability_run["model"]
    examples = learnability_run["corpus"].examples[:100]
    gold = [e.tree for e in examples]
    beams = []
    max_gap = 0.0
    for example in examples:
        results = rnng.parse_beam(trained, example.tokens, 5)
        for tree, score in results:
            again = oracles.reference_score_actions(trained, example.tokens, oracle(tree))
            max_gap = max(max_gap, abs(again - score))
        beams.append([tree for tree, _ in results])
    assert max_gap <= 1e-6, f"score recompute gap {max_gap:.2e}"
    accs = [metrics.top_k_accuracy(gold, beams, k) for k in (1, 3, 5)]
    assert accs[0] <= accs[1] <= accs[2]
    report(
        "beam-coherence",
        f"1000 greedy==beam(1); top-1/3/5 {accs[0]:.1f}/{accs[1]:.1f}/{accs[2]:.1f}; "
        f"max score gap {max_gap:.1e}",
    )


# ---------------------------------------------------------------------------
# 10. Corpus statistics on the released dataset (conditional).

DATASET_DIR = os.environ.get("TOP_DATASET_DIR", "")


@pytest.mark.skipif(
    not (DATASET_DIR and Path(DATASET_DIR, "train.tsv").exists()),
    reason="released corpus not available; set TOP_DATASET_DIR to its directory",
)
def test_released_corpus_stats():
    splits = {
        "train.tsv": (Split.TRAIN, 31279),
        "eval.tsv": (Split.VALID, 4462),
        "test.tsv": (Split.TEST, 9042),
    }
    all_examples = []
    for filename, (split, expected_count) in splits.items():
        corpus = load_tsv(Path(DATASET_DIR, filename), split=split, strict=False)
        assert len(corpus) == expected_count, f"{filename}: {len(corpus)}"
        all_examples.extend(corpus.examples)
    from frameparse.dataset import Corpus

    stats = compute_stats(Corpus(examples=all_examples))
    assert stats.median_depth == 2
    assert abs(stats.mean_depth - 2.54) <= 0.01
    assert abs(stats.fraction_depth_gt_2 - 0.35) <= 0.01
    assert stats.median_length == 8
    assert abs(stats.mean_length - 8.93) <= 0.01
    assert stats.intent_label_count == 25
    assert stats.slot_label_count == 36
    report("released-corpus-stats", f"{stats.count} examples match the published statistics")


# ---------------------------------------------------------------------------
# 11. Determinism: identical train runs produce bit-identical checkpoints.


def test_train_determinism(tmp_path):
    corpus = synth.learnable_corpus(seed=31, size=24)
    tsv = tmp_path / "d.tsv"
    synth.write_tsv(tsv, corpus)
    flags = [
        "--word-dim", "8", "--label-dim", "6", "--action-dim", "5",
        "--lstm-units", "9", "--lstm-layers", "2", "--epochs", "2", "--seed", "17",
    ]
    paths = [tmp_path / "run1.ckpt", tmp_path / "run2.ckpt"]
    for path in paths:
        assert cli.main(["train", str(tsv), "-o", str(path)] + flags) == 0
    b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
    assert b1 == b2
    report("train-determinism", f"two runs, {len(b1)} identical bytes")
