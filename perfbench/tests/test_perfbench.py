"""Tests of the benchmark itself: generator determinism, tracer
transparency, lap calibration, the committed model's integrity, and the
printed metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frameparse import metrics, rnng, transitions
from frameparse.dataset import build_vocabs
from frameparse.neural.core import Tape
from frameparse.preprocess import TokenNormalizer
from frameparse.trees import depth, parse_bracketed
from perfbench import corpus_gen, decode_model
from perfbench.calibration import LapTimer
from perfbench.tracer import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_generator_is_deterministic_per_seed():
    first = corpus_gen.generate_trees(corpus_gen.STREAM_HELDOUT, 3, 300)
    again = corpus_gen.generate_trees(corpus_gen.STREAM_HELDOUT, 3, 300)
    other_seed = corpus_gen.generate_trees(corpus_gen.STREAM_HELDOUT, 4, 300)
    other_stream = corpus_gen.generate_trees(corpus_gen.STREAM_TRAIN, 3, 300)
    assert first == again
    assert first != other_seed
    assert first != other_stream
    reordered = corpus_gen.stratified(first)
    assert sorted(map(id, reordered)) == sorted(map(id, first))
    assert reordered == corpus_gen.stratified(again)


def test_generated_corpus_has_the_paper_shape():
    trees = corpus_gen.generate_trees(corpus_gen.STREAM_CORPUS, 0, corpus_gen.MIN_CHECKED)
    stats = corpus_gen.check_shape(corpus_gen.as_corpus(trees))
    assert stats["intent_label_count"] == 25 and stats["slot_label_count"] == 36
    assert any(depth(t) >= 3 for t in trees)  # intents nest under slots


def test_shape_check_rejects_drift():
    trees = corpus_gen.generate_trees(corpus_gen.STREAM_CORPUS, 0, 3 * corpus_gen.MIN_CHECKED)
    shallow = [t for t in trees if depth(t) <= 2][: corpus_gen.MIN_CHECKED]
    with pytest.raises(corpus_gen.ShapeDrift):
        corpus_gen.check_shape(corpus_gen.as_corpus(shallow))


def test_beam_file_is_deterministic_and_its_expected_scores_hold(tmp_path):
    trees = corpus_gen.generate_trees(corpus_gen.STREAM_CORPUS, 2, 400)
    texts = corpus_gen.write_tsv(tmp_path / "test.tsv", trees)
    expected = corpus_gen.write_beam_file(tmp_path / "a.txt", texts, 9)
    corpus_gen.write_beam_file(tmp_path / "b.txt", texts, 9)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    beams, top_lines = metrics.read_beam_file(tmp_path / "a.txt")
    report = metrics.evaluate(trees, [b[0] for b in beams], raw_lines=top_lines,
                              beams=beams, top_ks=(1, 3, 5))
    assert report.exact_match == expected["exact_match"]
    assert report.top_k == expected["top_k"]
    assert report.tree_validity == expected["tree_validity"]
    assert 0 < report.tree_validity < 100  # malformed lines are present
    assert [parse_bracketed(t) for t in texts] == trees


class _FixedScale:
    @staticmethod
    def factor() -> float:
        return 2.0


def test_lap_timer_scales_each_lap_and_its_latencies():
    timer = LapTimer(_FixedScale())
    timer.record(100)
    timer.lap()
    timer.record(7)
    timer.lap()
    assert timer.latencies_ns == [200, 14]
    assert timer.scaled_ns == 2 * timer.raw_ns > 0


def _small_model(seed=5):
    trees = corpus_gen.generate_trees(corpus_gen.STREAM_TRAIN, seed, 40)
    corpus = corpus_gen.as_corpus(trees)
    vocab, intents, slots = build_vocabs(corpus)
    config = rnng.RnngConfig(word_dim=8, label_dim=4, action_dim=4, lstm_units=8,
                             lstm_layers=2, seed=seed)
    model = rnng.Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    return model, corpus


def _work(model, corpus):
    losses = rnng.train(model, corpus, epochs=1, rng=np.random.default_rng(0))
    utterances = [e.tokens for e in corpus.examples[:8]]
    greedy = [rnng.parse_greedy(model, tokens) for tokens in utterances]
    beam = [rnng.parse_beam(model, tokens, 3) for tokens in utterances]
    return losses, greedy, beam


def test_tracer_is_transparent_and_restores_the_package():
    originals = (rnng.parse_greedy, rnng.apply, transitions.valid_actions, Tape.record,
                 rnng.Hypothesis.clone)
    plain = _work(*_small_model())
    tracer = Tracer()
    with tracer.installed():
        assert rnng.parse_greedy is not originals[0]
        traced = _work(*_small_model())
    assert traced == plain
    assert (rnng.parse_greedy, rnng.apply, transitions.valid_actions, Tape.record,
            rnng.Hypothesis.clone) == originals

    summary = tracer.summary()
    assert set(summary) == set(SPAN_NAMES)
    for name in ("neural.lstm_cell.fwd", "neural.lstm_cell.bwd", "neural.linear.bwd",
                 "neural.adam_step", "rnng.hypothesis_clone", "rnng.reduce_compose",
                 "transitions.valid_actions"):
        assert summary[name]["calls"] > 0, name
    assert summary["neural.unattributed.bwd"]["calls"] == 0
    # Self times partition the time of the top-level spans.
    top_ms = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent < 0) / 1e6
    self_ms = sum(s["self_ms"] for s in summary.values())
    assert self_ms == pytest.approx(top_ms, rel=1e-9)
    names = {span_id: name for span_id, name, *_ in tracer.spans}
    for _, name, _, _, parent, _ in tracer.spans:
        if name.endswith(".bwd"):
            assert names[parent] == "neural.tape.backward"


def test_decode_model_digest_is_checked(tmp_path):
    model = decode_model.load()
    assert model.store.num_values() > 1_000_000
    for name in (decode_model.NPZ_NAME, decode_model.META_NAME):
        shutil.copy(decode_model.MODEL_DIR / name, tmp_path / name)
    blob = bytearray((tmp_path / decode_model.NPZ_NAME).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (tmp_path / decode_model.NPZ_NAME).write_bytes(bytes(blob))
    with pytest.raises(decode_model.ModelIntegrityError):
        decode_model.load(tmp_path)


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run("--workload", "train", "--seed", "0", "--seconds", "0.1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
