"""The benchmark's four workloads.

Each is a closed loop with one caller, which is how the CLI and the library
are used.  A workload's inputs come from its seed alone.  ``run_unit(k)``
does the k-th unit of work and times each operation in it; ``check_unit``
then checks the outputs, outside the timed region and outside any tracing.

* ``train``: per-example ``rnng.train`` of a fresh default-config model.
* ``parse-greedy``: ``rnng.parse_greedy`` with the committed decode model.
* ``parse-beam5``: ``rnng.parse_beam(k=5)`` with the same model and inputs.
* ``corpus``: the text pipeline over a 44,783-tree corpus, no neural work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from frameparse import dataset, metrics, rnng, transitions, trees
from frameparse.dataset import Corpus, Split
from frameparse.preprocess import TokenNormalizer

from . import corpus_gen, decode_model
from .calibration import Calibration, LapTimer, NoCalibration

BEAM_WIDTH = 5
POOL = corpus_gen.MIN_CHECKED  # generated inputs per decode/train workload


@dataclass
class UnitRun:
    ops: int
    latencies_ns: list  # one per operation
    busy_ns: float  # timed work of the whole unit
    output: object
    raw_busy_ns: float = None  # before a unit's own calibration, if any

    def __post_init__(self):
        if self.raw_busy_ns is None:
            self.raw_busy_ns = self.busy_ns


@dataclass
class UnitCheck:
    failed: int
    problems: list = field(default_factory=list)
    quality: list = field(default_factory=list)  # per-op quality samples


def decoded_tree_problem(tree, tokens):
    """Why a decoded tree is unacceptable, or None: it must be well formed
    and yield exactly the input tokens."""
    violations = trees.validate(tree)
    if violations:
        return f"invalid tree: {violations[0]}"
    if tree.tokens != tuple(tokens):
        return "tree does not yield its input tokens"
    return None


class Workload:
    name = ""
    prefix = ""  # of the workload-specific metric names
    unit_name = "ops"
    min_ops = 1  # the timed loop never stops before this many operations
    setups = 5  # set-ups per run; setup_s is their median
    quality_ops = 0  # quality is measured over this fixed prefix of operations
    quality_name = ""
    quality_unit = ""
    quality_floor = None  # a lower quality fails the run
    tail_pct = 99
    trace_units = 1  # units in one traced pass
    warmup_units = 1  # untimed units run at the end of set-up
    calibrated = True  # the harness scales timed windows by the reference kernel

    def __init__(self, calibration: Calibration):
        self.calibration = calibration

    def setup(self, seed: int, workdir: Path, timer: LapTimer) -> None:
        """Build the inputs and warm up; ``timer`` times set-up, and a
        workload may close a lap of it after each long stage."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the state right after setup (before a traced pass)."""

    def run_unit(self, k: int) -> UnitRun:
        raise NotImplementedError

    def check_unit(self, k: int, output) -> UnitCheck:
        raise NotImplementedError

    def trace_unit(self, k: int) -> UnitRun:
        return self.run_unit(k)

    def check_trace_unit(self, k: int, output) -> UnitCheck:
        return self.check_unit(k, output)

    def warm_up(self) -> None:
        """Untimed units (about a second of work), part of set-up."""
        for k in range(self.warmup_units):
            self.run_unit(k)
        self.reset()


class _Decode(Workload):
    unit_name = "utt"
    quality_unit = "%"
    # The committed model reaches about 98% exact match on held-out input;
    # far less means decoding is broken even if every tree is well formed.
    quality_floor = 90.0

    def setup(self, seed: int, workdir: Path, timer: LapTimer) -> None:
        self.model = decode_model.load()
        timer.lap()
        generated = corpus_gen.generate_trees(corpus_gen.STREAM_HELDOUT, seed, POOL)
        corpus_gen.check_shape(corpus_gen.as_corpus(generated))
        self.gold = corpus_gen.stratified(generated)
        timer.lap()
        self.warm_up()

    def decode(self, tokens) -> list:
        raise NotImplementedError

    def run_unit(self, k: int) -> UnitRun:
        tokens = self.gold[k % POOL].tokens
        start = perf_counter_ns()
        output = self.decode(tokens)
        elapsed = perf_counter_ns() - start
        return UnitRun(1, [elapsed], elapsed, output)

    def check_unit(self, k: int, output) -> UnitCheck:
        gold = self.gold[k % POOL]
        problems = [decoded_tree_problem(tree, gold.tokens) for tree, _ in output]
        problems = [p for p in problems if p]
        if not output:
            problems.append("no parse returned")
        hit = bool(output) and output[0][0] == gold
        return UnitCheck(1 if problems else 0, problems, [100.0 * hit])


class ParseGreedy(_Decode):
    name = "parse-greedy"
    prefix = "greedy"
    min_ops = 1000
    quality_ops = 1000
    quality_name = "exact_match_pct"
    tail_pct = 99
    trace_units = 200
    warmup_units = 100

    def decode(self, tokens) -> list:
        return [rnng.parse_greedy(self.model, tokens)]


class ParseBeam(_Decode):
    name = "parse-beam5"
    prefix = "beam5"
    min_ops = 100
    quality_ops = 100
    quality_name = "top1_exact_match_pct"
    tail_pct = 90
    trace_units = 30
    warmup_units = 20

    def decode(self, tokens) -> list:
        return rnng.parse_beam(self.model, tokens, BEAM_WIDTH)


class Train(Workload):
    name = "train"
    prefix = "train"
    unit_name = "examples"
    min_ops = 100
    quality_ops = 100
    quality_name = "mean_loss"
    quality_unit = "nats"
    tail_pct = 90
    trace_units = 20
    warmup_units = 20

    def setup(self, seed: int, workdir: Path, timer: LapTimer) -> None:
        self.seed = seed
        generated = corpus_gen.generate_trees(corpus_gen.STREAM_TRAIN, seed, POOL)
        corpus = corpus_gen.as_corpus(corpus_gen.stratified(generated), Split.TRAIN)
        corpus_gen.check_shape(corpus)
        self.examples = corpus.examples
        self.vocab, self.intents, self.slots = dataset.build_vocabs(corpus)
        self.reset()
        timer.lap()
        self.warm_up()

    def reset(self) -> None:
        config = rnng.RnngConfig(seed=self.seed)
        normalizer = TokenNormalizer(frozenset(self.vocab.symbols))
        self.model = rnng.Model(config, self.vocab, self.intents, self.slots, normalizer)
        self.rng = np.random.default_rng([config.seed, 1])

    def run_unit(self, k: int) -> UnitRun:
        one = Corpus([self.examples[k % POOL]], Split.TRAIN)
        start = perf_counter_ns()
        (loss,) = rnng.train(self.model, one, epochs=1, rng=self.rng)
        elapsed = perf_counter_ns() - start
        return UnitRun(1, [elapsed], elapsed, loss)

    def check_unit(self, k: int, output) -> UnitCheck:
        if not math.isfinite(output):
            return UnitCheck(1, [f"non-finite loss {output}"], [output])
        return UnitCheck(0, [], [output])


@dataclass
class _CorpusFiles:
    tsv: dict  # split name -> path
    texts: dict  # split name -> bracketed texts as written
    beam: Path
    expected_eval: dict


class CorpusPipeline(Workload):
    """Load, stats, vocab, normalization, oracle/execute round trip,
    serialization, and top-k evaluation of a prediction file.  One unit is
    one pass over the whole corpus; an operation is one tree.  The latency of
    an operation is that tree's oracle -> execute -> serialize round trip.
    A pass scales its own timings, lap by lap (see calibration.LapTimer)."""

    name = "corpus"
    prefix = "corpus"
    unit_name = "trees"
    tail_pct = 99
    trace_units = 1
    TRACE_SCALE = 10  # a traced pass runs over a tenth of every split
    calibrated = False  # a pass calibrates itself
    setups = 3  # each takes about five seconds
    LAP_TREES = 1000  # round trips per lap
    SPLITS = {"train": Split.TRAIN, "eval": Split.VALID, "test": Split.TEST}
    TOP_KS = (1, 3, 5)

    def setup(self, seed: int, workdir: Path, timer: LapTimer) -> None:
        total = sum(n for _, n in corpus_gen.PAPER_SPLITS)
        generated = corpus_gen.generate_trees(corpus_gen.STREAM_CORPUS, seed, total)
        timer.lap()
        corpus_gen.check_shape(corpus_gen.as_corpus(generated))
        timer.lap()
        self.full = self._write(workdir / "full", generated, 1, seed)
        timer.lap()
        self.slice = self._write(workdir / "slice", generated, self.TRACE_SCALE, seed)
        self.min_ops = total
        self._pipeline(self.slice, timer)  # warm-up

    @staticmethod
    def _write(directory: Path, generated, scale: int, seed: int) -> _CorpusFiles:
        directory.mkdir(parents=True, exist_ok=True)
        tsv, texts = {}, {}
        offset = 0
        for split, n in corpus_gen.PAPER_SPLITS:
            tsv[split] = directory / f"{split}.tsv"
            texts[split] = corpus_gen.write_tsv(tsv[split], generated[offset : offset + n // scale])
            offset += n
        beam = directory / "test.top5.txt"
        expected = corpus_gen.write_beam_file(beam, texts["test"], seed)
        return _CorpusFiles(tsv, texts, beam, expected)

    def run_unit(self, k: int) -> UnitRun:
        timer = LapTimer(self.calibration)
        output = self._pipeline(self.full, timer)
        return UnitRun(len(output["round_trips"]), timer.latencies_ns, timer.scaled_ns, output,
                       raw_busy_ns=timer.raw_ns)

    def trace_unit(self, k: int) -> UnitRun:
        output = self._pipeline(self.slice, LapTimer(NoCalibration()))
        return UnitRun(len(output["round_trips"]), [], 0, output)

    def check_unit(self, k: int, output) -> UnitCheck:
        return self._check(self.full, output)

    def check_trace_unit(self, k: int, output) -> UnitCheck:
        return self._check(self.slice, output)

    def _pipeline(self, files: _CorpusFiles, timer: LapTimer) -> dict:
        loaded = {}
        for split, path in files.tsv.items():
            loaded[split] = dataset.load_tsv(path, self.SPLITS[split])
            timer.lap()
        stats = {split: dataset.compute_stats(c).to_json_dict() for split, c in loaded.items()}
        vocab, intents, slots = dataset.build_vocabs(loaded["train"])
        normalizer = TokenNormalizer(frozenset(vocab.symbols))
        normalized = [
            normalizer.normalize_sequence(e.tokens) for split in ("eval", "test") for e in loaded[split]
        ]
        timer.lap()
        round_trips = []
        for split in files.tsv:
            for example in loaded[split]:
                start = perf_counter_ns()
                actions = transitions.oracle(example.tree)
                rebuilt = transitions.execute(actions, example.tokens)
                text = trees.serialize(example.tree)
                timer.record(perf_counter_ns() - start)
                round_trips.append((example.tree, rebuilt, text))
                if len(round_trips) % self.LAP_TREES == 0:
                    timer.lap()
        timer.lap()
        beams, top_lines = metrics.read_beam_file(files.beam)
        gold = [e.tree for e in loaded["test"]]
        pred = [beam[0] if beam else None for beam in beams]
        report = metrics.evaluate(gold, pred, raw_lines=top_lines, beams=beams, top_ks=self.TOP_KS)
        timer.lap()
        return {
            "stats": stats,
            "vocab": (vocab.symbols, intents, slots),
            "normalized": normalized,
            "round_trips": round_trips,
            "report": report.to_json_dict(),
            "gold": gold,
        }

    def _check(self, files: _CorpusFiles, output) -> UnitCheck:
        problems = []
        texts = [text for split in files.tsv for text in files.texts[split]]
        if len(texts) != len(output["round_trips"]):
            problems.append(f"loaded {len(output['round_trips'])} trees, wrote {len(texts)}")
        failed = 0
        for (tree, rebuilt, text), written in zip(output["round_trips"], texts):
            # load_tsv parsed ``written`` into ``tree``, so text == written
            # makes parse_bracketed . serialize the identity on this tree.
            failed += rebuilt != tree or text != written
        expected = files.expected_eval
        report = output["report"]
        got = {
            "exact_match": report["exact_match"],
            "top_k": {int(k): v for k, v in report["top_k"].items()},
            "tree_validity": report["tree_validity"],
        }
        if got != expected:
            problems.append(f"evaluate gave {got}, expected {expected}")
        gold = output["gold"]
        identity = metrics.evaluate(gold, gold).to_json_dict()
        scores = (identity["exact_match"], identity["bracket"]["f1"],
                  identity["tree_labeled"]["f1"], identity["tree_validity"])
        if scores != (100.0,) * 4:
            problems.append(f"evaluate(gold, gold) gave {scores}, expected 100")
        if failed:
            problems.append(f"{failed} trees failed the round trip")
        return UnitCheck(failed, problems)


WORKLOADS = {w.name: w for w in (Train, ParseGreedy, ParseBeam, CorpusPipeline)}
