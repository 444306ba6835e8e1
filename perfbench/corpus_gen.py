"""Seeded corpus generator with the shape of the paper's released corpus.

The label inventory is 25 intents and 36 slots, and intents nest under
slots.  Root depths are drawn from a fixed distribution whose mean is the
paper's 2.54 (median 2); token counts come out at median 8, mean about 8.9.
The corpus is learnable in the way ``tests/synth.learnable_corpus`` is:
every intent opens with one of its own trigger words, every slot is filled
with its own filler words (or numbers), and a nested slot is always the
last child of its intent, so the tree is recoverable from the tokens.

Every draw comes from ``np.random.default_rng([stream, seed])``: the same
seed gives the same corpus, and the streams keep the committed decode
model's training data apart from every workload's inputs.
"""

from __future__ import annotations

import bisect

import numpy as np

from frameparse.dataset import Corpus, Example, Split, compute_stats
from frameparse.trees import Label, NonTerminal, Token, Tree, count_nonterminals, serialize

N_INTENTS = 25
N_SLOTS = 36

# Random streams, one per purpose.
STREAM_HELDOUT = 1
STREAM_TRAIN = 2
STREAM_CORPUS = 3
STREAM_MODEL_TRAIN = 4
STREAM_MODEL_DEV = 5
STREAM_BEAM_FILE = 6

# Paper's split sizes of the 44,783-tree corpus.
PAPER_SPLITS = (("train", 31279), ("eval", 4462), ("test", 9042))

# The paper's corpus statistics.  Medians must match exactly; a mean may be
# off by MEAN_SLACK (the generator's own bias) plus five standard errors of
# the checked sample, so that no seed fails by chance.  Samples of fewer
# than MIN_CHECKED trees are not checked: about 4% of trees sit at the
# median length, and a smaller sample can tip the median by chance.
TARGET_MEDIAN_DEPTH = 2
TARGET_MEAN_DEPTH = 2.54
TARGET_MEDIAN_LENGTH = 8
TARGET_MEAN_LENGTH = 8.93
MEAN_SLACK = 0.1
MIN_CHECKED = 4000

INTENTS = tuple(Label("IN", f"INTENT_{i:02d}") for i in range(N_INTENTS))
SLOTS = tuple(Label("SL", f"SLOT_{j:02d}") for j in range(N_SLOTS))

# Each intent takes four slots; together they cover all 36.
_INTENT_SLOTS = tuple(tuple((3 * i + j) % N_SLOTS for j in range(4)) for i in range(N_INTENTS))
# Intents 0..11 each own one slot that may hold a sub-intent.
_NEST_SLOT = {i: 32 + i % 4 for i in range(12)}
_NESTING_INTENTS = tuple(sorted(_NEST_SLOT))
# Slots filled with numbers, which the parser maps to the number symbol.
_NUMERIC_SLOTS = frozenset({5, 17, 29})

_ROOT_DEPTHS = (1, 2, 3, 4, 5, 6)
_ROOT_DEPTH_CDF = tuple(np.cumsum((0.08, 0.535, 0.20, 0.145, 0.03, 0.01)))
_FILLER_COUNT_CDF = (0.4, 0.72, 0.88, 0.95, 1.0)  # 1..5 filler words
# Chance of one more function word: in a token-only intent, after an
# intent's trigger, and after each flat slot.
_P_WORD_TOKEN_INTENT = 0.6
_P_WORD_AFTER_TRIGGER = 0.5
_P_WORD_AFTER_SLOT = 0.45
# A few utterances are chatty: their root gets a long run of extra words,
# which gives the length distribution the paper's long right tail.
_P_CHATTY = 0.13
_CHATTY_WORDS = (6, 13)
_COMMON = (
    "please", "the", "a", "to", "for", "me", "my", "at", "in", "on", "get", "now",
    "today", "soon", "there", "from", "with", "this", "that", "quick", "hey", "ok",
    "is", "it", "any", "what",
)


def _pseudo_word(index: int) -> str:
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    n = len(syllables)
    scrambled = (index * 37 + 11) % (n * n)
    return syllables[scrambled // n] + syllables[scrambled % n]


_TRIGGERS = tuple((_pseudo_word(2 * i), _pseudo_word(2 * i + 1)) for i in range(N_INTENTS))
_FILLERS = tuple(
    tuple(_pseudo_word(100 + 3 * j + k) for k in range(3)) for j in range(N_SLOTS)
)


class _Draws:
    """Uniform draws from one seeded generator, taken in blocks: far
    cheaper than one numpy call per draw, and still one fixed sequence."""

    def __init__(self, stream: int, seed: int, block: int = 65536):
        self._rng = np.random.default_rng([stream, seed])
        self._block = block
        self._values = []
        self._next = 0

    def uniform(self) -> float:
        if self._next == len(self._values):
            self._values = self._rng.random(self._block).tolist()
            self._next = 0
        value = self._values[self._next]
        self._next += 1
        return value

    def index(self, n: int) -> int:
        return min(int(self.uniform() * n), n - 1)

    def categorical(self, cdf) -> int:
        return min(bisect.bisect_right(cdf, self.uniform()), len(cdf) - 1)


def _common_words(draws: _Draws, p_more: float) -> list:
    words = []
    while draws.uniform() < p_more:
        words.append(Token(_COMMON[draws.index(len(_COMMON))]))
    return words


def _flat_slot(draws: _Draws, j: int) -> NonTerminal:
    count = draws.categorical(_FILLER_COUNT_CDF) + 1
    if j in _NUMERIC_SLOTS and draws.uniform() < 0.7:
        number = draws.index(60) + 1
        text = f"{number}.5" if draws.uniform() < 0.2 else str(number)
        return NonTerminal(SLOTS[j], (Token(text),))
    fillers = _FILLERS[j]
    return NonTerminal(SLOTS[j], tuple(Token(fillers[draws.index(3)]) for _ in range(count)))


def _root(draws: _Draws) -> NonTerminal:
    root = _intent(draws, _ROOT_DEPTHS[draws.categorical(_ROOT_DEPTH_CDF)])
    if draws.uniform() >= _P_CHATTY:
        return root
    low, high = _CHATTY_WORDS
    extra = tuple(
        Token(_COMMON[draws.index(len(_COMMON))]) for _ in range(low + draws.index(high - low + 1))
    )
    return NonTerminal(root.label, root.children[:1] + extra + root.children[1:])


def _intent(draws: _Draws, depth: int) -> NonTerminal:
    """An intent subtree of exactly ``depth`` non-terminal levels."""
    if depth >= 3:
        i = _NESTING_INTENTS[draws.index(len(_NESTING_INTENTS))]
    else:
        i = draws.index(N_INTENTS)
    children = [Token(_TRIGGERS[i][draws.index(2)])]
    if depth == 1:
        children.append(Token(_COMMON[draws.index(len(_COMMON))]))
        children.extend(_common_words(draws, _P_WORD_TOKEN_INTENT))
        return NonTerminal(INTENTS[i], tuple(children))
    children.extend(_common_words(draws, _P_WORD_AFTER_TRIGGER))
    allowed = list(_INTENT_SLOTS[i])
    n_flat = draws.index(3) + (1 if depth == 2 else 0)  # 1..3 flat slots at depth 2
    for _ in range(n_flat):
        j = allowed.pop(draws.index(len(allowed)))
        children.append(_flat_slot(draws, j))
        if draws.uniform() < _P_WORD_AFTER_SLOT:
            children.append(Token(_COMMON[draws.index(len(_COMMON))]))
    if depth >= 3:
        children.append(NonTerminal(SLOTS[_NEST_SLOT[i]], (_intent(draws, depth - 2),)))
    return NonTerminal(INTENTS[i], tuple(children))


def generate_trees(stream: int, seed: int, n: int) -> list:
    """``n`` well-formed trees from the seeded stream."""
    draws = _Draws(stream, seed)
    return [Tree(_root(draws)) for _ in range(n)]


def stratified(trees) -> list:
    """The trees reordered so that every prefix holds an even spread of the
    derivation lengths: sorted by oracle length, then taken in bit-reversed
    index order.  A run that stops after any number of trees then sees the
    same mix of short and long inputs whatever the seed, which keeps the
    per-seed spread of timings down."""
    ordered = sorted(trees, key=lambda t: (len(t.tokens) + 2 * count_nonterminals(t)))
    bits = max(1, (len(ordered) - 1).bit_length())
    picks = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [ordered[j] for j in picks if j < len(ordered)]


def as_corpus(trees, split: Split = Split.UNSPLIT) -> Corpus:
    return Corpus([Example(" ".join(t.tokens), t.tokens, t) for t in trees], split)


class ShapeDrift(ValueError):
    """Generated corpus statistics fell outside the stated tolerance."""


def check_shape(corpus: Corpus) -> dict:
    """Compare ``compute_stats`` of a generated corpus with the paper's
    figures; raise :class:`ShapeDrift` when any is out of tolerance."""
    if len(corpus) < MIN_CHECKED:
        raise ValueError(f"shape check needs at least {MIN_CHECKED} trees, got {len(corpus)}")
    stats = compute_stats(corpus)
    problems = []
    if stats.intent_label_count != N_INTENTS or stats.slot_label_count != N_SLOTS:
        problems.append(
            f"labels {stats.intent_label_count}/{stats.slot_label_count}, "
            f"expected {N_INTENTS}/{N_SLOTS}"
        )
    if stats.median_depth != TARGET_MEDIAN_DEPTH:
        problems.append(f"median depth {stats.median_depth} != {TARGET_MEDIAN_DEPTH}")
    if stats.median_length != TARGET_MEDIAN_LENGTH:
        problems.append(f"median length {stats.median_length} != {TARGET_MEDIAN_LENGTH}")
    for name, histogram, mean, target in (
        ("depth", stats.depth_histogram, stats.mean_depth, TARGET_MEAN_DEPTH),
        ("length", stats.length_histogram, stats.mean_length, TARGET_MEAN_LENGTH),
    ):
        variance = sum(c * (v - mean) ** 2 for v, c in histogram.items()) / stats.count
        tolerance = MEAN_SLACK + 5.0 * (variance / stats.count) ** 0.5
        if abs(mean - target) > tolerance:
            problems.append(f"mean {name} {mean:.3f} not within {tolerance:.3f} of {target}")
    if problems:
        raise ShapeDrift("; ".join(problems))
    return stats.to_json_dict()


def write_tsv(path, trees) -> list:
    """Write the three-column corpus format; returns the bracketed texts."""
    texts = [serialize(t) for t in trees]
    with open(path, "w", encoding="utf-8") as handle:
        for tree, text in zip(trees, texts):
            utterance = " ".join(tree.tokens)
            handle.write(f"{utterance}\t{utterance}\t{text}\n")
    return texts


def _perturb(draws: _Draws, text: str) -> str:
    """A different well-formed tree: one label swapped for another of its kind."""
    starts = [k for k in range(len(text)) if text[k] == "["]
    k = starts[draws.index(len(starts))]
    end = text.index(" ", k)
    kind = text[k + 1 : k + 3]
    labels = INTENTS if kind == "IN" else SLOTS
    old = text[k + 1 : end]
    new = str(labels[draws.index(len(labels))])
    if new == old:
        new = str(labels[(labels.index(Label.parse(old)) + 1) % len(labels)])
    return text[: k + 1] + new + text[end:]


def _malform(draws: _Draws, text: str) -> str:
    choice = draws.index(3)
    if choice == 0:
        return text[:-2]  # drop the closing bracket
    if choice == 1:
        return text.replace("[SL:", "[XX:", 1) if "[SL:" in text else "[" + text
    return text + " ]"


def write_beam_file(path, gold_texts, seed: int) -> dict:
    """A seeded top-5 prediction file in the ``parse`` output format.

    The gold tree sits at rank 1 for most inputs, lower or nowhere for
    others; the other entries are relabelled trees, and some top lines are
    malformed.  Returns the exact percentages that ``evaluate`` must report.
    """
    draws = _Draws(STREAM_BEAM_FILE, seed)
    top1 = top3 = top5 = valid = 0
    with open(path, "w", encoding="utf-8") as handle:
        for gold in gold_texts:
            size = 5 - draws.categorical((0.7, 0.8, 0.9, 0.95))
            rank = draws.categorical((0.8, 0.88, 0.92, 0.94, 0.96, 1.0))  # 5 = absent
            malformed_top = rank != 0 and draws.uniform() < 0.1
            entries = []
            for r in range(size):
                if r == rank:
                    entries.append(gold)
                else:
                    text = _perturb(draws, gold)
                    entries.append(_malform(draws, text) if r == 0 and malformed_top else text)
            top1 += rank == 0
            top3 += rank < min(3, size)
            top5 += rank < size
            valid += not malformed_top
            for r, text in enumerate(entries):
                handle.write(f"{-0.25 * (r + 1):.6f}\t{text}\n")
            handle.write("\n")
    n = len(gold_texts)
    return {
        "exact_match": 100.0 * top1 / n,
        "top_k": {1: 100.0 * top1 / n, 3: 100.0 * top3 / n, 5: 100.0 * top5 / n},
        "tree_validity": 100.0 * valid / n,
    }
