"""Corpus ingestion, vocabularies, and corpus statistics.

The on-disk format is a UTF-8 TSV with three columns per line: the raw
utterance, the space-tokenized utterance, and the bracketed tree.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import preprocess
from .trees import FormatError, NonTerminal, Tree, depth, parse_bracketed, validate


class Split(Enum):
    TRAIN = "train"
    VALID = "valid"
    TEST = "test"
    UNSPLIT = "unsplit"


class IngestError(Exception):
    """Problem reading a corpus file. ``kind`` is one of io, encoding,
    bad-column-count, tree-format, constraint-violation, token-mismatch,
    empty-corpus, and config for a ``train --config`` line the CLI refuses.
    ``load_tsv`` names the file in ``path`` and, for a problem with one
    line, its number in ``line``."""

    def __init__(self, kind: str, message: str, line: Optional[int] = None, path=None):
        where = f"{path}: " if path is not None else ""
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{at}{message}")
        self.kind = kind
        self.message = message
        self.line = line
        self.path = path


@dataclass(frozen=True)
class Example:
    raw_utterance: str
    tokens: tuple
    tree: Tree


@dataclass(frozen=True)
class LineIssue:
    line: int
    kind: str
    message: str


@dataclass
class Corpus:
    examples: list
    split: Split = Split.UNSPLIT
    skipped: tuple = ()

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


def _parse_line(line: str, lineno: int) -> Example:
    columns = line.split("\t")
    if len(columns) != 3:
        raise IngestError(
            "bad-column-count", f"expected 3 tab-separated columns, found {len(columns)}", lineno
        )
    raw, tokenized, bracketed = columns
    tokens = tuple(tokenized.split())
    try:
        tree = parse_bracketed(bracketed)
    except FormatError as err:
        raise IngestError("tree-format", str(err), lineno) from None
    violations = validate(tree)
    if violations:
        raise IngestError(
            "constraint-violation", "; ".join(str(v) for v in violations), lineno
        )
    if tree.tokens != tokens:
        raise IngestError(
            "token-mismatch",
            f"tokenized column {list(tokens)} does not match tree yield {list(tree.tokens)}",
            lineno,
        )
    # The tree's own tuple, equal to the column: one copy of the words.
    return Example(raw_utterance=raw, tokens=tree.tokens, tree=tree)


def load_tsv(path, split: Split = Split.UNSPLIT, strict: bool = True) -> Corpus:
    """Load a three-column corpus file.

    With ``strict`` (the default), the first malformed line aborts the load;
    otherwise bad lines are skipped and reported in ``Corpus.skipped``.
    A file that is not valid UTF-8 is refused as a whole in either mode.
    """
    examples = []
    skipped = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as err:
        raise IngestError("io", err.strerror or str(err), path=path) from None
    with handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                try:
                    examples.append(_parse_line(line, lineno))
                except IngestError as err:
                    if strict:
                        raise IngestError(err.kind, err.message, lineno, path) from None
                    skipped.append(LineIssue(line=lineno, kind=err.kind, message=str(err)))
        except UnicodeDecodeError as err:
            raise IngestError(
                "encoding", f"not valid UTF-8 ({err.reason})", _undecodable_line(path), path
            ) from None
    if not examples:
        raise IngestError("empty-corpus", "no usable examples", path=path)
    return Corpus(examples=examples, split=split, skipped=tuple(skipped))


def _undecodable_line(path) -> Optional[int]:
    """Number of the first line of ``path`` that is not UTF-8.  The text
    reader decodes whole chunks, so its error does not say which line.  The
    lines split as the reader splits them (at ``\\n``, ``\\r\\n`` or ``\\r``),
    bytes that no multi-byte UTF-8 sequence contains."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle.read().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


def lower_median(values) -> int:
    """Median of a multiset, taking the lower of the two middle elements
    when the size is even."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty multiset")
    return ordered[(len(ordered) - 1) // 2]


@dataclass
class CorpusStats:
    count: int
    intent_label_count: int
    slot_label_count: int
    depth_histogram: dict
    length_histogram: dict
    median_depth: int
    mean_depth: float
    median_length: int
    mean_length: float
    fraction_depth_gt_2: float

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "intent_label_count": self.intent_label_count,
            "slot_label_count": self.slot_label_count,
            "median_depth": self.median_depth,
            "mean_depth": self.mean_depth,
            "median_length": self.median_length,
            "mean_length": self.mean_length,
            "fraction_depth_gt_2": self.fraction_depth_gt_2,
            "depth_histogram": {str(k): v for k, v in sorted(self.depth_histogram.items())},
            "length_histogram": {str(k): v for k, v in sorted(self.length_histogram.items())},
        }

    def depth_csv(self) -> str:
        return _histogram_csv("depth", self.depth_histogram)

    def length_csv(self) -> str:
        return _histogram_csv("length", self.length_histogram)


def _histogram_csv(name: str, histogram: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([name, "count"])
    for key in sorted(histogram):
        writer.writerow([key, histogram[key]])
    return out.getvalue()


def iter_labels(tree: Tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, NonTerminal):
            yield node.label
            stack.extend(node.children)


def compute_stats(corpus: Corpus) -> CorpusStats:
    if not corpus.examples:
        raise ValueError("cannot compute statistics of an empty corpus")
    depths = [depth(e.tree) for e in corpus]
    lengths = [len(e.tokens) for e in corpus]
    intents = set()
    slots = set()
    for example in corpus:
        for label in iter_labels(example.tree):
            (intents if label.is_intent else slots).add(label)
    n = len(corpus)
    return CorpusStats(
        count=n,
        intent_label_count=len(intents),
        slot_label_count=len(slots),
        depth_histogram=dict(Counter(depths)),
        length_histogram=dict(Counter(lengths)),
        median_depth=lower_median(depths),
        mean_depth=sum(depths) / n,
        median_length=lower_median(lengths),
        mean_length=sum(lengths) / n,
        fraction_depth_gt_2=sum(1 for d in depths if d > 2) / n,
    )


class Vocab:
    """An ordered symbol table with stable indices."""

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        self._index = {sym: i for i, sym in enumerate(self.symbols)}
        if len(self._index) != len(self.symbols):
            raise ValueError("duplicate symbols in vocabulary")

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    def __iter__(self):
        return iter(self.symbols)

    def index(self, symbol) -> int:
        return self._index[symbol]

    def get(self, symbol, default=None):
        return self._index.get(symbol, default)


def build_vocabs(corpus: Corpus, min_count: int = 1):
    """Token vocabulary plus exhaustive intent and slot label sets.

    Numbers are collapsed to the number constant before counting, tokens
    below ``min_count`` are replaced by their unknown-word class, and the
    classes that actually occur join the vocabulary alongside the reserved
    symbols.
    """
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    counts = Counter()
    for example in corpus:
        for token in example.tokens:
            counts[preprocess.NUM_TOKEN if preprocess.is_number(token) else token] += 1
    kept = {tok for tok, c in counts.items() if c >= min_count}
    classes = set()
    for example in corpus:
        for position, token in enumerate(example.tokens):
            if preprocess.is_number(token):
                continue
            if token not in kept:
                classes.add(preprocess.unk_class(token, position))
    reserved = [preprocess.UNK_TOKEN, preprocess.NUM_TOKEN]
    ordinary = sorted(kept - set(reserved))
    extra_classes = sorted(classes - set(reserved) - kept)
    token_vocab = Vocab(reserved + ordinary + extra_classes)

    intents = set()
    slots = set()
    for example in corpus:
        for label in iter_labels(example.tree):
            (intents if label.is_intent else slots).add(label)
    by_name = lambda lab: lab.name
    return token_vocab, tuple(sorted(intents, key=by_name)), tuple(sorted(slots, key=by_name))
