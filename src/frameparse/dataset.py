"""Text input, file output, corpus ingestion, pretrained embeddings,
vocabularies, and corpus statistics.

Every text file the package reads goes through ``read_lines``, in one
pass, and every file it writes goes through ``write_file``.  Every refusal
of an input or output, checkpoints included, is an ``IngestError`` naming
the file and, for one input line, the line; a reader refuses the first bad
line it reaches, whatever its fault.  The corpus format is a UTF-8 TSV with
three columns per line: the raw utterance, the space-tokenized utterance,
and the bracketed tree.  ``load_embeddings`` returns pretrained vectors as
the model's word table, every line checked against the model's width.
"""

from __future__ import annotations

import errno
import os
import secrets
import stat
import statistics
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import preprocess
from .trees import FormatError, NonTerminal, Tree, depth, parse_bracketed, validate


class Split(Enum):
    TRAIN = "train"
    VALID = "valid"
    TEST = "test"
    UNSPLIT = "unsplit"


class IngestError(Exception):
    """A refused input or output file, named in ``path``, with the
    number of the bad line in ``line`` when one input line is at fault.
    ``kind`` is io (an input ``read_lines`` or ``load_checkpoint`` cannot
    open, or an output ``write_file`` cannot write) or encoding (from
    ``read_lines``); bad-column-count, constraint-violation or
    token-mismatch (a corpus file); tree-format (a corpus or tree file,
    with a line that is not a bracketed tree or one nested too deep to
    check); empty-corpus (a corpus or gold-tree file with no tree);
    embeddings (an embeddings file, each of whose lines must hold the
    model's width);
    config (a ``train --config`` line the CLI refuses); or checkpoint (a
    malformed checkpoint, raised as ``neural.params.CheckpointError``)."""

    def __init__(self, kind: str, message: str, line: Optional[int] = None, path=None):
        where = f"{path}: " if path is not None else ""
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{at}{message}")
        self.kind = kind
        self.message = message
        self.line = line
        self.path = path


def read_lines(path):
    """Yield ``(lineno, line)`` for each line of the UTF-8 text file
    ``path``, numbered from 1, without its line end (``\\n``, ``\\r\\n`` or
    ``\\r``).  Reads as it yields, in one pass.  A file that cannot be opened
    raises ``IngestError`` kind io; a line that is not UTF-8, kind encoding,
    naming it, when the reader reaches it."""
    try:
        # Bytes that are not UTF-8 decode to lone surrogates, which valid
        # UTF-8 never yields: only such a line fails the check below.
        handle = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as err:
        raise IngestError("io", err.strerror or str(err), path=path) from None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as err:
                    raise IngestError(
                        "encoding", f"not valid UTF-8 ({err.reason})", lineno, path
                    ) from None
            yield lineno, line.rstrip("\n")


def write_file(path, chunks) -> None:
    """Write the iterable ``chunks`` (``bytes``, or ``str`` written as
    UTF-8) to ``path``, whole or not at all: into a new file beside it,
    flushed and synced, then renamed over it.  So ``path`` holds either what
    it held before or all of the new content, and a symlink there is
    replaced by a file, not followed.  The file keeps the mode of the file
    it replaces, or gets the mode ``open`` gives a new file: 0666 less the
    umask.  A pipe or device at ``path`` (``/dev/stdout``, a FIFO) is
    written in place, as it cannot be replaced.  Any failure removes the
    temporary file and raises ``IngestError`` kind io naming ``path``."""
    try:
        found = _existing(path)
        if found is not None and not stat.S_ISREG(found.st_mode):
            with open(path, "wb") as handle:
                _write_chunks(handle, chunks)
            return
        fd, temp = _temporary(path)
        try:
            with os.fdopen(fd, "wb") as handle:
                if found is not None:
                    os.fchmod(handle.fileno(), stat.S_IMODE(found.st_mode))
                _write_chunks(handle, chunks)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except BaseException:
            try:
                os.remove(temp)
            except OSError:
                pass
            raise
    except OSError as err:
        raise IngestError("io", err.strerror or str(err), path=path) from None


def check_writable(*paths) -> None:
    """Refuse, before the work that fills them, outputs that ``write_file``
    could not write: its first step, undone (for a pipe or device, a check
    that it may be written).  Raises ``IngestError`` kind io naming the
    first such path."""
    for path in paths:
        try:
            found = _existing(path)
            if found is None or stat.S_ISREG(found.st_mode):
                fd, temp = _temporary(path)
                os.close(fd)
                os.remove(temp)
            elif not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        except OSError as err:
            raise IngestError("io", err.strerror or str(err), path=path) from None


def _existing(path):
    """``os.stat`` of what ``path`` names (through a symlink), or None if
    nothing is there.  A directory raises ``IsADirectoryError``."""
    try:
        found = os.stat(path)
    except FileNotFoundError:
        return None
    if stat.S_ISDIR(found.st_mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    return found


def _temporary(path) -> tuple:
    """(descriptor, name) of a new empty file in the directory of ``path``,
    the first step of every write to a regular file."""
    temp = os.path.join(os.path.dirname(path), f".frameparse-{secrets.token_hex(8)}.tmp")
    return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp


def _write_chunks(handle, chunks) -> None:
    for chunk in chunks:
        handle.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)


@dataclass(frozen=True)
class Example:
    raw_utterance: str
    tokens: tuple
    tree: Tree


@dataclass
class Corpus:
    examples: list
    split: Split = Split.UNSPLIT
    skipped: tuple = ()  # the IngestError of each line a lenient load skipped

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


def _parse_line(line: str, lineno: int, path) -> Example:
    columns = line.split("\t")
    if len(columns) != 3:
        raise IngestError("bad-column-count",
                          f"expected 3 tab-separated columns, found {len(columns)}", lineno, path)
    raw, tokenized, bracketed = columns
    tokens = tuple(tokenized.split())
    try:
        tree = parse_bracketed(bracketed)
    except FormatError as err:
        raise IngestError("tree-format", str(err), lineno, path) from None
    violations = validate(tree)
    if violations:
        raise IngestError(
            "constraint-violation", "; ".join(str(v) for v in violations), lineno, path
        )
    if tree.tokens != tokens:
        raise IngestError(
            "token-mismatch",
            f"tokenized column {list(tokens)} does not match tree yield {list(tree.tokens)}",
            lineno, path,
        )
    # The tree's own tuple, equal to the column: one copy of the words.
    return Example(raw_utterance=raw, tokens=tree.tokens, tree=tree)


def load_tsv(path, split: Split = Split.UNSPLIT, strict: bool = True) -> Corpus:
    """Load a three-column corpus file.

    With ``strict`` (the default), the first malformed line aborts the load
    with its ``IngestError``; otherwise bad lines are skipped and their
    errors kept in ``Corpus.skipped``.  A file that is not valid UTF-8 is
    refused as a whole in either mode.
    """
    examples = []
    skipped = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        try:
            examples.append(_parse_line(line, lineno, path))
        except IngestError as err:
            if strict:
                raise
            # Without its traceback, whose frames would hold this list.
            skipped.append(err.with_traceback(None))
    if not examples:
        raise IngestError("empty-corpus", "no usable examples", path=path)
    return Corpus(examples=examples, split=split, skipped=tuple(skipped))


def load_embeddings(path, vocab, dim: int, seed: int = 0) -> tuple:
    """Load the text format ``word v1 v2 ... vd`` (one word per line, split
    at runs of whitespace, so word2vec's space before the line end is
    accepted) for a word table of width ``dim``, keeping only words in
    ``vocab``.

    Returns ``(vectors, pretrained)``: a float64 array of shape
    ``(len(vocab), dim)`` in vocabulary order, and a boolean mask of the
    rows the file gave.  Each other row is a seeded uniform random vector in
    [-0.1, 0.1), drawn in sorted word order.  An empty file, a line without
    exactly ``dim`` values, or a kept word with a value that is not a finite
    number raises ``IngestError`` kind embeddings, naming the line.
    """
    rows = {word: i for i, word in enumerate(vocab)}
    vectors = np.zeros((len(rows), dim))
    pretrained = np.zeros(len(rows), dtype=bool)
    lineno = 0
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) < 2:
            raise IngestError("embeddings", "expected a word followed by values", lineno, path)
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise IngestError(
                "embeddings", f"expected {dim} values, found {len(values)}", lineno, path
            )
        row = rows.get(word)
        if row is None:
            continue
        try:
            vector = np.asarray([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise IngestError("embeddings", "non-numeric embedding value", lineno,
                              path) from None
        if not np.isfinite(vector).all():
            raise IngestError("embeddings", f"non-finite embedding value for {word!r}", lineno,
                              path)
        vectors[row] = vector
        pretrained[row] = True
    if not lineno:
        raise IngestError("embeddings", "embedding file is empty", path=path)
    rng = np.random.default_rng(seed)
    for word in sorted(word for word, row in rows.items() if not pretrained[row]):
        vectors[rows[word]] = rng.uniform(-0.1, 0.1, dim)
    return vectors, pretrained


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
        fields = asdict(self)
        for name in ("depth_histogram", "length_histogram"):
            fields[name] = {str(k): v for k, v in sorted(fields[name].items())}
        return fields

    def depth_csv(self) -> str:
        return _histogram_csv("depth", self.depth_histogram)

    def length_csv(self) -> str:
        return _histogram_csv("length", self.length_histogram)


def _histogram_csv(name: str, histogram: dict) -> str:
    return f"{name},count\n" + "".join(f"{key},{histogram[key]}\n" for key in sorted(histogram))


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
        median_depth=statistics.median_low(depths),
        mean_depth=sum(depths) / n,
        median_length=statistics.median_low(lengths),
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
    # Each corpus token's symbol under the kept tokens: the number constant,
    # a kept token, or the unknown-word class of any other.
    symbols = {preprocess.normalize(token, position, kept)
               for example in corpus for position, token in enumerate(example.tokens)}
    reserved = [preprocess.UNK_TOKEN, preprocess.NUM_TOKEN]
    ordinary = sorted(kept - set(reserved))
    extra_classes = sorted(symbols - set(reserved) - kept)
    token_vocab = Vocab(reserved + ordinary + extra_classes)

    intents = set()
    slots = set()
    for example in corpus:
        for label in iter_labels(example.tree):
            (intents if label.is_intent else slots).add(label)
    by_name = lambda lab: lab.name
    return token_vocab, tuple(sorted(intents, key=by_name)), tuple(sorted(slots, key=by_name))
