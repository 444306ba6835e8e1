"""frameparse: hierarchical intent-slot semantic parsing.

Defines the intent/slot tree representation with its well-formedness
constraints, converts trees to and from parser transition sequences, trains
and runs a neural transition parser, and scores predictions with exact
match, labeled bracketing F1, tree-labeled F1, and tree validity.
"""

from .dataset import Corpus, CorpusStats, Example, IngestError, Split, Vocab, build_vocabs, compute_stats, load_tsv
from .metrics import (
    MetricsReport,
    bracket_prf,
    evaluate,
    exact_match,
    top_k_accuracy,
    tree_labeled_prf,
    tree_validity,
)
from .preprocess import EmbeddingTable, TokenNormalizer, load_embeddings, normalize
from .rnng import Model, RnngConfig, ablate, parse_beam, parse_greedy, train
from .transitions import (
    Action,
    ParserState,
    REDUCE,
    SHIFT,
    apply,
    execute,
    initial_state,
    nt,
    oracle,
    valid_actions,
)
from .trees import (
    FormatError,
    Label,
    LabeledSpan,
    NonTerminal,
    Token,
    Tree,
    Violation,
    depth,
    labeled_spans,
    parse_bracketed,
    serialize,
    validate,
    yield_tokens,
)

__version__ = "0.1.0"
