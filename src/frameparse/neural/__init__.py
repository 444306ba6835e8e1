"""Self-contained differentiable computation for the parser: a small
reverse-mode tape over numpy, LSTM layers, Adam, and gradient checking."""

from .core import (
    DimensionMismatch,
    EmptySequence,
    GoldMasked,
    Tape,
    Var,
    add_n,
    concat,
    dropout,
    linear,
    lstm_cell,
    masked_log_probs,
    masked_nll,
    relu,
)
from .gradcheck import GradCheckReport, grad_check
from .layers import BiLstmEncoder, Lstm, bilstm_encode, embedding_lookup, lstm_sequence
from .params import (
    CheckpointError,
    Param,
    ParamStore,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "BiLstmEncoder",
    "CheckpointError",
    "DimensionMismatch",
    "EmptySequence",
    "GoldMasked",
    "GradCheckReport",
    "Lstm",
    "Param",
    "ParamStore",
    "Tape",
    "Var",
    "add_n",
    "bilstm_encode",
    "concat",
    "dropout",
    "embedding_lookup",
    "grad_check",
    "linear",
    "load_checkpoint",
    "lstm_cell",
    "lstm_sequence",
    "masked_log_probs",
    "masked_nll",
    "relu",
    "save_checkpoint",
]
