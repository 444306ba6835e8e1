"""Discriminative neural transition parser.

The parser state is summarized by up to three sequence encoders: a
persistent stack LSTM over the stack symbols (open non-terminal markers,
shifted words, and composed subtrees), a buffer LSTM read right-to-left so
its top state always reflects the next token to shift, and an LSTM over the
action history.  On REDUCE, the closed subtree is collapsed to a single
vector by a bidirectional-LSTM composition over its label and children.
The concatenated encoder outputs pass through one rectified feed-forward
layer into a scorer over the full action inventory; actions outside the
transition mask get probability exactly zero, so any decode produces a
well-formed tree.

Training is teacher-forced on oracle action sequences with per-example
Adam updates, on a tape that owns the dropout: :func:`train_example`
builds it from the random stream and the configured rate, and only the
ops on that tape drop.  Inference is greedy or beam search over action
prefixes, forward-only: every live hypothesis is one row of each matrix
product, so beam search scores and advances all of them at once.  Both
step a :class:`Hypothesis` with the same :func:`advance`, which does the
bookkeeping and queues the encoder inputs, and both start, run the queue
and score through the same :func:`start_hypothesis`, :func:`_run_queued`
and :func:`encode_state`: on the tape with the one hypothesis being
trained, or without a tape on all live hypotheses.  The products are the
same vector-matrix products on the same parameters, so the taped and the
decoded logits of a step are bitwise equal.  A batch of one runs as plain
vectors, as on the tape; only the summary and the logits keep the rows.

Decoding runs the stack and the action LSTM of a step in alternating order
from one step to the next (see :func:`_run_queued`), so the one whose
weights the previous step read last finds them still in cache.  Training is
teacher-forced, so its action history is known before the first step:
:func:`example_loss` runs the action LSTM over the gold actions before the
step loop, as :func:`start_hypothesis` runs the buffer LSTM over the
tokens, and each step only looks its state up.  A step then reads the
weights of the stack LSTM, the feed-forward layer and the scorer alone,
about 1.8 MB in f32 at the default shape, which a 2 MB per-core L2 holds.
The action LSTM's ops touch nothing else but the summaries that read
them, so moving them ahead adds every gradient in the order it had, up to
swapping two terms of a sum; and its dropout masks are taken by position
from one block drawn per example (see :func:`example_loss`), so every
trained bit is what running the action LSTM step by step gives.

Once a hypothesis has shifted its last token, the mask allows only REDUCE
until the tree closes.  Training and the decoders take that forced tail
through the same :func:`advance` and neither encode nor score it: a
decoder adds log-probability exactly log 1 = 0 per step, and training adds
a loss of exactly 0 with no gradient.  For finite logits this is what the
masked softmax gives; with non-finite logits a forced step adds 0 where the
softmax would give NaN.  Training's dropout block still holds the values
the skipped steps would have drawn, so its dropout stream, and with it
every trained parameter, is bit for bit what scoring every step gives.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .dataset import Corpus, Vocab
from .neural import core, layers
from .neural.params import CheckpointError, ParamStore, load_checkpoint, save_checkpoint
from .preprocess import TokenNormalizer, UNK_TOKEN
from .transitions import (
    DEFAULT_MAX_OPEN_NTS,
    Action,
    REDUCE,
    SHIFT,
    apply,  # noqa: F401 - kept importable as rnng.apply
    apply_unchecked,
    initial_state,
    kind_of,
    nt,
    oracle,
    valid_actions,
)
from .trees import INTENT, SLOT, Label, Tree

MODEL_FORMAT = "frameparse-rnng"
MODEL_VERSION = 1

ENCODERS = ("stack", "buffer", "actions")


class AllEncodersDisabled(ValueError):
    pass


class NonFiniteLoss(ValueError):
    """A training loss that is NaN or infinite.  It is raised before the
    backward pass, so the example that gave it changes no parameter."""


# Per annotation of an RnngConfig field, the type its value must have and
# how errors name it.
_FIELD_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "bool": (bool, "a boolean"), "str": (str, "a string")}


@dataclass(frozen=True)
class RnngConfig:
    """Model and training configuration.

    ``precision`` selects float32 (training default) or float64 (gradient
    checking).  ``use_*`` flags ablate individual state encoders; at least
    one must stay enabled.  A field of the wrong type raises ``TypeError``:
    an ``int`` field takes an integer and a ``float`` field a real number,
    neither of them a ``bool``, and a ``bool`` field only a ``bool``.
    """

    word_dim: int = 64
    label_dim: int = 32
    action_dim: int = 32
    lstm_units: int = 164
    lstm_layers: int = 2
    dropout: float = 0.34
    lr: float = 0.0004
    weight_decay: float = 0.00004
    epochs: int = 1
    use_stack: bool = True
    use_buffer: bool = True
    use_actions: bool = True
    beam_size: int = 1
    seed: int = 1
    max_open_nts: int = DEFAULT_MAX_OPEN_NTS
    precision: str = "f32"
    finetune_embeddings: bool = False

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            kind, kind_name = _FIELD_TYPES[field.type]
            # A bool is an int too, so only a bool field takes one.
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise TypeError(f"{field.name} must be {kind_name}, got {value!r}")
        for name in ("word_dim", "label_dim", "action_dim", "lstm_units", "lstm_layers",
                     "beam_size", "max_open_nts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (self.use_stack or self.use_buffer or self.use_actions):
            raise AllEncodersDisabled("at least one state encoder must be enabled")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        for name in ("lr", "weight_decay"):
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and not negative")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.precision not in ("f32", "f64"):
            raise ValueError("precision must be 'f32' or 'f64'")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    @property
    def enabled_encoders(self) -> tuple:
        return tuple(
            name
            for name, on in zip(ENCODERS, (self.use_stack, self.use_buffer, self.use_actions))
            if on
        )


class Model:
    """Configuration, vocabularies, and all learned parameters.

    ``embeddings``, the ``(vectors, pretrained)`` pair that
    ``dataset.load_embeddings`` returns, starts the word table; the rows the
    file gave stay fixed in training unless ``finetune_embeddings`` is on.
    """

    def __init__(self, config: RnngConfig, token_vocab: Vocab, intent_labels, slot_labels,
                 normalizer: TokenNormalizer, embeddings=None):
        self.config = config
        self.token_vocab = token_vocab
        self.intent_labels = tuple(sorted(intent_labels, key=str))
        self.slot_labels = tuple(sorted(slot_labels, key=str))
        self.labels = self.intent_labels + self.slot_labels
        self.label_index = {label: i for i, label in enumerate(self.labels)}
        # Fixed action inventory; its order is also the decode tie-break order.
        self.actions = (SHIFT, REDUCE) + tuple(nt(label) for label in self.labels)
        self.action_index = {action: i for i, action in enumerate(self.actions)}
        self.normalizer = normalizer
        # Indexed by every 4-bit mask valid_actions can return: the
        # ascending, read-only indices of the actions it allows.
        kinds = np.array([kind_of(action) for action in self.actions])
        self.mask_indices = tuple(np.flatnonzero(kinds & mask) for mask in range(16))
        for indices in self.mask_indices:
            indices.flags.writeable = False

        cfg = config
        store = ParamStore(seed=[cfg.seed, 0], dtype=cfg.dtype)
        self.store = store
        elem = cfg.word_dim  # shared width of stack symbols
        self.word_emb = store.add("word_emb", (len(token_vocab), cfg.word_dim))
        self.label_emb = store.add("label_emb", (max(len(self.labels), 1), cfg.label_dim))
        self.action_emb = store.add("action_emb", (len(self.actions), cfg.action_dim))
        self.label_proj_w = store.add("label_proj.weight", (elem, cfg.label_dim), order="F")
        self.label_proj_b = store.add("label_proj.bias", (elem,))
        self.compose = layers.BiLstmEncoder(store, "compose", elem, cfg.lstm_units, elem)
        self.stack_lstm = (
            layers.Lstm(store, "stack", elem, cfg.lstm_units, cfg.lstm_layers)
            if cfg.use_stack
            else None
        )
        self.buffer_lstm = (
            layers.Lstm(store, "buffer", elem, cfg.lstm_units, cfg.lstm_layers)
            if cfg.use_buffer
            else None
        )
        self.action_lstm = (
            layers.Lstm(store, "actions", cfg.action_dim, cfg.lstm_units, cfg.lstm_layers)
            if cfg.use_actions
            else None
        )
        summary_dim = cfg.lstm_units * len(cfg.enabled_encoders)
        self.ff_w = store.add("ff.weight", (cfg.lstm_units, summary_dim), order="F")
        self.ff_b = store.add("ff.bias", (cfg.lstm_units,))
        self.out_w = store.add("scorer.weight", (len(self.actions), cfg.lstm_units), order="F")
        self.out_b = store.add("scorer.bias", (len(self.actions),))
        store.allocate()

        if embeddings is not None:
            vectors, pretrained = embeddings
            if vectors.shape != self.word_emb.shape:
                raise core.DimensionMismatch(
                    f"pretrained embeddings have shape {vectors.shape}, model word_emb is "
                    f"{self.word_emb.shape}"
                )
            self.word_emb.value[...] = vectors
            if not cfg.finetune_embeddings:
                self.word_emb.frozen_rows = pretrained

    def token_ids(self, tokens) -> list:
        unk = self.token_vocab.index(UNK_TOKEN) if UNK_TOKEN in self.token_vocab else 0
        return [
            self.token_vocab.get(sym, unk)
            for sym in self.normalizer.normalize_sequence(tokens)
        ]


class Hypothesis:
    """A derivation in progress plus the encoder states that summarize it.

    ``stack_elems`` holds, per open non-terminal of ``state``, its label's
    vector and one per child.  ``stack_states[i]`` is the stack LSTM state
    after the first ``i`` symbols, so popping is jumping back to an earlier
    entry; cloning shallow-copies the lists and shares the per-example word
    vectors and precomputed buffer states.

    Training keeps the states as tape ``Var``s, decoding as plain arrays
    (see ``layers.Lstm``); :func:`start_hypothesis` picks by its ``tape``.
    :func:`advance` only queues the encoder inputs of an action: ``push``
    holds a word vector (SHIFT), a label index (NT) or the symbols a REDUCE
    composes, and ``action`` an action index.  They wait there until
    :func:`_run_queued` takes them, when :func:`encode_state` next scores
    the hypothesis.  Clone a hypothesis only while nothing is queued, except
    a forced one (see :func:`_forced`): nothing reads its encoders again, so
    its queued inputs are dropped unrun, and the stack bookkeeping of its
    REDUCEs works on stale lists that no longer match ``state`` and that
    nothing reads either.  ``n_actions`` counts the actions taken; decoding
    picks its encoder order by its parity.  ``gold_action_states``, set only
    by :func:`example_loss`, holds the action-LSTM state after each prefix
    of the gold actions, which :func:`_run_actions` then looks up instead of
    stepping the LSTM.
    """

    __slots__ = (
        "state",
        "score",
        "stack_states",
        "stack_elems",
        "action_state",
        "word_vecs",
        "buffer_outputs",
        "push",
        "action",
        "n_actions",
        "gold_action_states",
    )

    def __init__(self, state, score, stack_states, stack_elems, action_state, word_vecs,
                 buffer_outputs, n_actions=0):
        self.state = state
        self.score = score
        self.stack_states = stack_states
        self.stack_elems = stack_elems
        self.action_state = action_state
        self.word_vecs = word_vecs
        self.buffer_outputs = buffer_outputs
        self.push = None
        self.action = None
        self.n_actions = n_actions
        self.gold_action_states = None

    def clone(self) -> "Hypothesis":
        return Hypothesis(
            self.state,
            self.score,
            list(self.stack_states) if self.stack_states is not None else None,
            list(self.stack_elems) if self.stack_elems is not None else None,
            self.action_state,
            self.word_vecs,
            self.buffer_outputs,
            self.n_actions,
        )


def advance(model: Model, hyp: Hypothesis, action: Action, step_logp: float) -> None:
    """Apply one action, taken from the mask, to the hypothesis: the
    transition and the stack bookkeeping happen now, and the encoder inputs
    the action brings are queued for the next runner.  A REDUCE pops the
    open label and its children, counted in the transition state."""
    if model.config.use_stack:
        if action.op == "SHIFT":
            hyp.push = hyp.word_vecs[hyp.state.pos]
        elif action.op == "NT":
            hyp.push = model.label_index[action.label]
        else:  # REDUCE: compose the open label's vector and its children
            opened = len(hyp.stack_elems) - 1 - len(hyp.state.open_stack[-1].children)
            hyp.push = hyp.stack_elems[opened:]
            del hyp.stack_elems[opened:]
            del hyp.stack_states[opened + 1 :]
    hyp.action = model.action_index[action]
    hyp.n_actions += 1
    hyp.state = apply_unchecked(hyp.state, action)
    hyp.score = hyp.score + step_logp


def _rows(items):
    """One item per hypothesis, stacked into rows.  A batch of one is its
    item, as on a tape, where the batch is the one hypothesis being trained:
    a one-row product is the same vector-matrix product as the vector's,
    and numpy's elementwise ops cost less on a vector than on a one-row
    matrix.  (``np.array`` of a list stacks like ``np.stack``, at a third
    of the cost for a few small rows.)"""
    if len(items) == 1:
        return items[0]
    return np.array(items)


def _split(rows, n: int):
    """The inverse of :func:`_rows` for a batch of ``n``: one item per
    hypothesis."""
    return (rows,) if n == 1 else rows


def start_hypothesis(model: Model, tokens, tape=None) -> Hypothesis:
    """The hypothesis before the first action: on ``tape`` for training,
    or without one for decoding.  Here and in :func:`_run_queued`,
    :func:`encode_state` and :func:`example_loss`, dropout is the tape's."""
    tokens = tuple(tokens)
    state = initial_state(tokens)
    cfg = model.config
    word_vecs = buffer_outputs = None
    if cfg.use_stack or cfg.use_buffer:
        word_vecs = [layers.embedding_lookup(tape, model.word_emb, i)
                     for i in model.token_ids(tokens)]
    if cfg.use_buffer:
        # Encoded right to left: entry [pos] reflects the next token to
        # shift.  Only a forced hypothesis has pos == n, and nothing encodes
        # it, so there is no entry for the empty buffer.
        lstm = model.buffer_lstm
        states = lstm.run(tape, reversed(word_vecs))
        buffer_outputs = [lstm.output(s) for s in reversed(states)]
    return Hypothesis(
        state,
        0.0,
        [model.stack_lstm.initial(tape)] if cfg.use_stack else None,
        [] if cfg.use_stack else None,
        model.action_lstm.initial(tape) if cfg.use_actions else None,
        word_vecs,
        buffer_outputs,
    )


def _run_queued(model: Model, branches: list, tape=None) -> None:
    """Run the encoder inputs :func:`advance` queued, one row per
    hypothesis: one stack-LSTM step (after the REDUCEs compose together and
    the pushed labels project together) and one action-LSTM step.

    Decoding alternates which of the two runs first, by the parity of the
    actions taken, which is equal across the rows of a lockstep call.  The
    LSTM the previous step ran last then runs first, while its weights are
    still in cache: a decode step reads about 3.2 MB of f32 weights at the
    default shape (stack LSTM 1.46 MB, action LSTM 1.37 MB), more than a
    2 MB per-core L2 holds.  The two steps are independent, so the order
    changes no value.  On a tape the stack runs first: its dropout masks
    come first in the stream, and in training the action LSTM has already
    run (see :func:`example_loss`), so its step only looks the state up."""
    queued = [b for b in branches if b.action is not None]
    if not queued:
        return
    runs = (_run_stack, _run_actions)
    if tape is None and queued[0].n_actions % 2:
        runs = runs[::-1]
    for run in runs:
        run(model, queued, tape)
    for branch in queued:
        branch.action = None


def _run_stack(model: Model, queued: list, tape) -> None:
    """Push each queued symbol onto its hypothesis's stack LSTM."""
    if model.stack_lstm is None:
        return
    pushes = [b.push for b in queued]
    composed = [p for p in pushes if isinstance(p, list)]
    if composed:
        subtrees = iter(_split(model.compose.encode(tape, composed), len(composed)))
    opened = [p for p in pushes if isinstance(p, int)]
    if opened:
        emb = layers.embedding_lookup(tape, model.label_emb, _rows(opened))
        labels = iter(_split(core.linear(tape, model.label_proj_w, model.label_proj_b, emb),
                             len(opened)))
    pushed = []
    for p in pushes:
        if isinstance(p, list):
            pushed.append(next(subtrees))
        elif isinstance(p, int):
            pushed.append(next(labels))
        else:
            pushed.append(p)
    states = model.stack_lstm.step(tape, _rows(pushed),
                                   _rows([b.stack_states[-1] for b in queued]))
    for branch, vec, state in zip(queued, pushed, _split(states, len(queued))):
        branch.stack_elems.append(vec)
        branch.stack_states.append(state)
        branch.push = None


def _run_actions(model: Model, queued: list, tape) -> None:
    """Feed each queued action to its hypothesis's action LSTM.  The one
    hypothesis :func:`example_loss` trains ran it over its gold actions
    already: it looks up the state after the actions taken, and the tape's
    dropout moves past the masks this step would have drawn."""
    lstm = model.action_lstm
    if lstm is None:
        return
    ahead = queued[0].gold_action_states
    if ahead is not None:
        (branch,) = queued
        branch.action_state = ahead[branch.n_actions]
        tape.at += lstm.dropout_draws()
        return
    emb = layers.embedding_lookup(tape, model.action_emb, _rows([b.action for b in queued]))
    states = lstm.step(tape, emb, _rows([b.action_state for b in queued]))
    for branch, state in zip(queued, _split(states, len(queued))):
        branch.action_state = state


def _summary_parts(model: Model, branch: Hypothesis) -> list:
    """The outputs of the enabled encoders for one hypothesis, in
    ``ENCODERS`` order."""
    parts = []
    if model.stack_lstm is not None:
        parts.append(model.stack_lstm.output(branch.stack_states[-1]))
    if model.buffer_lstm is not None:
        parts.append(branch.buffer_outputs[branch.state.pos])
    if model.action_lstm is not None:
        parts.append(model.action_lstm.output(branch.action_state))
    return parts


def encode_state(model: Model, branches: list, tape=None):
    """Action logits over the full inventory, one row per hypothesis, after
    running what they queued: one feed-forward and one scorer product for
    all of them.  On a tape, ``branches`` is the one hypothesis being
    trained, its summary goes through the tape's dropout and the logits
    are its Var.  Without one, the summary rows are built by one stacking
    call.  Training and the decoders only pass hypotheses with a token
    left to shift (see :func:`_forced`), so the queued inputs of the last
    SHIFT and of every REDUCE after it never run."""
    _run_queued(model, branches, tape)
    if tape is None:
        summary = np.array([_summary_parts(model, b) for b in branches])
        summary = summary.reshape(len(branches), -1)
    else:
        (branch,) = branches
        summary = core.dropout(tape, core.concat(tape, _summary_parts(model, branch)))
    hidden = core.relu(tape, core.linear(tape, model.ff_w, model.ff_b, summary))
    return core.linear(tape, model.out_w, model.out_b, hidden)


def _forced(branch: Hypothesis) -> bool:
    """Whether the hypothesis has shifted its last token but not closed its
    root: the mask then allows only REDUCE, now and at every step left."""
    state = branch.state
    return state.pos == len(state.tokens) and state.root is None


def _valid_indices(model: Model, state) -> np.ndarray:
    return model.mask_indices[valid_actions(state, model.config.max_open_nts)]


def _run_gold_actions(model: Model, tokens, gold_actions, tape, at: int, stride: int) -> list:
    """The action-LSTM states on ``tape`` after each prefix of the gold
    actions that a scored step reads: the initial state, then one per
    action before the step that shifts the last token, the last one scored
    (or before the last action, if the gold shifts fewer tokens).  The step
    of action i takes its dropout masks at ``at + i * stride``."""
    lstm = model.action_lstm
    states = [lstm.initial(tape)]
    unshifted = len(tokens)
    for i, action in enumerate(gold_actions[:-1]):
        if action == SHIFT:
            unshifted -= 1
            if not unshifted:
                break
        tape.at = at + i * stride
        emb = layers.embedding_lookup(tape, model.action_emb, model.action_index[action])
        states.append(lstm.step(tape, emb, states[-1]))
    return states


def example_loss(model: Model, tokens, gold_actions, tape):
    """Teacher-forced loss: the sum over steps of masked softmax NLL.

    A forced step (see :func:`_forced`) only goes through :func:`advance`:
    its one valid action is REDUCE, so it adds exactly 0 with no gradient,
    even where its logits would not be finite, and a gold action other
    than REDUCE raises ``GoldMasked``.  Nor does the last action's queued
    input run, since nothing reads it.

    Before the step loop, the action LSTM runs over the gold actions (see
    :func:`_run_gold_actions`), and the steps look its states up.  The tape
    draws the example's dropout values in one block, as many as scoring
    every step draws, forced steps included, laid out in the order scoring
    every step draws them: the buffer's masks, step 0's summary mask, then
    per action a frame of the stack and action masks of the next step's
    queue and that step's summary mask.  Each site takes its masks at its
    position, so every mask, and where the stream ends, is what drawing
    them one op at a time in that order gives."""
    tokens = tuple(tokens)
    cfg = model.config
    buffer, stack, actions = (
        0 if lstm is None else lstm.dropout_draws()
        for lstm in (model.buffer_lstm, model.stack_lstm, model.action_lstm)
    )
    summary = cfg.lstm_units * len(cfg.enabled_encoders)
    frame = stack + actions + summary
    buffer_end = len(tokens) * buffer
    tape.draw(buffer_end + len(gold_actions) * frame)
    hyp = start_hypothesis(model, tokens, tape)
    if model.action_lstm is not None:
        hyp.gold_action_states = _run_gold_actions(
            model, tokens, gold_actions, tape, buffer_end + summary + stack, frame)
        tape.at = buffer_end
    losses = []
    for action in gold_actions:
        if _forced(hyp):
            if action != REDUCE:
                raise core.GoldMasked(f"gold action {action} is not the forced REDUCE")
        else:
            indices = _valid_indices(model, hyp.state)
            logits = encode_state(model, [hyp], tape)
            losses.append(core.masked_nll(tape, logits, model.action_index[action], indices))
        advance(model, hyp, action, 0.0)
    return core.add_n(tape, losses)


def train_example(model: Model, example, rng) -> float:
    """One forward/backward/update step on a single example, on a tape
    that drops at the configured rate from ``rng``; a loss that is not
    finite raises ``NonFiniteLoss`` before any update."""
    gold_actions = oracle(example.tree)
    tape = core.Tape(rng, model.config.dropout)
    loss = example_loss(model, example.tokens, gold_actions, tape)
    if not np.isfinite(loss.value):
        raise NonFiniteLoss(f"loss is {loss.value} on example {example.raw_utterance!r}")
    model.store.backward(tape, loss)
    model.store.adam_step(model.config.lr, model.config.weight_decay)
    return float(loss.value)


def train(model: Model, corpus: Corpus, epochs: Optional[int] = None, rng=None,
          epoch_callback=None) -> list:
    """Teacher-force the oracle sequences with per-example Adam updates.

    Examples are reshuffled every epoch from the model seed (pass ``rng``
    to continue an existing stream), so a seed fixes the result bit for
    bit.  Returns the per-epoch mean example loss.  A non-finite example
    loss raises ``NonFiniteLoss`` naming the epoch and the example (its
    1-based position in ``corpus``), with the model as that example found it.
    """
    if epochs is None:
        epochs = model.config.epochs
    if rng is None:
        rng = np.random.default_rng([model.config.seed, 1])
    order = np.arange(len(corpus.examples))
    trace = []
    for epoch in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            try:
                total += train_example(model, corpus.examples[idx], rng)
            except NonFiniteLoss as err:
                raise NonFiniteLoss(f"epoch {epoch + 1}, example {idx + 1}: {err}") from None
        trace.append(total / len(corpus.examples))
        if epoch_callback is not None:
            epoch_callback(epoch, trace[-1])
    return trace


def _step_log_probs(model: Model, branches: list, masks: list) -> list:
    """Per hypothesis, the log-probabilities of the action indices in its
    mask.  The unforced ones are scored as rows of one
    :func:`encode_state` call; a forced one gets log 1 = 0 for its only
    action, REDUCE, and is neither encoded nor scored."""
    forced = [_forced(b) for b in branches]
    scored = [b for b, f in zip(branches, forced) if not f]
    rows = iter(encode_state(model, scored)) if scored else None
    return [
        np.zeros(1, dtype=model.store.dtype) if f
        else core.masked_log_probs(next(rows), indices)
        for f, indices in zip(forced, masks)
    ]


def _decode_guard(n_tokens: int, max_open: int) -> int:
    return (n_tokens + 2) * (2 * max_open + 2) + 16


def parse_greedy(model: Model, tokens) -> tuple:
    """Highest-scoring action at every step; returns (tree, log-probability).

    Ties break toward the lowest action index (SHIFT < REDUCE < NT in
    inventory order).  The mask plus the open-non-terminal cap guarantee
    termination with a well-formed tree for any parameter values.  The
    forced REDUCEs after the last SHIFT each add exactly 0.
    """
    tokens = tuple(tokens)
    branch = start_hypothesis(model, tokens)
    for _ in range(_decode_guard(len(tokens), model.config.max_open_nts)):
        if branch.state.is_terminal:
            break
        indices = _valid_indices(model, branch.state)
        (logps,) = _step_log_probs(model, [branch], [indices])
        best = int(np.argmax(logps))
        advance(model, branch, model.actions[indices[best]], float(logps[best]))
    else:
        raise RuntimeError("greedy decode failed to terminate")
    return Tree(branch.state.root, tokens), branch.score


def parse_beam(model: Model, tokens, k: int) -> list:
    """Beam search over action prefixes; returns up to ``k`` (tree, score)
    pairs sorted by descending cumulative log-probability.

    All live branches are scored and advanced in lockstep, one row each.
    Expansions rank by score, then source branch, then action index.
    Hypotheses completing early are set aside and compete for the final
    ranking; the search stops once no live hypothesis can beat the k-th
    completed score.  With ``k=1`` this reproduces greedy decoding exactly.
    A forced branch (buffer empty) keeps its slot: its one expansion,
    REDUCE with step log-probability 0, ranks like any other.
    """
    tokens = tuple(tokens)
    if k < 1:
        raise ValueError("beam size must be at least 1")
    live = [start_hypothesis(model, tokens)]
    completed: list = []
    for _ in range(_decode_guard(len(tokens), model.config.max_open_nts)):
        if not live:
            break
        masks = [_valid_indices(model, branch.state) for branch in live]
        totals, sources, actions, steps = [], [], [], []
        for src, (branch, indices, logps) in enumerate(
            zip(live, masks, _step_log_probs(model, live, masks))
        ):
            logps = logps.astype(np.float64)
            totals.append(branch.score + logps)
            sources.append(np.full(len(indices), src))
            actions.append(indices)
            steps.append(logps)
        totals = np.concatenate(totals)
        sources = np.concatenate(sources)
        actions = np.concatenate(actions)
        steps = np.concatenate(steps)
        next_live = []
        for j in np.lexsort((actions, sources, -totals))[:k]:
            branch = live[sources[j]].clone()
            advance(model, branch, model.actions[actions[j]], float(steps[j]))
            if branch.state.is_terminal:
                completed.append(branch)
            else:
                next_live.append(branch)
        completed.sort(key=lambda h: -h.score)
        del completed[k:]
        live = next_live
        if len(completed) >= k and live:
            best_live = max(h.score for h in live)
            if best_live <= completed[k - 1].score:
                break
    else:
        raise RuntimeError("beam decode failed to terminate")
    return [(Tree(h.state.root, tokens), h.score) for h in completed[:k]]


def exact_match_rate(model: Model, examples) -> float:
    """Fraction of examples whose greedy parse equals the gold tree."""
    hits = 0
    for example in examples:
        predicted, _ = parse_greedy(model, example.tokens)
        hits += predicted == example.tree
    return hits / len(examples) if examples else 0.0


def save_model(model: Model, path) -> None:
    arrays = dict(model.store.value_arrays())
    if model.word_emb.frozen_rows is not None:
        arrays["word_emb.frozen_rows"] = model.word_emb.frozen_rows.astype(np.uint8)
    meta = {
        "format": MODEL_FORMAT,
        "model_version": MODEL_VERSION,
        "config": asdict(model.config),
        "token_vocab": list(model.token_vocab.symbols),
        "intent_labels": [str(label) for label in model.intent_labels],
        "slot_labels": [str(label) for label in model.slot_labels],
        "normalizer": model.normalizer.to_config(),
    }
    save_checkpoint(path, arrays, meta)


def _meta_strings(path, meta: dict, key: str) -> list:
    value = meta.get(key)
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise CheckpointError(f"checkpoint meta {key!r} must be a list of strings", path)
    return value


def _meta_labels(path, meta: dict, key: str, kind: str) -> tuple:
    labels = []
    for text in _meta_strings(path, meta, key):
        try:
            label = Label.parse(text)
        except ValueError:
            raise CheckpointError(f"bad label {text!r} in {key!r}", path) from None
        if label.kind != kind:
            raise CheckpointError(f"{key!r} holds {text!r}, which is not a {kind}: label", path)
        labels.append(label)
    return tuple(labels)


def load_model(path) -> Model:
    """Read a checkpoint written by :func:`save_model`; anything missing,
    mistyped or inconsistent raises ``CheckpointError`` naming ``path``,
    the refusals of ``ParamStore.load_values`` among them."""
    arrays, meta = load_checkpoint(path)
    if meta.get("format") != MODEL_FORMAT:
        raise CheckpointError("not a parser checkpoint", path)
    if meta.get("model_version") != MODEL_VERSION:
        raise CheckpointError(f"model version {meta.get('model_version')} unsupported", path)
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError("checkpoint meta 'config' must be an object", path)
    try:
        config = RnngConfig(**meta["config"])
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"bad model config: {err}", path) from None
    try:
        token_vocab = Vocab(_meta_strings(path, meta, "token_vocab"))
    except ValueError as err:
        raise CheckpointError(f"bad token vocabulary: {err}", path) from None
    intents = _meta_labels(path, meta, "intent_labels", INTENT)
    slots = _meta_labels(path, meta, "slot_labels", SLOT)
    if not isinstance(meta.get("normalizer"), dict):
        raise CheckpointError("checkpoint meta 'normalizer' must be an object", path)
    known = _meta_strings(path, meta["normalizer"], "known")
    model = Model(config, token_vocab, intents, slots, TokenNormalizer(frozenset(known)))
    frozen = arrays.pop("word_emb.frozen_rows", None)
    try:
        model.store.load_values(arrays)
    except CheckpointError as err:
        raise CheckpointError(err.message, path) from None
    if frozen is not None:
        if frozen.shape != (len(token_vocab),):
            raise CheckpointError(
                f"word_emb.frozen_rows has shape {frozen.shape}, expected ({len(token_vocab)},)",
                path,
            )
        model.word_emb.frozen_rows = frozen.astype(bool)
    return model
