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
Adam updates, on a tape.  Inference is greedy or beam search over action
prefixes, forward-only: every live hypothesis is one row of each matrix
product, so beam search scores and advances all of them at once.  Both
step a :class:`Hypothesis` with the same :func:`advance`, which does the
bookkeeping and queues the encoder inputs; each executor runs the queue
its own way, on the same parameters and the same vector-matrix products,
so the taped and the decoded logits of a step are bitwise equal.

Once a hypothesis has shifted its last token, the mask allows only REDUCE
until the tree closes.  The decoders take that forced tail through the
same :func:`advance` with log-probability exactly log 1 = 0, and neither
encode nor score it: for finite logits this is the score the masked
softmax gives, and with non-finite logits a forced step adds 0 where the
softmax would give NaN.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .dataset import Corpus, Vocab
from .neural import core, layers
from .neural.params import CheckpointError, ParamStore, load_checkpoint, save_checkpoint
from .preprocess import TokenNormalizer, UNK_TOKEN
from .transitions import (
    DEFAULT_MAX_OPEN_NTS,
    Action,
    ActionKind,
    EmptyUtterance,
    REDUCE,
    SHIFT,
    apply,  # noqa: F401 - kept importable as rnng.apply
    apply_unchecked,
    initial_state,
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


@dataclass(frozen=True)
class RnngConfig:
    """Model and training configuration.

    ``precision`` selects float32 (training default) or float64 (gradient
    checking).  ``use_*`` flags ablate individual state encoders; at least
    one must stay enabled.
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
        for name in ("word_dim", "label_dim", "action_dim", "lstm_units", "lstm_layers"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (self.use_stack or self.use_buffer or self.use_actions):
            raise AllEncodersDisabled("at least one state encoder must be enabled")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.epochs < 0 or self.beam_size < 1 or self.max_open_nts < 1:
            raise ValueError("bad epochs/beam_size/max_open_nts")
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


def ablate(config: RnngConfig, component: str) -> RnngConfig:
    """Return a config with the named encoder (stack/buffer/actions) off;
    turning off the last one raises ``AllEncodersDisabled``."""
    if component not in ENCODERS:
        raise ValueError(f"unknown encoder {component!r}; expected one of {ENCODERS}")
    return replace(config, **{f"use_{component}": False})


class Model:
    """Configuration, vocabularies, and all learned parameters."""

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

        n_intents = len(self.intent_labels)
        n_slots = len(self.slot_labels)
        self._kind_indices = {
            ActionKind.SHIFT: [0],
            ActionKind.REDUCE: [1],
            ActionKind.NT_INTENT: list(range(2, 2 + n_intents)),
            ActionKind.NT_SLOT: list(range(2 + n_intents, 2 + n_intents + n_slots)),
        }

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
            self._load_pretrained(embeddings)
        self._indices_by_kinds = {}

    def _load_pretrained(self, table) -> None:
        if table.dim != self.config.word_dim:
            raise core.DimensionMismatch(
                f"pretrained embeddings have dim {table.dim}, model word_dim is "
                f"{self.config.word_dim}"
            )
        missing = set(table.missing)
        frozen = np.zeros(len(self.token_vocab), dtype=bool)
        for i, word in enumerate(self.token_vocab):
            if word in table:
                self.word_emb.value[i] = np.asarray(table[word], dtype=self.config.dtype)
                frozen[i] = word not in missing
        if not self.config.finetune_embeddings:
            self.word_emb.frozen_rows = frozen

    def action_indices(self, kinds: frozenset) -> np.ndarray:
        """Ascending action indices permitted by a set of ActionKinds
        (read-only; one array per distinct set)."""
        indices = self._indices_by_kinds.get(kinds)
        if indices is None:
            out = []
            for kind in (ActionKind.SHIFT, ActionKind.REDUCE, ActionKind.NT_INTENT,
                         ActionKind.NT_SLOT):
                if kind in kinds:
                    out.extend(self._kind_indices[kind])
            indices = np.asarray(out, dtype=np.intp)
            indices.flags.writeable = False
            self._indices_by_kinds[kinds] = indices
        return indices

    def token_ids(self, tokens) -> list:
        unk = self.token_vocab.index(UNK_TOKEN) if UNK_TOKEN in self.token_vocab else 0
        return [
            self.token_vocab.get(sym, unk)
            for sym in self.normalizer.normalize_sequence(tokens)
        ]


class Hypothesis:
    """A derivation in progress plus the encoder states that summarize it.

    ``stack_states[i]`` is the stack LSTM state after the first ``i``
    symbols, so popping is jumping back to an earlier entry; cloning
    shallow-copies the lists and shares the per-example word vectors and
    precomputed buffer states.

    Training keeps the states as tape ``Var``s, decoding as plain arrays
    (see ``layers.Lstm``).  :func:`advance` only queues the encoder
    inputs of an action: ``push`` holds a word vector (SHIFT), a label index
    (NT) or the symbols a REDUCE composes, and ``action`` an action index.
    They wait there until a runner takes them: :func:`encode_state` on the
    tape, or :func:`_run_queued` for all live hypotheses of a decode step at
    once.  Clone a hypothesis only while nothing is queued, except a forced
    one (see :func:`_forced`): nothing reads its encoders again, so its
    queued inputs are dropped unrun, and the stack bookkeeping of its
    REDUCEs works on stale lists that nothing reads either.
    """

    __slots__ = (
        "state",
        "score",
        "stack_states",
        "stack_elems",
        "open_elem_pos",
        "action_state",
        "word_vecs",
        "buffer_outputs",
        "push",
        "action",
    )

    def __init__(self, state, score, stack_states, stack_elems, open_elem_pos,
                 action_state, word_vecs, buffer_outputs):
        self.state = state
        self.score = score
        self.stack_states = stack_states
        self.stack_elems = stack_elems
        self.open_elem_pos = open_elem_pos
        self.action_state = action_state
        self.word_vecs = word_vecs
        self.buffer_outputs = buffer_outputs
        self.push = None
        self.action = None

    def clone(self) -> "Hypothesis":
        return Hypothesis(
            self.state,
            self.score,
            list(self.stack_states) if self.stack_states is not None else None,
            list(self.stack_elems) if self.stack_elems is not None else None,
            list(self.open_elem_pos) if self.open_elem_pos is not None else None,
            self.action_state,
            self.word_vecs,
            self.buffer_outputs,
        )


def advance(model: Model, hyp: Hypothesis, action: Action, step_logp: float) -> None:
    """Apply one action, taken from the mask, to the hypothesis: the
    transition and the stack bookkeeping happen now, and the encoder inputs
    the action brings are queued for the next runner."""
    if model.config.use_stack:
        if action.op == "SHIFT":
            hyp.push = hyp.word_vecs[hyp.state.pos]
        elif action.op == "NT":
            hyp.open_elem_pos.append(len(hyp.stack_elems))
            hyp.push = model.label_index[action.label]
        else:  # REDUCE: compose the open label's vector and its children
            opened = hyp.open_elem_pos.pop()
            hyp.push = hyp.stack_elems[opened:]
            del hyp.stack_elems[opened:]
            del hyp.stack_states[opened + 1 :]
    hyp.action = model.action_index[action]
    hyp.state = apply_unchecked(hyp.state, action)
    hyp.score = hyp.score + step_logp


def start_hypothesis(model: Model, tokens, tape, rng=None) -> Hypothesis:
    """The hypothesis before the first action, for training on ``tape``.
    Here and in :func:`encode_state` and :func:`example_loss`, dropout is
    on exactly when ``rng`` is given."""
    tokens = tuple(tokens)
    state = initial_state(tokens)
    cfg = model.config
    dropout = cfg.dropout if rng is not None else 0.0
    needs_words = cfg.use_stack or cfg.use_buffer
    word_vecs = None
    if needs_words:
        ids = model.token_ids(tokens)
        word_vecs = [layers.embedding_lookup(tape, model.word_emb, i) for i in ids]
    buffer_outputs = None
    if cfg.use_buffer:
        # Encoded right to left: entry [pos] reflects the next token to
        # shift; entry [n] is the learned empty-buffer state.
        states = model.buffer_lstm.run(tape, reversed(word_vecs), dropout, rng)
        outputs = [model.buffer_lstm.output(s) for s in states]
        outputs.reverse()
        outputs.append(model.buffer_lstm.output(model.buffer_lstm.initial()))
        buffer_outputs = outputs
    stack_states = [model.stack_lstm.initial()] if cfg.use_stack else None
    stack_elems = [] if cfg.use_stack else None
    open_elem_pos = [] if cfg.use_stack else None
    action_state = model.action_lstm.initial() if cfg.use_actions else None
    return Hypothesis(
        state, 0.0, stack_states, stack_elems, open_elem_pos, action_state, word_vecs,
        buffer_outputs,
    )


def _run_taped(model: Model, hyp: Hypothesis, tape, rng) -> None:
    """Run the encoder inputs :func:`advance` queued, on the tape."""
    if hyp.action is None:
        return
    cfg = model.config
    dropout = cfg.dropout if rng is not None else 0.0
    if cfg.use_stack:
        vec = hyp.push
        if isinstance(vec, list):
            vec = model.compose.encode(tape, vec)
        elif isinstance(vec, int):
            emb = layers.embedding_lookup(tape, model.label_emb, vec)
            vec = core.linear(tape, model.label_proj_w, model.label_proj_b, emb)
        hyp.stack_states.append(
            model.stack_lstm.step(tape, vec, hyp.stack_states[-1], dropout, rng)
        )
        hyp.stack_elems.append(vec)
        hyp.push = None
    if cfg.use_actions:
        emb = layers.embedding_lookup(tape, model.action_emb, hyp.action)
        hyp.action_state = model.action_lstm.step(tape, emb, hyp.action_state, dropout, rng)
    hyp.action = None


def encode_state(model: Model, hyp: Hypothesis, tape, rng=None):
    """Action logits for the current state (over the full inventory)."""
    _run_taped(model, hyp, tape, rng)
    cfg = model.config
    parts = []
    if cfg.use_stack:
        parts.append(model.stack_lstm.output(hyp.stack_states[-1]))
    if cfg.use_buffer:
        parts.append(hyp.buffer_outputs[hyp.state.pos])
    if cfg.use_actions:
        parts.append(model.action_lstm.output(hyp.action_state))
    summary = core.concat(tape, parts)
    if rng is not None and cfg.dropout > 0.0:
        summary = core.dropout(tape, summary, cfg.dropout, rng)
    hidden = core.relu(tape, core.linear(tape, model.ff_w, model.ff_b, summary))
    return core.linear(tape, model.out_w, model.out_b, hidden)


def example_loss(model: Model, tokens, gold_actions, tape, rng=None):
    """Teacher-forced loss: the sum over steps of masked softmax NLL."""
    hyp = start_hypothesis(model, tokens, tape, rng)
    losses = []
    for action in gold_actions:
        kinds = valid_actions(hyp.state, model.config.max_open_nts)
        indices = model.action_indices(kinds)
        logits = encode_state(model, hyp, tape, rng)
        losses.append(core.masked_nll(tape, logits, model.action_index[action], indices))
        advance(model, hyp, action, 0.0)
    # Nothing reads the last action's encoder states, but running them keeps
    # the dropout masks of every later example where they were.
    _run_taped(model, hyp, tape, rng)
    return core.add_n(tape, losses)


def train_example(model: Model, example, rng) -> float:
    """One forward/backward/update step on a single example."""
    gold_actions = oracle(example.tree)
    tape = core.Tape()
    loss = example_loss(model, example.tokens, gold_actions, tape, rng)
    model.store.zero_grad()
    tape.backward(loss)
    model.store.adam_step(model.config.lr, model.config.weight_decay)
    return float(loss.value)


def train(model: Model, corpus: Corpus, epochs: Optional[int] = None, rng=None,
          epoch_callback=None) -> list:
    """Teacher-force the oracle sequences with per-example Adam updates.

    Examples are reshuffled every epoch from the model seed (pass ``rng``
    to continue an existing stream), so a seed fixes the result bit for
    bit.  Returns the per-epoch mean example loss.
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
            total += train_example(model, corpus.examples[idx], rng)
        trace.append(total / len(corpus.examples))
        if epoch_callback is not None:
            epoch_callback(epoch, trace[-1])
    return trace


def _start_branch(model: Model, tokens: tuple) -> Hypothesis:
    state = initial_state(tokens)
    cfg = model.config
    word_vecs = buffer_outputs = None
    if cfg.use_stack or cfg.use_buffer:
        word_vecs = model.word_emb.value[model.token_ids(tokens)]
    if cfg.use_buffer:
        # Encoded right to left: entry [pos] reflects the next token to
        # shift; entry [n] is the learned empty-buffer state.
        outputs = model.buffer_lstm.output_rows(word_vecs[::-1])
        empty = model.buffer_lstm.initial_rows(1)[:, -1, 0]
        buffer_outputs = np.concatenate([outputs[::-1], empty])
    return Hypothesis(
        state,
        0.0,
        [model.stack_lstm.initial_rows(1)[0]] if cfg.use_stack else None,
        [] if cfg.use_stack else None,
        [] if cfg.use_stack else None,
        model.action_lstm.initial_rows(1)[0] if cfg.use_actions else None,
        word_vecs,
        buffer_outputs,
    )


def _run_queued(model: Model, branches: list) -> None:
    """Run the encoder inputs the hypotheses have queued, one row each: the
    REDUCEs compose together and the pushed labels project together, then
    one stack-LSTM and one action-LSTM product per layer.  (``np.array`` of
    a list stacks like ``np.stack``, at a third of the cost for a few small
    rows.)"""
    queued = [b for b in branches if b.action is not None]
    if not queued:
        return
    cfg = model.config
    if cfg.use_stack:
        composed = [b.push for b in queued if isinstance(b.push, list)]
        subtrees = iter(model.compose.encode_rows(composed)) if composed else None
        opened = [b.push for b in queued if isinstance(b.push, int)]
        labels = iter(core.linear_rows(model.label_emb.value[opened], model.label_proj_w.value.T,
                                       model.label_proj_b.value)) if opened else None
        pushed = []
        for b in queued:
            if isinstance(b.push, list):
                pushed.append(next(subtrees))
            elif isinstance(b.push, int):
                pushed.append(next(labels))
            else:
                pushed.append(b.push)
        states = model.stack_lstm.step_rows(
            np.array(pushed), np.array([b.stack_states[-1] for b in queued])
        )
        for branch, vec, state in zip(queued, pushed, states):
            branch.stack_elems.append(vec)
            branch.stack_states.append(state)
            branch.push = None
    if cfg.use_actions:
        states = model.action_lstm.step_rows(
            model.action_emb.value[[b.action for b in queued]],
            np.array([b.action_state for b in queued]),
        )
        for branch, state in zip(queued, states):
            branch.action_state = state
    for branch in queued:
        branch.action = None


def _branch_logits(model: Model, branches: list) -> np.ndarray:
    """Action logits over the full inventory, one row per hypothesis: one
    feed-forward and one scorer product for all of them.  The decoders only
    pass hypotheses with a token left to shift (see :func:`_step_log_probs`),
    so the queued inputs of the last SHIFT and of every REDUCE after it
    never run."""
    _run_queued(model, branches)
    cfg = model.config
    summary = np.empty((len(branches), model.ff_w.shape[1]), dtype=model.store.dtype)
    for row, b in zip(summary, branches):
        parts = []
        if cfg.use_stack:
            parts.append(b.stack_states[-1][-1, 0])
        if cfg.use_buffer:
            parts.append(b.buffer_outputs[b.state.pos])
        if cfg.use_actions:
            parts.append(b.action_state[-1, 0])
        np.concatenate(parts, out=row)
    hidden = np.maximum(core.linear_rows(summary, model.ff_w.value.T, model.ff_b.value), 0)
    return core.linear_rows(hidden, model.out_w.value.T, model.out_b.value)


def _valid_indices(model: Model, state) -> np.ndarray:
    return model.action_indices(valid_actions(state, model.config.max_open_nts))


def _forced(branch: Hypothesis) -> bool:
    """Whether the hypothesis has shifted its last token but not closed its
    root: the mask then allows only REDUCE, now and at every step left."""
    state = branch.state
    return state.pos == len(state.tokens) and state.root is None


def _step_log_probs(model: Model, branches: list, masks: list) -> list:
    """Per hypothesis, the log-probabilities of the action indices in its
    mask.  The unforced ones are scored as rows of one
    :func:`_branch_logits` call; a forced one gets log 1 = 0 for its only
    action, REDUCE, and is neither encoded nor scored."""
    forced = [_forced(b) for b in branches]
    scored = [b for b, f in zip(branches, forced) if not f]
    rows = iter(_branch_logits(model, scored)) if scored else None
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
    if not tokens:
        raise EmptyUtterance("cannot parse an empty utterance")
    branch = _start_branch(model, tokens)
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
    if not tokens:
        raise EmptyUtterance("cannot parse an empty utterance")
    if k < 1:
        raise ValueError("beam size must be at least 1")
    live = [_start_branch(model, tokens)]
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


def score_actions(model: Model, tokens, actions) -> float:
    """Recompute the cumulative masked log-probability of an action
    sequence under the model (evaluation mode); equal to the score a
    decoder reports for the same derivation, forced REDUCEs included."""
    tokens = tuple(tokens)
    branch = _start_branch(model, tokens)
    total = 0.0
    for action in actions:
        indices = _valid_indices(model, branch.state)
        position = np.nonzero(indices == model.action_index[action])[0]
        if position.size == 0:
            raise ValueError(f"action {action} is masked out at this step")
        (logps,) = _step_log_probs(model, [branch], [indices])
        total = total + float(logps[int(position[0])])
        advance(model, branch, action, 0.0)
    return total


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
        raise CheckpointError(f"{path}: checkpoint meta {key!r} must be a list of strings")
    return value


def _meta_labels(path, meta: dict, key: str, kind: str) -> tuple:
    labels = []
    for text in _meta_strings(path, meta, key):
        try:
            label = Label.parse(text)
        except ValueError:
            raise CheckpointError(f"{path}: bad label {text!r} in {key!r}") from None
        if label.kind != kind:
            raise CheckpointError(f"{path}: {key!r} holds {text!r}, which is not a {kind}: label")
        labels.append(label)
    return tuple(labels)


def load_model(path) -> Model:
    """Read a checkpoint written by :func:`save_model`; anything missing,
    mistyped or inconsistent raises ``CheckpointError``."""
    arrays, meta = load_checkpoint(path)
    if meta.get("format") != MODEL_FORMAT:
        raise CheckpointError(f"{path}: not a parser checkpoint")
    if meta.get("model_version") != MODEL_VERSION:
        raise CheckpointError(
            f"{path}: model version {meta.get('model_version')} unsupported"
        )
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: checkpoint meta 'config' must be an object")
    try:
        config = RnngConfig(**meta["config"])
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: bad model config: {err}") from None
    try:
        token_vocab = Vocab(_meta_strings(path, meta, "token_vocab"))
    except ValueError as err:
        raise CheckpointError(f"{path}: bad token vocabulary: {err}") from None
    intents = _meta_labels(path, meta, "intent_labels", INTENT)
    slots = _meta_labels(path, meta, "slot_labels", SLOT)
    if not isinstance(meta.get("normalizer"), dict):
        raise CheckpointError(f"{path}: checkpoint meta 'normalizer' must be an object")
    known = _meta_strings(path, meta["normalizer"], "known")
    model = Model(config, token_vocab, intents, slots, TokenNormalizer(frozenset(known)))
    frozen = arrays.pop("word_emb.frozen_rows", None)
    model.store.load_values(arrays)
    if frozen is not None:
        if frozen.shape != (len(token_vocab),):
            raise CheckpointError(
                f"{path}: word_emb.frozen_rows has shape {frozen.shape}, expected "
                f"({len(token_vocab)},)"
            )
        model.word_emb.frozen_rows = frozen.astype(bool)
    return model
