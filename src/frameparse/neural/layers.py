"""Layers composed from the core ops: embeddings, multi-layer LSTMs with
learned initial states, and the bidirectional sequence encoder."""

from __future__ import annotations

import numpy as np

from . import core
from .core import EmptySequence, Var


def embedding_lookup(tape, table: Var, index: int) -> Var:
    out = Var(table.value[index].copy())

    def backward():
        g = out.grad
        if g is None:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        table.grad[index] += g

    tape.record(backward)
    return out


class Lstm:
    """A stack of LSTM layers driven one step at a time.

    States are immutable tuples of per-layer (h, c) Vars, so a state can be
    kept, branched, or popped back to at any time; that is what makes the
    persistent stack encoder work.  ``forget_bias`` pre-loads the forget
    gate, a standard stabilizer.
    """

    def __init__(self, store, prefix: str, input_dim: int, hidden_dim: int,
                 num_layers: int, forget_bias: float = 1.0):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.layers = []
        for layer in range(num_layers):
            in_dim = input_dim if layer == 0 else hidden_dim
            weight = store.add(f"{prefix}.l{layer}.weight", (4 * hidden_dim, in_dim + hidden_dim))
            bias = store.add(f"{prefix}.l{layer}.bias", (4 * hidden_dim,))
            bias.value[hidden_dim : 2 * hidden_dim] = forget_bias
            h0 = store.add(f"{prefix}.l{layer}.h0", (hidden_dim,))
            c0 = store.add(f"{prefix}.l{layer}.c0", (hidden_dim,))
            self.layers.append((weight, bias, h0, c0))

    def initial(self) -> tuple:
        """The learned empty-sequence state."""
        return tuple((h0, c0) for (_, _, h0, c0) in self.layers)

    def step(self, tape, x: Var, state: tuple, dropout: float = 0.0, rng=None) -> tuple:
        inp = x
        new_state = []
        for layer, (weight, bias, _, _) in enumerate(self.layers):
            if layer > 0 and dropout > 0.0:
                inp = core.dropout(tape, inp, dropout, rng)
            h, c = core.lstm_cell(tape, weight, bias, inp, state[layer][0], state[layer][1])
            new_state.append((h, c))
            inp = h
        return tuple(new_state)

    def output(self, state: tuple) -> Var:
        return state[-1][0]

    def run(self, tape, inputs, dropout: float = 0.0, rng=None) -> list:
        """Feed a whole sequence; returns the state after every element."""
        state = self.initial()
        states = []
        for x in inputs:
            state = self.step(tape, x, state, dropout, rng)
            states.append(state)
        return states


class LstmRows:
    """A forward-only copy of an :class:`Lstm` that steps many rows at once.

    Each layer keeps its weight as a contiguous transpose (what
    :func:`core.lstm_rows` takes) and a reference to its bias.  A state is
    one array of shape (layers, 2, hidden) holding each layer's (h, c); a
    batch of states stacks them to (B, layers, 2, hidden).  The copy is only
    valid for the parameter values it was made from.
    """

    def __init__(self, lstm: Lstm):
        self.layers = [
            (np.ascontiguousarray(weight.value.T), bias.value)
            for weight, bias, _, _ in lstm.layers
        ]
        self.initial = np.stack([np.stack([h0.value, c0.value]) for _, _, h0, c0 in lstm.layers])

    def step(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Feed row i of ``x`` to state i; returns the new states."""
        new = np.empty_like(state)
        inp = x
        for layer, (weight_t, bias) in enumerate(self.layers):
            h = new[:, layer, 0]
            core.lstm_rows(weight_t, bias, inp, state[:, layer, 0], state[:, layer, 1],
                           h, new[:, layer, 1])
            inp = h
        return new

    def outputs(self, inputs: np.ndarray) -> np.ndarray:
        """Top-layer hidden state after each row of one sequence."""
        out = np.empty((len(inputs), self.initial.shape[-1]), dtype=self.initial.dtype)
        state = self.initial[None]
        for t in range(len(inputs)):
            state = self.step(inputs[t : t + 1], state)
            out[t] = state[0, -1, 0]
        return out

    def finals(self, sequences) -> np.ndarray:
        """Top-layer hidden state at the end of each sequence (a list of
        non-empty lists of vectors), stepping all of them in lockstep."""
        order = sorted(range(len(sequences)), key=lambda i: -len(sequences[i]))
        ordered = [sequences[i] for i in order]
        state = np.repeat(self.initial[None], len(ordered), axis=0)
        active = len(ordered)
        for t in range(len(ordered[0])):
            while len(ordered[active - 1]) <= t:
                active -= 1  # the longest sequences come first
            x = np.array([seq[t] for seq in ordered[:active]])
            if active == len(ordered):
                state = self.step(x, state)
            else:
                state[:active] = self.step(x, state[:active])
        out = np.empty_like(state[:, -1, 0])
        out[order] = state[:, -1, 0]
        return out


class BiLstmEncoder:
    """Reads a sequence both ways and projects the two final hidden states
    to a fixed-width summary."""

    def __init__(self, store, prefix: str, input_dim: int, hidden_dim: int,
                 output_dim: int, num_layers: int = 1):
        self.fwd = Lstm(store, f"{prefix}.fwd", input_dim, hidden_dim, num_layers)
        self.bwd = Lstm(store, f"{prefix}.bwd", input_dim, hidden_dim, num_layers)
        self.proj_weight = store.add(f"{prefix}.proj.weight", (output_dim, 2 * hidden_dim))
        self.proj_bias = store.add(f"{prefix}.proj.bias", (output_dim,))
        self.output_dim = output_dim

    def encode(self, tape, inputs) -> Var:
        inputs = list(inputs)
        if not inputs:
            raise EmptySequence("cannot encode an empty sequence")
        h_fwd = self.fwd.output(self.fwd.run(tape, inputs)[-1])
        h_bwd = self.bwd.output(self.bwd.run(tape, reversed(inputs))[-1])
        return core.linear(tape, self.proj_weight, self.proj_bias, core.concat(tape, [h_fwd, h_bwd]))


class BiLstmRows:
    """A forward-only copy of a :class:`BiLstmEncoder` that encodes many
    sequences at once; only valid for the parameter values it was made
    from."""

    def __init__(self, encoder: BiLstmEncoder):
        self.fwd = LstmRows(encoder.fwd)
        self.bwd = LstmRows(encoder.bwd)
        self.proj = (np.ascontiguousarray(encoder.proj_weight.value.T), encoder.proj_bias.value)

    def encode(self, sequences) -> np.ndarray:
        """One summary row per sequence (a list of non-empty lists of
        vectors)."""
        h_fwd = self.fwd.finals(sequences)
        h_bwd = self.bwd.finals([seq[::-1] for seq in sequences])
        return core.linear_rows(np.concatenate([h_fwd, h_bwd], axis=1), *self.proj)
