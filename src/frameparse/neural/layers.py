"""Layers composed from the core ops: embeddings, multi-layer LSTMs with
learned initial states, and the bidirectional sequence encoder."""

from __future__ import annotations

import numpy as np

from . import core
from .core import EmptySequence, Var


def embedding_lookup(tape, table: Var, index):
    """Row ``index`` of the table.  Without a tape, ``index`` may also be
    an array of indices, one row each."""
    if tape is None:
        return table.value.take(index, axis=0)
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

    On the tape, a state is an immutable tuple of per-layer (h, c) Vars, so
    it can be kept, branched, or popped back to at any time; that is what
    makes the persistent stack encoder work.  Without a tape, a state is one
    array of shape (layers, 2, hidden) holding each layer's (h, c), and a
    step takes B rows of input with B states stacked to (B, layers, 2,
    hidden).  Either way ``state[-1][0]`` is the top layer's output.
    The forget gate's bias starts at 1, a standard stabilizer.
    """

    def __init__(self, store, prefix: str, input_dim: int, hidden_dim: int,
                 num_layers: int):
        self.hidden_dim = hidden_dim
        self.layers = []
        for layer in range(num_layers):
            in_dim = input_dim if layer == 0 else hidden_dim
            weight = store.add(f"{prefix}.l{layer}.weight", (4 * hidden_dim, in_dim + hidden_dim),
                               order="F")
            bias = store.add(f"{prefix}.l{layer}.bias", (4 * hidden_dim,),
                             init=lambda value: value[hidden_dim : 2 * hidden_dim].fill(1.0))
            h0 = store.add(f"{prefix}.l{layer}.h0", (hidden_dim,))
            c0 = store.add(f"{prefix}.l{layer}.c0", (hidden_dim,))
            self.layers.append((weight, bias, h0, c0))

    def initial(self, tape):
        """The learned empty-sequence state."""
        if tape is None:
            return np.array([(h0.value, c0.value) for (_, _, h0, c0) in self.layers])
        return tuple((h0, c0) for (_, _, h0, c0) in self.layers)

    def step(self, tape, x, state):
        """Feed ``x`` to ``state``; without a tape, row i of ``x`` to state
        i of the stacked states.  On a tape, the input of every layer above
        the first goes through the tape's dropout."""
        inp = x
        if tape is None:
            new = np.empty(state.shape, dtype=state.dtype)
            for layer, (weight, bias, _, _) in enumerate(self.layers):
                inp, _ = core.lstm_cell(None, weight, bias, inp, state[..., layer, 0, :],
                                        state[..., layer, 1, :], new[..., layer, :, :])
            return new
        new_state = []
        for layer, (weight, bias, _, _) in enumerate(self.layers):
            if layer > 0:
                inp = core.dropout(tape, inp)
            h, c = core.lstm_cell(tape, weight, bias, inp, state[layer][0], state[layer][1])
            new_state.append((h, c))
            inp = h
        return tuple(new_state)

    def dropout_draws(self) -> int:
        """How many values one :meth:`step` on a dropping tape draws from
        its ``rng``: a mask over the input of every layer above the first."""
        return (len(self.layers) - 1) * self.hidden_dim

    def output(self, state):
        return state[-1][0]

    def run(self, tape, inputs) -> list:
        """Feed a whole sequence; returns the state after every element."""
        state = self.initial(tape)
        states = []
        for x in inputs:
            state = self.step(tape, x, state)
            states.append(state)
        return states

    def final(self, tape, sequences):
        """Top-layer output at the end of each sequence (a list of non-empty
        lists of vectors).  A batch of one, which is what the tape takes,
        gives its sequence's vector; more give one row per sequence, all of
        them stepped in lockstep."""
        if len(sequences) == 1:
            (inputs,) = sequences
            return self.output(self.run(tape, inputs)[-1])
        order = sorted(range(len(sequences)), key=lambda i: -len(sequences[i]))
        ordered = [sequences[i] for i in order]
        state = np.array([self.initial(None)] * len(ordered))
        active = len(ordered)
        for t in range(len(ordered[0])):
            while len(ordered[active - 1]) <= t:
                active -= 1  # the longest sequences come first
            x = np.array([seq[t] for seq in ordered[:active]])
            if active == len(ordered):
                state = self.step(None, x, state)
            else:
                state[:active] = self.step(None, x, state[:active])
        out = np.empty_like(state[:, -1, 0])
        out[order] = state[:, -1, 0]
        return out


class BiLstmEncoder:
    """Reads a sequence both ways with one-layer LSTMs and projects the two
    final hidden states to a fixed-width summary."""

    def __init__(self, store, prefix: str, input_dim: int, hidden_dim: int,
                 output_dim: int):
        self.fwd = Lstm(store, f"{prefix}.fwd", input_dim, hidden_dim, 1)
        self.bwd = Lstm(store, f"{prefix}.bwd", input_dim, hidden_dim, 1)
        self.proj_weight = store.add(f"{prefix}.proj.weight", (output_dim, 2 * hidden_dim),
                                     order="F")
        self.proj_bias = store.add(f"{prefix}.proj.bias", (output_dim,))

    def encode(self, tape, sequences):
        """The summary of each sequence (a list of non-empty lists of
        vectors): a batch of one, which is what the tape takes, gives that
        sequence's vector (its Var on the tape); more give one row each."""
        if not sequences or not all(sequences):
            raise EmptySequence("cannot encode an empty sequence")
        h_fwd = self.fwd.final(tape, sequences)
        h_bwd = self.bwd.final(tape, [seq[::-1] for seq in sequences])
        return core.linear(tape, self.proj_weight, self.proj_bias, core.concat(tape, [h_fwd, h_bwd]))
