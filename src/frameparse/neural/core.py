"""Minimal reverse-mode differentiation on numpy arrays.

A ``Tape`` records one backward closure per operation in execution order;
calling ``backward`` seeds the output gradient and replays the closures in
reverse.  Operations work on ``Var`` wrappers around 1-d (or 0-d) float
arrays, which is all the parser needs.  Every taped operation needs a
tape and records on it.  Decoding uses the ``*_rows`` functions instead:
forward-only, on plain arrays, one row per hypothesis.

Weight gradients are deferred: a closure of ``linear`` or ``lstm_cell``
returns its rows ``(weight, dz, x)`` instead of adding ``outer(dz, x)``,
and ``backward`` adds one ``dZ^T @ X`` per weight once every closure has
run.  ``backward`` consumes the tape: it drops each closure once it has
run, so a tape serves one backward pass and holds nothing afterwards.
"""

from __future__ import annotations

import functools

import numpy as np


class DimensionMismatch(ValueError):
    pass


class EmptySequence(ValueError):
    pass


class GoldMasked(ValueError):
    pass


class Var:
    """A value in the computation; ``grad`` is allocated on first use."""

    __slots__ = ("value", "grad", "__weakref__")

    def __init__(self, value):
        self.value = np.asarray(value)
        self.grad = None

    def add_grad(self, g) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.value.dtype, copy=True)
        else:
            self.grad += g

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype})"


class Tape:
    """Backward closures in execution order.

    A closure returns None, or ``(weight, dz, x)`` to hand the tape the
    weight-gradient rows ``outer(dz, x)`` of one use of ``weight``.
    """

    __slots__ = ("_steps", "__weakref__")

    def __init__(self):
        self._steps = []

    def record(self, backward_fn) -> None:
        self._steps.append(backward_fn)

    def backward(self, output: Var, seed=1.0) -> None:
        """Replay and drop every closure, then add each weight's deferred
        rows with one matrix product."""
        output.add_grad(np.asarray(seed, dtype=output.value.dtype))
        steps = self._steps
        self._steps = []
        rows = {}  # weight -> ([dz, ...], [x, ...])
        while steps:
            deferred = steps.pop()()
            if deferred is not None:
                weight, dz, x = deferred
                pending = rows.get(weight)
                if pending is None:
                    rows[weight] = ([dz], [x])
                else:
                    pending[0].append(dz)
                    pending[1].append(x)
        for weight, (dzs, xs) in rows.items():
            weight.add_grad(np.stack(dzs).T @ np.stack(xs))

    def __len__(self) -> int:
        return len(self._steps)


@functools.lru_cache(maxsize=None)
def _gate_affine(hidden: int, dtype) -> tuple:
    """Read-only (scale, offset, slope) over the 4H gate axis: the gates are
    ``scale * tanh(scale * z) + offset``, which is sigmoid(z) = 0.5 + 0.5 *
    tanh(z / 2) for the input, forget and output gates and tanh(z) for the
    candidate, and ``slope = scale**2`` is each gate's derivative per unit of
    ``1 - tanh**2``."""
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden : 3 * hidden] = 1.0
    offset = np.full(4 * hidden, 0.5, dtype=dtype)
    offset[2 * hidden : 3 * hidden] = 0.0
    affine = (scale, offset, scale * scale)
    for array in affine:
        array.flags.writeable = False
    return affine


def linear(tape, weight: Var, bias, x: Var) -> Var:
    """y = W x + b (bias optional)."""
    if weight.value.shape[1] != x.value.shape[0]:
        raise DimensionMismatch(
            f"linear: weight {weight.value.shape} does not accept input {x.value.shape}"
        )
    y = weight.value @ x.value
    if bias is not None:
        y = y + bias.value
    out = Var(y)

    def backward():
        g = out.grad
        if g is None:
            return None
        if bias is not None:
            bias.add_grad(g)
        x.add_grad(weight.value.T @ g)
        return weight, g, x.value

    tape.record(backward)
    return out


def relu(tape, x: Var) -> Var:
    out = Var(np.maximum(x.value, 0))

    def backward():
        if out.grad is not None:
            x.add_grad(out.grad * (x.value > 0))

    tape.record(backward)
    return out


def concat(tape, parts) -> Var:
    parts = list(parts)
    if not parts:
        raise EmptySequence("concat of zero vectors")
    if len(parts) == 1:
        return parts[0]
    out = Var(np.concatenate([p.value for p in parts]))
    sizes = [p.value.shape[0] for p in parts]

    def backward():
        g = out.grad
        if g is None:
            return
        offset = 0
        for part, size in zip(parts, sizes):
            part.add_grad(g[offset : offset + size])
            offset += size

    tape.record(backward)
    return out


def add_n(tape, terms) -> Var:
    """Sum of same-shape Vars (used to total per-step losses)."""
    terms = list(terms)
    if not terms:
        raise EmptySequence("sum of zero terms")
    total = terms[0].value
    for t in terms[1:]:
        total = total + t.value
    out = Var(total)

    def backward():
        if out.grad is None:
            return
        for t in terms:
            t.add_grad(out.grad)

    tape.record(backward)
    return out


def dropout(tape, x: Var, rate: float, rng) -> Var:
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate) so the expectation is preserved.  Callers skip this entirely
    in evaluation mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.value.shape) >= rate).astype(x.value.dtype)
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.value.dtype)
    mask = keep * scale
    out = Var(x.value * mask)

    def backward():
        if out.grad is not None:
            x.add_grad(out.grad * mask)

    tape.record(backward)
    return out


def _lstm_gates(z, c, scale, offset, h_out=None, c_out=None):
    """The gate math shared by :func:`lstm_cell` and :func:`lstm_rows`.

    ``z`` holds the pre-activations (last axis 4H, overwritten with their
    tanh), ``c`` the cell state (last axis H) and ``scale``/``offset`` come
    from :func:`_gate_affine`; returns ``(act, (gi, gf, gg, go), c_new,
    tanh(c_new), h_new)``, with ``h_new`` and ``c_new`` written into
    ``h_out`` and ``c_out`` when given.
    """
    hidden = c.shape[-1]
    z *= scale
    act = np.tanh(z, out=z)
    gates = act * scale
    gates += offset
    split = (
        gates[..., :hidden],
        gates[..., hidden : 2 * hidden],
        gates[..., 2 * hidden : 3 * hidden],
        gates[..., 3 * hidden :],
    )
    gi, gf, gg, go = split
    c_new = np.multiply(gf, c, c_out)
    c_new += gi * gg
    tanh_c = np.tanh(c_new)
    return act, split, c_new, tanh_c, np.multiply(go, tanh_c, h_out)


def lstm_cell(tape, weight: Var, bias: Var, x: Var, h: Var, c: Var):
    """One LSTM step.  Gate layout along the 4H axis is [input, forget,
    candidate, output]; returns (h', c').  All four gates come from one tanh
    over the pre-activations, with sigmoid(z) = 0.5 + 0.5 * tanh(z / 2),
    which cannot overflow and so needs no clipping."""
    hidden = c.value.shape[0]
    xh = np.concatenate([x.value, h.value])
    if weight.value.shape[1] != xh.shape[0]:
        raise DimensionMismatch(
            f"lstm_cell: weight {weight.value.shape} does not accept input+state "
            f"of size {xh.shape[0]}"
        )
    z = weight.value @ xh
    z += bias.value
    scale, offset, slope = _gate_affine(hidden, z.dtype)
    act, (gi, gf, gg, go), c_new, tanh_c, h_new = _lstm_gates(z, c.value, scale, offset)
    h_out = Var(h_new)
    c_out = Var(c_new)
    x_size = x.value.shape[0]

    def backward():
        dh = h_out.grad
        dc = c_out.grad
        if dh is None and dc is None:
            return None
        # dz holds the gradient w.r.t. the gates, then w.r.t. z.
        dz = np.empty_like(act)
        if dc is not None:
            dc_total = dc.copy()
        else:
            dc_total = np.zeros_like(c_new)
        if dh is not None:
            np.multiply(dh, tanh_c, out=dz[3 * hidden :])
            dc_total += dh * go * (1.0 - tanh_c * tanh_c)
        else:
            dz[3 * hidden :] = 0.0
        np.multiply(dc_total, gg, out=dz[:hidden])
        np.multiply(dc_total, c.value, out=dz[hidden : 2 * hidden])
        np.multiply(dc_total, gi, out=dz[2 * hidden : 3 * hidden])
        dz *= slope * (1.0 - act * act)
        bias.add_grad(dz)
        dxh = weight.value.T @ dz
        x.add_grad(dxh[:x_size])
        h.add_grad(dxh[x_size:])
        c.add_grad(dc_total * gf)
        return weight, dz, xh

    tape.record(backward)
    return h_out, c_out


def linear_rows(x: np.ndarray, weight_t: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Forward-only :func:`linear` over the rows of ``x`` (B, in), given the
    weight as its contiguous transpose ``weight_t`` (in, out).

    The product runs as a stack of B vector-matrix products over
    ``x[:, None, :]``, so row i is bitwise equal to ``x[i] @ weight_t``
    whatever B is.  A plain ``x @ weight_t`` switches to a matrix-matrix
    kernel whose rounding depends on B once B > 1 (for B = 1 it is the
    same vector-matrix product, minus the stacking overhead), and
    ``x @ weight.T`` to a much slower one.
    """
    if len(x) == 1:
        y = x @ weight_t
    else:
        y = np.matmul(x[:, None, :], weight_t)[:, 0, :]
    y += bias
    return y


def lstm_rows(weight_t: np.ndarray, bias: np.ndarray, x: np.ndarray, h: np.ndarray,
              c: np.ndarray, h_out: np.ndarray, c_out: np.ndarray) -> None:
    """Forward-only :func:`lstm_cell` over rows: ``x`` (B, in), ``h`` and
    ``c`` (B, H), ``weight_t`` the contiguous transpose of the cell weight.
    Writes h' and c' into ``h_out`` and ``c_out``; row i is bitwise what
    row i alone would give."""
    z = linear_rows(np.concatenate([x, h], axis=1), weight_t, bias)
    scale, offset, _ = _gate_affine(c.shape[-1], z.dtype)
    _lstm_gates(z, c, scale, offset, h_out, c_out)


def masked_log_probs(logits: np.ndarray, valid_indices) -> np.ndarray:
    """Log-probabilities over the valid entries only (forward-only helper
    for decoding); positions outside the mask have probability exactly 0."""
    vals = logits[valid_indices]
    m = vals.max()
    shifted = vals - m
    log_z = m + np.log(np.exp(shifted).sum())
    return vals - log_z


def masked_nll(tape, logits: Var, gold_index: int, valid_indices) -> Var:
    """Negative log-likelihood of ``gold_index`` under a softmax restricted
    to ``valid_indices``; masked-out actions get probability exactly 0."""
    vi = np.asarray(valid_indices, dtype=np.intp)
    positions = np.nonzero(vi == gold_index)[0]
    if positions.size == 0:
        raise GoldMasked(f"gold index {gold_index} is not in the valid set")
    vals = logits.value[vi]
    m = vals.max()
    exps = np.exp(vals - m)
    z = exps.sum()
    loss = (m + np.log(z)) - logits.value[gold_index]
    out = Var(np.asarray(loss, dtype=logits.value.dtype))
    probs = exps / z

    def backward():
        g = out.grad
        if g is None:
            return
        dlogits = np.zeros_like(logits.value)
        dlogits[vi] = probs * g
        dlogits[gold_index] -= g
        logits.add_grad(dlogits)

    tape.record(backward)
    return out
