"""Minimal reverse-mode differentiation on numpy arrays.

A ``Tape`` records one backward closure per operation in execution order;
calling ``backward`` seeds the output gradient with 1 and replays the
closures in reverse.  On a tape, operations work on ``Var`` wrappers
around 1-d (or 0-d) float arrays and record one closure each.  Given
``tape=None``, the same operations run forward-only on plain arrays, over
one vector or over rows (B, d), and record nothing: that is how decoding
scores all live hypotheses at once.  Both compute the same products on the
same memory (see :func:`_product`), so a row is bitwise what the taped op
gives.

Weight gradients are deferred: a closure of ``linear`` or ``lstm_cell``
returns its rows ``(weight, dz, x)`` instead of adding ``outer(dz, x)``,
and ``backward`` writes one ``(X^T @ dZ)^T`` per weight into its gradient
once every closure has run, over whatever the gradient held.  Every other
gradient accumulates, so only those need zeroing before a pass.
``backward`` consumes the tape: it drops each closure once it has run, so
a tape serves one backward pass and holds nothing afterwards.
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

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype})"


class Tape:
    """Backward closures in execution order, and the pass's dropout.

    A closure returns None, or ``(weight, dz, x)`` to hand the tape the
    weight-gradient rows ``outer(dz, x)`` of one use of ``weight``, a
    parameter whose gradient only its products give.

    :func:`dropout` on the tape drops at ``rate`` with masks from ``rng``,
    which a tape that drops needs.  Each op draws its mask as it runs,
    until :meth:`draw` draws the pass's values in one block: from then on
    each op takes the slice of the block at ``at`` and moves ``at`` past it,
    and the caller sets ``at`` to place a site anywhere in the block.
    """

    __slots__ = ("_steps", "rng", "rate", "draws", "at", "__weakref__")

    def __init__(self, rng=None, rate: float = 0.0):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self._steps = []
        self.rng = rng
        self.rate = rate
        self.draws = None
        self.at = 0

    def draw(self, n: int) -> None:
        """Draw the pass's ``n`` dropout values from ``rng`` in one call, if
        the tape drops, and move ``at`` to the first.  One draw of n values
        gives, in order, what draws of sizes that sum to n give, so a site
        that takes the slice at its run-order position gets the mask it
        would have drawn itself, and the stream ends where theirs ends."""
        if self.rate:
            self.draws = self.rng.random(n)
        self.at = 0

    def record(self, backward_fn) -> None:
        self._steps.append(backward_fn)

    def backward(self, output: Var) -> set:
        """Seed ``output``'s gradient with 1, replay and drop every closure,
        then write each weight's deferred rows into its gradient with one
        matrix product.  Returns the weights it wrote: the gradient of any
        other weight is left as it was."""
        output.add_grad(np.asarray(1.0, dtype=output.value.dtype))
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
            # X^T dZ into the (in, out) view of the gradient, which is
            # C-contiguous for the column-major product weights: BLAS writes
            # the bits a fresh product holds.
            np.matmul(np.stack(xs).T, np.stack(dzs), out=weight.grad.T)
        return set(rows)

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


def _product(weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``weight @ x`` for a column-major ``weight`` (out, in) and one vector
    ``x``, or the same product for each row of ``x`` (B, in).

    Rows run as a stack of B vector-matrix products over ``x[:, None, :]``
    and the C-contiguous (in, out) view ``weight.T``, so row i is bitwise
    equal to ``weight @ x[i]`` whatever B is.  A plain ``x @ weight.T``
    switches to a matrix-matrix kernel whose rounding depends on B once
    B > 1 (for B = 1 it is the same vector-matrix product, minus the
    stacking overhead).
    """
    if x.ndim == 1:
        return weight @ x
    if len(x) == 1:
        return x @ weight.T
    return np.matmul(x[:, None, :], weight.T)[:, 0, :]


def linear(tape, weight: Var, bias: Var, x):
    """y = W x + b."""
    value = x if tape is None else x.value
    if weight.value.shape[1] != value.shape[-1]:
        raise DimensionMismatch(
            f"linear: weight {weight.value.shape} does not accept input {value.shape}"
        )
    y = _product(weight.value, value)
    y += bias.value
    if tape is None:
        return y
    out = Var(y)

    def backward():
        g = out.grad
        if g is None:
            return None
        bias.add_grad(g)
        x.add_grad(weight.value.T @ g)
        return weight, g, x.value

    tape.record(backward)
    return out


def relu(tape, x):
    if tape is None:
        return np.maximum(x, 0)
    out = Var(np.maximum(x.value, 0))

    def backward():
        if out.grad is not None:
            x.add_grad(out.grad * (x.value > 0))

    tape.record(backward)
    return out


def concat(tape, parts):
    """Join along the last axis."""
    parts = list(parts)
    if not parts:
        raise EmptySequence("concat of zero vectors")
    if len(parts) == 1:
        return parts[0]
    if tape is None:
        return np.concatenate(parts, axis=-1)
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


def dropout(tape, x):
    """Inverted dropout at the tape's rate: zero with probability
    ``tape.rate``, from a mask of values the tape's ``rng`` drew (see
    :class:`Tape`), and scale survivors by 1/(1-rate) so the expectation is
    preserved.  Only training drops, so this op takes a tape; at rate 0 it
    returns ``x``."""
    rate = tape.rate
    if rate == 0.0:
        return x
    if tape.draws is None:
        values = tape.rng.random(x.value.shape)
    else:
        at = tape.at
        tape.at = at + x.value.size
        values = tape.draws[at : tape.at]
    keep = (values >= rate).astype(x.value.dtype)
    mask = keep * np.asarray(1.0 / (1.0 - rate), dtype=x.value.dtype)
    out = Var(x.value * mask)

    def backward():
        if out.grad is not None:
            x.add_grad(out.grad * mask)

    tape.record(backward)
    return out


def _lstm_gates(z, c, scale, offset, h_out=None, c_out=None, in_place=False):
    """The gate math of :func:`lstm_cell`, on the tape and off it.

    ``z`` holds the pre-activations (last axis 4H, overwritten with their
    tanh), ``c`` the cell state (last axis H) and ``scale``/``offset`` come
    from :func:`_gate_affine`; returns ``(act, (gi, gf, gg, go), c_new,
    tanh(c_new), h_new)``, with ``h_new`` and ``c_new`` written into
    ``h_out`` and ``c_out`` when given.  With ``in_place`` (forward only)
    the gates, ``gi * gg`` and ``tanh(c_new)`` overwrite ``z`` too, so only
    ``c_new`` and ``h_new`` are meaningful; the same operations run on the
    same values, so they are bitwise what the taped math gives.
    """
    hidden = c.shape[-1]
    z *= scale
    act = np.tanh(z, out=z)
    gates = np.multiply(act, scale, out=act if in_place else None)
    gates += offset
    split = (
        gates[..., :hidden],
        gates[..., hidden : 2 * hidden],
        gates[..., 2 * hidden : 3 * hidden],
        gates[..., 3 * hidden :],
    )
    gi, gf, gg, go = split
    c_new = np.multiply(gf, c, c_out)
    c_new += np.multiply(gi, gg, out=gi if in_place else None)
    tanh_c = np.tanh(c_new, out=gg if in_place else None)
    return act, split, c_new, tanh_c, np.multiply(go, tanh_c, h_out)


def lstm_cell(tape, weight: Var, bias: Var, x, h, c, out=None):
    """One LSTM step.  Gate layout along the 4H axis is [input, forget,
    candidate, output]; returns (h', c').  All four gates come from one tanh
    over the pre-activations, with sigmoid(z) = 0.5 + 0.5 * tanh(z / 2),
    which cannot overflow and so needs no clipping.

    Without a tape, ``x``, ``h`` and ``c`` are plain arrays, one vector each
    or B rows, and h' and c' are written into ``out[..., 0, :]`` and
    ``out[..., 1, :]`` when ``out`` is given (the state layout of
    ``layers.Lstm``)."""
    if tape is None:
        x_value, h_value, c_value = x, h, c
    else:
        x_value, h_value, c_value = x.value, h.value, c.value
    hidden = c_value.shape[-1]
    xh = np.concatenate([x_value, h_value], axis=-1)
    if weight.value.shape[1] != xh.shape[-1]:
        raise DimensionMismatch(
            f"lstm_cell: weight {weight.value.shape} does not accept input+state "
            f"of size {xh.shape[-1]}"
        )
    z = _product(weight.value, xh)
    z += bias.value
    scale, offset, slope = _gate_affine(hidden, z.dtype)
    if tape is None:
        targets = () if out is None else (out[..., 0, :], out[..., 1, :])
        _, _, c_new, _, h_new = _lstm_gates(z, c_value, scale, offset, *targets, in_place=True)
        return h_new, c_new
    act, (gi, gf, gg, go), c_new, tanh_c, h_new = _lstm_gates(z, c_value, scale, offset)
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


def masked_log_probs(logits: np.ndarray, valid_indices) -> np.ndarray:
    """Log-probabilities over the valid entries only (forward-only helper
    for decoding); positions outside the mask have probability exactly 0.
    ``valid_indices`` is an index array, so gathering them copies; the math
    runs in place in that copy and one scratch row, with the operations of
    :func:`masked_nll`."""
    vals = logits[valid_indices]
    m = vals.max()
    exps = np.subtract(vals, m)
    log_z = m + np.log(np.exp(exps, out=exps).sum())
    vals -= log_z
    return vals


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
