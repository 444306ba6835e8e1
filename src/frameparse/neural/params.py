"""Parameter storage, the Adam optimizer, and the checkpoint container.

A refused checkpoint raises ``CheckpointError``, the ``dataset.IngestError``
of kind checkpoint, which writes the file name before the message; one that
cannot be opened raises ``IngestError`` kind io, as every input does.

A :class:`ParamStore` keeps all parameters in one arena: four flat buffers,
``value``, ``grad`` and Adam's moments ``m`` and ``v``, each allocated once
at its exact size.  Every :class:`Param` holds reshaped views of its value
and gradient; Adam runs over the four flat arrays, so the moments have no
per-parameter view.

A matrix that feeds matrix products is stored column-major (``order="F"``,
set by the layer that owns it), so ``value.T`` is a free C-contiguous
(in, out) view: the operand of a vector-matrix product, which training and
decoding both compute (see ``core._product``).  Tables read by row stay
row-major.  The memory order changes no name, shape, initial value or
checkpoint byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

from ..dataset import IngestError, write_file
from .core import Var

CHECKPOINT_MAGIC = b"FRAMEPARSE-CKPT"
CHECKPOINT_VERSION = 1

# Adam steps the flat buffers this many elements at a time, so that the
# slices of all four and the two scratch rows stay in cache across its
# passes (1.5 MB in float32).
ADAM_CHUNK = 1 << 16
# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(IngestError):
    """A refused checkpoint: ``IngestError`` kind checkpoint, naming the
    file in ``path`` (None from :meth:`ParamStore.load_values`, which
    knows no file)."""

    def __init__(self, message: str, path=None):
        super().__init__("checkpoint", message, path=path)


class Param(Var):
    """A named parameter: ``value`` and ``grad`` are views into its store's
    flat buffers, set by :meth:`ParamStore.allocate`; reading one before
    that raises ``AttributeError``.

    ``init`` fills the value at allocation: None, for the store's default
    (see :class:`ParamStore`), or a callable that writes into the zeroed
    value.  ``frozen_rows`` (a boolean mask over the first axis, or None)
    excludes rows from optimizer updates; used for pretrained embedding
    rows.  Set it before the store's first Adam step.  ``order`` is the
    memory order of the views, ``"C"`` or ``"F"``.
    """

    __slots__ = ("name", "shape", "init", "order", "frozen_rows")

    def __init__(self, name: str, shape: tuple, init, order: str):
        # No Var.__init__: the views stay unset until the store allocates.
        self.name = name
        self.shape = shape
        self.init = init
        self.order = order
        self.frozen_rows = None


class ParamStore:
    """All learned parameters of a model, keyed by name, in one arena.

    ``add`` records a parameter's shape and initializer; :meth:`allocate`,
    which the owner calls once every parameter is added and before any is
    used, allocates the arena and draws the initial values in ``add``
    order, after which ``add`` raises.  Initialization draws from a
    generator seeded at construction, so a fixed seed gives bit-identical
    parameters.  Without an ``init``, matrices use uniform
    +-sqrt(6 / (fan_in + fan_out)) and every other shape starts at zero.
    """

    def __init__(self, seed=0, dtype=np.float32):
        self.rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.params: dict = {}
        self.t = 0  # shared Adam timestep
        # The arena's flat buffers, set by allocate().
        self.value = self.grad = self.m = self.v = None
        # Adam's work list (see _adam_chunks), made by the first step.  Its
        # scratch rows are shared, so one thread steps a store at a time.
        self._chunks = None

    def add(self, name: str, shape, init=None, order: str = "C") -> Param:
        """Record a parameter; ``init`` is None or a callable (see
        :class:`Param`)."""
        if self.value is not None:
            raise RuntimeError(f"cannot add {name!r}: the parameter arena is already allocated")
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        param = Param(name, tuple(shape), init, order)
        self.params[name] = param
        return param

    def _views(self, *flats):
        """(param, view of each of ``flats``) per parameter, where every flat
        buffer is arena-sized and each view is the parameter's slice of it,
        in its shape and memory order."""
        start = 0
        for param in self.params.values():
            stop = start + math.prod(param.shape)
            yield param, *(flat[start:stop].reshape(param.shape, order=param.order)
                           for flat in flats)
            start = stop

    def allocate(self) -> None:
        """Allocate the four flat buffers, point every parameter's value and
        gradient views into them, and initialize the values in ``add``
        order.  Only the first call does anything."""
        if self.value is not None:
            return
        size = self.num_values()
        self.value, self.grad, self.m, self.v = (np.zeros(size, self.dtype) for _ in range(4))
        for param, value, grad in self._views(self.value, self.grad):
            param.value, param.grad = value, grad
            if param.init is not None:
                param.init(param.value)
            elif len(param.shape) == 2:
                scale = np.sqrt(6.0 / sum(param.shape))
                param.value[...] = self.rng.uniform(-scale, scale, param.shape)

    def __getitem__(self, name: str) -> Param:
        return self.params[name]

    def __iter__(self):
        return iter(sorted(self.params))

    def zero_grad(self) -> None:
        """Zero the gradients that accumulate over a backward pass: the
        row-major parameters' (biases, embedding tables, initial states)."""
        for param in self.params.values():
            if param.order == "C":
                param.grad.fill(0)

    def backward(self, tape, loss) -> None:
        """Leave every gradient equal to the gradient of ``loss``: zero the
        ones that accumulate, run ``tape.backward``, which writes the
        column-major product weights' over what they hold, then zero the
        product weights the pass did not use, which still hold an earlier
        pass's."""
        self.zero_grad()
        written = tape.backward(loss)
        for param in self.params.values():
            if param.order == "F" and param not in written:
                param.grad.fill(0)

    def num_values(self) -> int:
        return sum(math.prod(p.shape) for p in self.params.values())

    def _adam_chunks(self) -> list:
        """Adam's work list: per chunk of the arena, the slices of grad, m,
        v and value, the two scratch rows, and the chunk's flat mask of
        frozen elements (None if it has none)."""
        if self._chunks is None:
            frozen = np.zeros(self.value.size, dtype=bool)
            for param, mask in self._views(frozen):
                if param.frozen_rows is not None:
                    mask[param.frozen_rows] = True
            scratch = np.empty((2, min(ADAM_CHUNK, self.value.size)), dtype=self.dtype)
            self._chunks = []
            for start in range(0, self.value.size, ADAM_CHUNK):
                stop = start + ADAM_CHUNK
                mask = frozen[start:stop]
                self._chunks.append((
                    self.grad[start:stop], self.m[start:stop], self.v[start:stop],
                    self.value[start:stop], *scratch[:, : mask.size],
                    mask.copy() if mask.any() else None,
                ))
        return self._chunks

    def adam_step(self, lr: float, weight_decay: float = 0.0) -> None:
        """Adam with decoupled weight decay; increments the shared timestep.

        Runs chunk by chunk over the flat buffers, in place or into two
        chunk-sized scratch rows, so no parameter-sized array is allocated.
        The operations and their order are those of the dense formula, and
        each is elementwise, so the result is bit-identical to
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
        ``value -= lr * ((m/bias1) / (sqrt(v/bias2) + eps) + wd*value)``.
        """
        self.t += 1
        decay = bool(weight_decay)
        # The constants as 0-d arrays of the store's dtype: the values numpy
        # would convert the Python floats to, at half the cost per call.
        beta1, keep1, beta2, keep2, bias1, bias2, eps, weight_decay, lr = (
            np.array(x, dtype=self.dtype)
            for x in (ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
                      1.0 - ADAM_BETA1 ** self.t, 1.0 - ADAM_BETA2 ** self.t, ADAM_EPS,
                      weight_decay, lr)
        )
        for g, m, v, value, update, tmp, frozen in self._adam_chunks():
            m *= beta1
            np.multiply(g, keep1, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(g, g, out=tmp)
            tmp *= keep2
            v += tmp
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, bias1, out=update)
            update /= tmp
            if decay:
                np.multiply(value, weight_decay, out=tmp)
                update += tmp
            if frozen is not None:
                update[frozen] = 0
            update *= lr
            value -= update

    def value_arrays(self) -> dict:
        return {name: self.params[name].value for name in sorted(self.params)}

    def load_values(self, arrays: dict) -> None:
        """Copy ``arrays`` (name -> array) into the parameters.  Every name
        and shape is checked first: a missing, extra or misshapen array
        raises ``CheckpointError`` before anything is written."""
        extra = sorted(set(arrays) - set(self.params))
        if extra:
            raise CheckpointError(
                f"checkpoint has arrays the model lacks: {', '.join(map(repr, extra))}"
            )
        for name, param in self.params.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
            shape = tuple(arrays[name].shape)
            if shape != param.shape:
                raise CheckpointError(
                    f"parameter {name!r}: checkpoint shape {shape} != model shape {param.shape}"
                )
        for name, param in self.params.items():
            param.value[...] = arrays[name].astype(self.dtype, copy=False)


def save_checkpoint(path, arrays: dict, meta: dict) -> None:
    """Write a deterministic binary container: magic line, one JSON header
    line (version, metadata, array table and the sha256 of the payload),
    then the payload, raw array bytes in header order.  Identical inputs
    produce identical bytes.  ``dataset.write_file`` writes it, whole or
    not at all."""
    names = sorted(arrays)
    table = []
    blobs = []
    digest = hashlib.sha256()
    for name in names:
        arr = np.ascontiguousarray(arrays[name])
        blob = arr.tobytes()
        table.append(
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape), "nbytes": len(blob)}
        )
        blobs.append(blob)
        digest.update(blob)
    header = {"version": CHECKPOINT_VERSION, "meta": meta, "arrays": table,
              "sha256": digest.hexdigest()}
    write_file(path, [CHECKPOINT_MAGIC + b"\n",
                      json.dumps(header, sort_keys=True).encode("utf-8") + b"\n", *blobs])


_ENTRY_KEYS = ("name", "dtype", "shape", "nbytes")
# The dtype strings a checkpoint may name: bool, integer and float, as
# ``dtype.str`` spells them (``"<f4"``, ``"|u1"``).
_DTYPE = re.compile(r"[<>|=]?[biuf][1-9][0-9]?")


def _array_entry(path, entry) -> tuple:
    """Validate one array-table entry; returns (name, dtype, shape, nbytes)."""
    if not isinstance(entry, dict) or any(key not in entry for key in _ENTRY_KEYS):
        raise CheckpointError(
            f"array table entry {entry!r} needs the keys {', '.join(_ENTRY_KEYS)}", path
        )
    name, shape, nbytes = entry["name"], entry["shape"], entry["nbytes"]
    if not isinstance(name, str):
        raise CheckpointError(f"array name {name!r} is not a string", path)
    text = entry["dtype"]
    try:
        dtype = np.dtype(text) if isinstance(text, str) and _DTYPE.fullmatch(text) else None
    except TypeError:
        dtype = None
    if dtype is None:
        raise CheckpointError(f"array {name!r} has unsupported dtype {text!r}", path)
    if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
        raise CheckpointError(f"array {name!r} has bad shape {shape!r}", path)
    expected = math.prod(shape) * dtype.itemsize
    if type(nbytes) is not int or nbytes != expected:
        raise CheckpointError(
            f"array {name!r} declares {nbytes!r} bytes, but shape {shape} of {dtype} needs "
            f"{expected}",
            path,
        )
    return name, dtype, tuple(shape), nbytes


def load_checkpoint(path):
    """Read a container written by :func:`save_checkpoint`; returns
    (arrays, meta).  Any malformed, truncated or overlong content, or a
    payload that does not match the header's sha256, raises
    ``CheckpointError``; an array table that declares more bytes than the
    file holds does so before any array is read.  A header without a
    sha256 loads unchecked.  A file that cannot be opened raises
    ``IngestError`` kind io, as every other input does."""
    try:
        handle = open(path, "rb")
    except OSError as err:
        raise IngestError("io", err.strerror or str(err), path=path) from None
    with handle:
        magic = handle.readline().rstrip(b"\n")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError("not a frameparse checkpoint", path)
        try:
            header = json.loads(handle.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
            raise CheckpointError(f"corrupt checkpoint header: {err}", path) from None
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object", path)
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {header.get('version')} is not supported "
                f"(expected {CHECKPOINT_VERSION})",
                path,
            )
        table, meta = header.get("arrays"), header.get("meta")
        if not isinstance(table, list) or not isinstance(meta, dict):
            raise CheckpointError(
                "checkpoint header needs an 'arrays' list and a 'meta' object", path
            )
        entries = [_array_entry(path, entry) for entry in table]
        declared = sum(nbytes for *_, nbytes in entries)
        available = os.fstat(handle.fileno()).st_size - handle.tell()
        if declared > available:
            raise CheckpointError(
                f"truncated checkpoint: the array table declares {declared} bytes, "
                f"but {available} follow the header",
                path,
            )
        arrays = {}
        digest = hashlib.sha256()
        for name, dtype, shape, nbytes in entries:
            if name in arrays:
                raise CheckpointError(f"array {name!r} appears twice", path)
            blob = handle.read(nbytes)
            if len(blob) != nbytes:
                raise CheckpointError("truncated checkpoint", path)
            digest.update(blob)
            arrays[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
        if handle.read(1):
            raise CheckpointError("trailing bytes after the last array", path)
    if "sha256" in header and header["sha256"] != digest.hexdigest():
        raise CheckpointError("payload does not match the header's sha256", path)
    return arrays, meta
