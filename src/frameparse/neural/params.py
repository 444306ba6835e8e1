"""Parameter storage, the Adam optimizer, and the checkpoint container."""

from __future__ import annotations

import json
import math
import threading
from typing import Optional

import numpy as np

from .core import Var

CHECKPOINT_MAGIC = b"FRAMEPARSE-CKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    pass


class Param(Var):
    """A named parameter with a persistent gradient buffer and Adam moments.

    ``frozen_rows`` (a boolean mask over the first axis) excludes rows from
    optimizer updates; used for pretrained embedding rows.
    """

    __slots__ = ("name", "m", "v", "frozen_rows")

    def __init__(self, name: str, value: np.ndarray):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.frozen_rows: Optional[np.ndarray] = None


class ParamStore:
    """All learned parameters of a model, keyed by name.

    Initialization draws from a generator seeded at construction, so a
    fixed seed gives bit-identical parameters.  Matrices use uniform
    +-sqrt(6 / (fan_in + fan_out)); vectors start at zero.
    """

    def __init__(self, seed=0, dtype=np.float32):
        self.rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.params: dict = {}
        self.t = 0  # shared Adam timestep
        # Adam's two scratch rows, one pair per thread (Hogwild workers step
        # the store concurrently), each as large as the largest parameter.
        self._scratch = threading.local()

    def add(self, name: str, shape, init: str = "auto") -> Param:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        shape = tuple(shape)
        if init == "auto":
            init = "glorot" if len(shape) == 2 else "zeros"
        if init == "zeros":
            value = np.zeros(shape, dtype=self.dtype)
        elif init == "glorot":
            scale = np.sqrt(6.0 / sum(shape))
            value = self.rng.uniform(-scale, scale, shape).astype(self.dtype)
        else:
            raise ValueError(f"unknown init {init!r}")
        param = Param(name, value)
        self.params[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __iter__(self):
        return iter(sorted(self.params))

    def __len__(self) -> int:
        return len(self.params)

    def zero_grad(self) -> None:
        for param in self.params.values():
            param.grad[...] = 0

    def num_values(self) -> int:
        return sum(p.value.size for p in self.params.values())

    def _scratch_pair(self, value: np.ndarray):
        """Two scratch arrays shaped like ``value``, owned by this thread."""
        rows = getattr(self._scratch, "rows", None)
        if rows is None or rows.shape[1] < value.size:
            largest = max(p.value.size for p in self.params.values())
            rows = self._scratch.rows = np.empty((2, largest), dtype=self.dtype)
        size = value.size
        return rows[0, :size].reshape(value.shape), rows[1, :size].reshape(value.shape)

    def adam_step(self, lr: float, weight_decay: float = 0.0,
                  beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        """Adam with decoupled weight decay; increments the shared timestep.

        Every step runs in place or into the store's scratch rows, so no
        parameter-sized array is allocated; the operations and their order
        are those of the dense formula, so the result is bit-identical to
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
        ``value -= lr * ((m/bias1) / (sqrt(v/bias2) + eps) + wd*value)``.
        """
        self.t += 1
        bias1 = 1.0 - beta1 ** self.t
        bias2 = 1.0 - beta2 ** self.t
        for param in self.params.values():
            g, m, v, value = param.grad, param.m, param.v, param.value
            update, tmp = self._scratch_pair(value)
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - beta2
            v += tmp
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, bias1, out=update)
            update /= tmp
            if weight_decay:
                np.multiply(value, weight_decay, out=tmp)
                update += tmp
            if param.frozen_rows is not None:
                update[param.frozen_rows] = 0
            update *= lr
            value -= update

    def value_arrays(self) -> dict:
        return {name: self.params[name].value for name in sorted(self.params)}

    def load_values(self, arrays: dict) -> None:
        for name, param in self.params.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
            value = arrays[name]
            if tuple(value.shape) != tuple(param.value.shape):
                raise CheckpointError(
                    f"parameter {name!r}: checkpoint shape {value.shape} != model "
                    f"shape {param.value.shape}"
                )
            param.value[...] = value.astype(self.dtype, copy=False)


def save_checkpoint(path, arrays: dict, meta: dict) -> None:
    """Write a deterministic binary container: magic line, one JSON header
    line (version, metadata, array table), then raw array bytes in header
    order.  Identical inputs produce identical bytes."""
    names = sorted(arrays)
    table = []
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(arrays[name])
        blob = arr.tobytes()
        table.append(
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape), "nbytes": len(blob)}
        )
        blobs.append(blob)
    header = {"version": CHECKPOINT_VERSION, "meta": meta, "arrays": table}
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC + b"\n")
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for blob in blobs:
            handle.write(blob)


_ENTRY_KEYS = ("name", "dtype", "shape", "nbytes")


def _array_entry(path, entry) -> tuple:
    """Validate one array-table entry; returns (name, dtype, shape, nbytes)."""
    if not isinstance(entry, dict) or any(key not in entry for key in _ENTRY_KEYS):
        raise CheckpointError(
            f"{path}: array table entry {entry!r} needs the keys {', '.join(_ENTRY_KEYS)}"
        )
    name, shape, nbytes = entry["name"], entry["shape"], entry["nbytes"]
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: array name {name!r} is not a string")
    try:
        dtype = np.dtype(entry["dtype"])
    except (TypeError, ValueError):
        raise CheckpointError(f"{path}: array {name!r} has bad dtype {entry['dtype']!r}") from None
    if dtype.hasobject or dtype.itemsize == 0:
        raise CheckpointError(f"{path}: array {name!r} has unsupported dtype {dtype}")
    if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
        raise CheckpointError(f"{path}: array {name!r} has bad shape {shape!r}")
    expected = math.prod(shape) * dtype.itemsize
    if type(nbytes) is not int or nbytes != expected:
        raise CheckpointError(
            f"{path}: array {name!r} declares {nbytes!r} bytes, but shape {shape} of "
            f"{dtype} needs {expected}"
        )
    return name, dtype, tuple(shape), nbytes


def load_checkpoint(path):
    """Read a container written by :func:`save_checkpoint`; returns
    (arrays, meta).  Any malformed or truncated content raises
    ``CheckpointError``."""
    with open(path, "rb") as handle:
        magic = handle.readline().rstrip(b"\n")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a frameparse checkpoint")
        try:
            header = json.loads(handle.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise CheckpointError(f"{path}: corrupt checkpoint header: {err}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {header.get('version')} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        table, meta = header.get("arrays"), header.get("meta")
        if not isinstance(table, list) or not isinstance(meta, dict):
            raise CheckpointError(
                f"{path}: checkpoint header needs an 'arrays' list and a 'meta' object"
            )
        arrays = {}
        for entry in table:
            name, dtype, shape, nbytes = _array_entry(path, entry)
            if name in arrays:
                raise CheckpointError(f"{path}: array {name!r} appears twice")
            blob = handle.read(nbytes)
            if len(blob) != nbytes:
                raise CheckpointError(f"{path}: truncated checkpoint")
            arrays[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    return arrays, meta
