"""The committed decode model, in a format the benchmark owns.

Parameters are ``ParamStore.value_arrays()`` in a compressed npz; the
configuration, vocabulary, labels, normalizer and recipe sit beside them in
JSON.  Loading checks the sha256 of the npz file and of the parameter values
before it builds the model through ``Model(...)`` and ``load_values``, so the
parent and a change decode with identical parameters whatever becomes of the
package's own checkpoint format.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from frameparse.dataset import Vocab
from frameparse.preprocess import TokenNormalizer
from frameparse.rnng import Model, RnngConfig
from frameparse.trees import Label

MODEL_DIR = Path(__file__).resolve().parent / "model"
NPZ_NAME = "decode_model.npz"
META_NAME = "decode_model.json"


class ModelIntegrityError(Exception):
    """The model files do not match the digests recorded with them."""


def params_digest(arrays: dict) -> str:
    """sha256 over parameter names, dtypes, shapes and bytes, in name order;
    identical parameters give identical digests however the file was zipped."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}|{value.dtype.str}|{value.shape}\n".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def save(model: Model, recipe: dict, directory: Path = MODEL_DIR) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    arrays = model.store.value_arrays()
    npz_path = directory / NPZ_NAME
    np.savez_compressed(npz_path, **arrays)
    meta = {
        "config": asdict(model.config),
        "token_vocab": list(model.token_vocab.symbols),
        "intent_labels": [str(label) for label in model.intent_labels],
        "slot_labels": [str(label) for label in model.slot_labels],
        "normalizer_known": sorted(model.normalizer.known),
        "npz_sha256": hashlib.sha256(npz_path.read_bytes()).hexdigest(),
        "params_sha256": params_digest(arrays),
        "n_params": model.store.num_values(),
        "recipe": recipe,
    }
    (directory / META_NAME).write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return meta


def load(directory: Path = MODEL_DIR) -> Model:
    meta = json.loads((directory / META_NAME).read_text(encoding="utf-8"))
    blob = (directory / NPZ_NAME).read_bytes()
    if hashlib.sha256(blob).hexdigest() != meta["npz_sha256"]:
        raise ModelIntegrityError(f"{directory / NPZ_NAME}: sha256 does not match {META_NAME}")
    with np.load(directory / NPZ_NAME) as npz:
        arrays = {name: npz[name] for name in npz.files}
    if params_digest(arrays) != meta["params_sha256"]:
        raise ModelIntegrityError(f"{directory / NPZ_NAME}: parameter digest does not match")
    model = Model(
        RnngConfig(**meta["config"]),
        Vocab(meta["token_vocab"]),
        tuple(Label.parse(s) for s in meta["intent_labels"]),
        tuple(Label.parse(s) for s in meta["slot_labels"]),
        TokenNormalizer(frozenset(meta["normalizer_known"])),
    )
    model.store.load_values(arrays)
    return model
