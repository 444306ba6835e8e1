"""Train the committed decode model (deterministic; about 35 minutes on one
2.1 GHz Xeon core).

    python3 perfbench/train_decode_model.py

It trains the default ``RnngConfig`` architecture on generated trees from
the model-training stream, one epoch at a time, and measures greedy exact
match on a held-out set from its own stream after each epoch.  Training
stops once exact match has not risen for PATIENCE epochs; the parameters of
the best epoch are written to ``perfbench/model`` with the whole recipe.
Rerunning it gives the same ``params_sha256``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from frameparse import rnng  # noqa: E402
from frameparse.dataset import build_vocabs  # noqa: E402
from frameparse.preprocess import TokenNormalizer  # noqa: E402
from perfbench import corpus_gen, decode_model  # noqa: E402

DATA_SEED = 20181017
N_TRAIN = 4000
N_DEV = 500
MAX_EPOCHS = 25
PATIENCE = 2


def main() -> int:
    train_trees = corpus_gen.generate_trees(corpus_gen.STREAM_MODEL_TRAIN, DATA_SEED, N_TRAIN)
    dev_trees = corpus_gen.generate_trees(corpus_gen.STREAM_MODEL_DEV, DATA_SEED, N_DEV)
    corpus = corpus_gen.as_corpus(train_trees)
    corpus_gen.check_shape(corpus)
    dev = corpus_gen.as_corpus(dev_trees).examples
    vocab, intents, slots = build_vocabs(corpus)
    config = rnng.RnngConfig()
    model = rnng.Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    rng = np.random.default_rng([config.seed, 1])
    history = []
    best = None
    for epoch in range(1, MAX_EPOCHS + 1):
        start = time.perf_counter()
        (loss,) = rnng.train(model, corpus, epochs=1, rng=rng)
        exact = 100.0 * rnng.exact_match_rate(model, dev)
        history.append({"epoch": epoch, "train_loss": loss, "dev_exact_match_pct": exact,
                        "seconds": round(time.perf_counter() - start, 1)})
        print(json.dumps(history[-1]), flush=True)
        if best is None or exact > best[1]:
            best = (epoch, exact, {k: v.copy() for k, v in model.store.value_arrays().items()})
        elif epoch - best[0] >= PATIENCE:
            break
    epoch, exact, arrays = best
    model.store.load_values(arrays)
    recipe = {
        "script": "perfbench/train_decode_model.py",
        "generator_stream_train": corpus_gen.STREAM_MODEL_TRAIN,
        "generator_stream_dev": corpus_gen.STREAM_MODEL_DEV,
        "generator_seed": DATA_SEED,
        "n_train": N_TRAIN,
        "n_dev": N_DEV,
        "patience": PATIENCE,
        "max_epochs": MAX_EPOCHS,
        "chosen_epoch": epoch,
        "dev_exact_match_pct": exact,
        "history": history,
    }
    meta = decode_model.save(model, recipe)
    print(json.dumps({"chosen_epoch": epoch, "dev_exact_match_pct": exact,
                      "params_sha256": meta["params_sha256"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
