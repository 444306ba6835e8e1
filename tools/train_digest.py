"""Digest of what training computes, to check that a change to training
leaves every output bit for bit as it was.

    python3 tools/train_digest.py --seed 2301 --n 300

Builds the benchmark's ``train`` set-up at the given seed (a fresh
default-config model over the stratified ``perfbench.corpus_gen.STREAM_TRAIN``
trees, and the stream ``default_rng([seed, 1])``), then runs N per-example
``rnng.train`` calls on the pool's examples in order, as the workload does.
Prints the sum of the N losses (``repr``), the sha256 over
``store.value_arrays()`` (each name's bytes, then its array's bytes, in name
order) and the next draw of the stream.  Reads ``perfbench/`` and writes
nothing.
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark runs; pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from frameparse import dataset, rnng  # noqa: E402
from frameparse.dataset import Corpus, Split  # noqa: E402
from frameparse.preprocess import TokenNormalizer  # noqa: E402
from perfbench import corpus_gen  # noqa: E402


def digests(seed: int, n: int) -> dict:
    generated = corpus_gen.generate_trees(corpus_gen.STREAM_TRAIN, seed, corpus_gen.MIN_CHECKED)
    examples = corpus_gen.as_corpus(corpus_gen.stratified(generated), Split.TRAIN).examples
    vocab, intents, slots = dataset.build_vocabs(Corpus(examples, Split.TRAIN))
    config = rnng.RnngConfig(seed=seed)
    model = rnng.Model(config, vocab, intents, slots, TokenNormalizer(frozenset(vocab.symbols)))
    rng = np.random.default_rng([config.seed, 1])
    total = 0.0
    for k in range(n):
        one = Corpus([examples[k % len(examples)]], Split.TRAIN)
        (loss,) = rnng.train(model, one, epochs=1, rng=rng)
        total += loss
    params = hashlib.sha256()
    for name, value in model.store.value_arrays().items():
        params.update(name.encode())
        params.update(value.tobytes())
    return {"loss_sum": repr(total), "params": params.hexdigest(), "next_draw": repr(rng.random())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True, help="training examples to run")
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed, args.n).items():
        print(f"{name}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
