"""Digest of what the committed decode model parses, to check that a change
to decoding leaves every output bit for bit as it was.

    python3 tools/decode_digest.py --seed 9601 --n 300

Decodes the first N trees of the benchmark's held-out stream
(``perfbench.corpus_gen.STREAM_HELDOUT``) at the given seed with
``rnng.parse_greedy`` and with ``rnng.parse_beam(k=5)``, using the model
``perfbench.decode_model.load()`` checks and loads.  Each output is one
line ``<serialized tree>\\t<score.hex()>``; each utterance's beam ends with
an empty line.  Prints the sha256 of the greedy lines and of the beam lines.
Reads ``perfbench/`` and writes nothing.
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

from frameparse import rnng  # noqa: E402
from frameparse.trees import serialize  # noqa: E402
from perfbench import corpus_gen, decode_model  # noqa: E402

BEAM_WIDTH = 5


def _line(tree, score: float) -> str:
    return f"{serialize(tree)}\t{float(score).hex()}\n"


def digests(seed: int, n: int) -> dict:
    model = decode_model.load()
    greedy = hashlib.sha256()
    beam = hashlib.sha256()
    for tree in corpus_gen.generate_trees(corpus_gen.STREAM_HELDOUT, seed, n):
        greedy.update(_line(*rnng.parse_greedy(model, tree.tokens)).encode())
        for pair in rnng.parse_beam(model, tree.tokens, BEAM_WIDTH):
            beam.update(_line(*pair).encode())
        beam.update(b"\n")
    return {"greedy": greedy.hexdigest(), f"beam{BEAM_WIDTH}": beam.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True, help="utterances to decode")
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed, args.n).items():
        print(f"{name}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
