"""Property tests of the command line's input contract, one per input.

Each test mutates the bytes of one valid input file and runs ``cli.main``
in process on it, with every other input valid.  Whatever the bytes,
``main`` returns 0, 1 or 3 and raises nothing, and an exit 3 prints
exactly one refusal line, ``error: <path>: ...``, naming the mutated file,
after nothing but the per-line reports (``<path>:N: ...``) of the commands
that carry on past a bad line.
Seeded and bounded (``derandomize=True``, a fixed ``max_examples``), so a
run is deterministic and takes a few seconds.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import synth  # noqa: E402
from frameparse.cli import main  # noqa: E402
from frameparse.neural.params import CHECKPOINT_MAGIC  # noqa: E402
from frameparse.trees import serialize  # noqa: E402
from test_cli import TINY_FLAGS  # noqa: E402

# Bytes an edit inserts besides arbitrary ones: the separators and
# brackets of the formats, digits, a value that is not a number, and a
# byte that is not UTF-8.
INSERTED = st.one_of(st.sampled_from(b"\n\r\t []:=.-0123456789\xff"), st.integers(0, 255))
# Every flag that sizes the model or the work is given on the command line,
# where it overrides the config file, so no mutated input can ask for a large
# model, many epochs or a wide beam (``parse`` gets ``--beam 2`` for the
# same reason).
TRAIN_FLAGS = TINY_FLAGS + ["--epochs", "1", "--beam-size", "1"]


@st.composite
def mutated(draw, blob: bytes, focus: int = 0):
    """``blob`` after one to three flips, deletions, insertions or
    truncations; with ``focus``, half the edits land in its first ``focus``
    bytes."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 3), label="edits")):
        end = min(focus, len(blob)) if focus and draw(st.booleans()) else len(blob)
        at = draw(st.integers(0, end), label="at")
        kind = draw(st.sampled_from(("flip", "delete", "insert", "truncate")))
        if kind == "flip" and at < len(blob):
            blob[at] ^= draw(st.integers(1, 255), label="mask")
        elif kind == "delete":
            del blob[at : at + draw(st.integers(1, 4), label="length")]
        elif kind == "insert":
            blob[at:at] = bytes(draw(st.lists(INSERTED, min_size=1, max_size=3)))
        elif kind == "truncate":
            del blob[at:]
    return bytes(blob)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs for every command, and a model trained on the corpus."""
    base = tmp_path_factory.mktemp("cli-inputs")
    corpus = synth.learnable_corpus(seed=41, size=3)
    tsv = base / "corpus.tsv"
    synth.write_tsv(tsv, corpus)
    trees = [serialize(example.tree) for example in corpus.examples]
    words = sorted({token for example in corpus.examples for token in example.tokens})
    files = {
        "tsv": tsv.read_bytes(),
        "trees": "".join(f"{tree}\n" for tree in trees).encode(),
        "beams": "".join(f"-0.{i}\t{tree}\n-1.{i}\t{trees[0]}\n\n"
                         for i, tree in enumerate(trees)).encode(),
        "config": b"seed=3\nlr=0.01\nepochs=1\nword_dim=8\ndropout=0.1\n",
        "embeddings": "".join(f"{word} {' '.join(['0.25'] * 8)}\n"
                              for word in words[:3]).encode(),
        "utterances": "".join(f"{' '.join(example.tokens)}\n"
                              for example in corpus.examples).encode(),
    }
    files["gold"] = files["predictions"] = files["trees"]
    for name, blob in files.items():
        (base / name).write_bytes(blob)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["train", str(tsv), "-o", str(base / "checkpoint")] + TRAIN_FLAGS) == 0
    files["checkpoint"] = (base / "checkpoint").read_bytes()
    return base, files


def _train(p, *flags):
    return ["train", p["tsv"], "-o", p["out"], *flags, *TRAIN_FLAGS]


def _parse(p):
    return ["parse", p["checkpoint"], p["utterances"], "--beam", "2"]


# Per boundary: the input it mutates, and the command line that reads it,
# from the path of each input (the mutated one's included).
BOUNDARIES = {
    "validate": ("trees", lambda p: ["validate", p["trees"]]),
    "oracle-verify": ("trees", lambda p: ["oracle", p["trees"], "--verify"]),
    "stats": ("tsv", lambda p: ["stats", p["tsv"]]),
    "stats-lenient": ("tsv", lambda p: ["stats", p["tsv"], "--lenient"]),
    "eval-gold": ("gold", lambda p: ["eval", p["gold"], p["predictions"]]),
    "eval-predictions": ("predictions", lambda p: ["eval", p["gold"], p["predictions"]]),
    "eval-topk": ("beams", lambda p: ["eval", p["gold"], p["beams"], "--topk", "1,2"]),
    "train-tsv": ("tsv", _train),
    "train-config": ("config", lambda p: _train(p, "--config", p["config"])),
    "train-embeddings": ("embeddings", lambda p: _train(p, "--embeddings", p["embeddings"])),
    "parse-utterances": ("utterances", _parse),
    "parse-checkpoint": ("checkpoint", _parse),
}


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_any_bytes_exit_zero_one_or_three_naming_the_file(inputs, boundary):
    base, files = inputs
    name, argv_of = BOUNDARIES[boundary]
    blob = files[name]
    # A checkpoint's payload is checked against its digest, so half the
    # edits go to its magic and header lines.
    focus = blob.index(b"\n", len(CHECKPOINT_MAGIC) + 1) + 1 if name == "checkpoint" else 0

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(mutated(blob, focus))
    def check(mutated_blob):
        paths = {key: str(base / key) for key in files}
        paths[name] = str(base / f"mutated-{name}")
        paths["out"] = str(base / "out.ckpt")
        (base / f"mutated-{name}").write_bytes(mutated_blob)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv_of(paths))
        assert code in (0, 1, 3)
        if code == 3:
            *reports, refusal, end = err.getvalue().split("\n")
            assert refusal.startswith(f"error: {paths[name]}: ") and end == "", err.getvalue()
            # Before it only the per-line reports of ``oracle`` and ``parse``,
            # which are not refusals.
            assert all(report.startswith(f"{paths[name]}:") and not report.startswith("error:")
                       for report in reports), err.getvalue()

    check()
