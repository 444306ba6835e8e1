"""Outside-in span tracer for frameparse.

The tracer patches the package from outside: each traced function is
replaced, at every module attribute of ``frameparse`` that binds it, by a
wrapper that records a span; traced methods are replaced on their class.
``Tape.record`` is wrapped so that each backward closure becomes a span
named after the op that recorded it (``neural.linear.fwd`` records
``neural.linear.bwd``).  Nothing under ``src/`` is edited, and outside an
``installed()`` block the package runs unpatched.

Spans are kept in memory as (id, name, start_ns, end_ns, parent_id,
request_id) and written out at the end; a span's self time is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

from frameparse import dataset, metrics, rnng, transitions, trees
from frameparse.neural import core, layers
from frameparse.neural.core import Tape
from frameparse.neural.params import ParamStore
from frameparse.preprocess import TokenNormalizer

# Span name -> (owner, attribute).  Module functions are patched at every
# binding; class attributes are patched on the class.
FUNCTIONS = {
    "neural.lstm_cell.fwd": (core, "lstm_cell"),
    "neural.linear.fwd": (core, "linear"),
    "neural.relu.fwd": (core, "relu"),
    "neural.concat.fwd": (core, "concat"),
    "neural.add_n.fwd": (core, "add_n"),
    "neural.dropout.fwd": (core, "dropout"),
    "neural.masked_nll.fwd": (core, "masked_nll"),
    "neural.masked_log_probs": (core, "masked_log_probs"),
    "neural.embedding_lookup.fwd": (layers, "embedding_lookup"),
    "rnng.train": (rnng, "train"),
    "rnng.example_loss": (rnng, "example_loss"),
    "rnng.parse_greedy": (rnng, "parse_greedy"),
    "rnng.parse_beam": (rnng, "parse_beam"),
    "rnng.start_hypothesis": (rnng, "start_hypothesis"),
    "rnng.encode_state": (rnng, "encode_state"),
    "rnng.advance": (rnng, "advance"),
    "transitions.valid_actions": (transitions, "valid_actions"),
    "transitions.apply": (transitions, "apply"),
    "transitions.oracle": (transitions, "oracle"),
    "transitions.execute": (transitions, "execute"),
    "trees.parse_bracketed": (trees, "parse_bracketed"),
    "trees.validate": (trees, "validate"),
    "trees.serialize": (trees, "serialize"),
    "dataset.load_tsv": (dataset, "load_tsv"),
    "dataset.compute_stats": (dataset, "compute_stats"),
    "dataset.build_vocabs": (dataset, "build_vocabs"),
    "metrics.read_beam_file": (metrics, "read_beam_file"),
    "metrics.evaluate": (metrics, "evaluate"),
}
METHODS = {
    "rnng.reduce_compose": (layers.BiLstmEncoder, "encode"),
    "rnng.hypothesis_clone": (rnng.Hypothesis, "clone"),
    "neural.tape.backward": (Tape, "backward"),
    "neural.adam_step": (ParamStore, "adam_step"),
    "neural.zero_grad": (ParamStore, "zero_grad"),
    "preprocess.normalize_sequence": (TokenNormalizer, "normalize_sequence"),
}
BACKWARD_SPANS = tuple(
    name[: -len(".fwd")] + ".bwd" for name in FUNCTIONS if name.endswith(".fwd")
)
UNATTRIBUTED_BACKWARD = "neural.unattributed.bwd"
SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS) + BACKWARD_SPANS + (UNATTRIBUTED_BACKWARD,)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request_id = -1
        self._open_ids = [-1]
        self._open_names = []
        self._next_id = 0

    def reset(self) -> None:
        self.spans = []
        self._next_id = 0

    def _wrap(self, name: str, fn):
        open_ids = self._open_ids
        open_names = self._open_names
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = open_ids[-1]
            open_ids.append(span_id)
            open_names.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                open_names.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.request_id))

        return traced

    def _traced_record(self, original):
        open_names = self._open_names
        wrap = self._wrap

        def record(tape, backward_fn):
            owner = open_names[-1] if open_names else ""
            if owner.endswith(".fwd"):
                name = owner[: -len(".fwd")] + ".bwd"
            else:
                name = UNATTRIBUTED_BACKWARD
            original(tape, wrap(name, backward_fn))

        return record

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "frameparse" or name.startswith("frameparse."))
        ]
        patches = []
        for span, (owner, attr) in FUNCTIONS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for span, (owner, attr) in METHODS.items():
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))
        original_record = Tape.__dict__["record"]
        patches.append((Tape, "record", original_record))
        Tape.record = self._traced_record(original_record)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls and self time in milliseconds."""
        covered = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - covered[span_id]
        return {
            name: {"calls": calls[name], "self_ms": self_ns[name] / 1e6}
            for name in SPAN_NAMES
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")
