"""Evaluation: exact match, labeled bracketing P/R/F1, the stricter
tree-labeled variant, tree validity, and top-k accuracy.

Predictions are read leniently: lines that fail to parse as balanced
bracketed trees count as invalid predictions (zero credit everywhere) but
still occupy their slot in every denominator.  Tree validity itself only
requires a structural parse, not the intent-slot constraints, so output
from any external system can be scored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .trees import FormatError, Token, Tree, parse_bracketed, serialize


class LengthMismatch(ValueError):
    pass


def _require_aligned(gold, pred) -> None:
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold trees vs {len(pred)} predictions")


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def bracket_items(tree: Tree) -> Counter:
    """Multiset of (label, start, end) over all non-terminals."""
    items: Counter = Counter()
    _collect(tree.root, 0, items, with_subtree=False)
    return items


def subtree_items(tree: Tree) -> Counter:
    """Multiset of (label, start, end, canonical subtree serialization)."""
    items: Counter = Counter()
    _collect(tree.root, 0, items, with_subtree=True)
    return items


def _collect(node, start: int, items: Counter, with_subtree: bool) -> int:
    if isinstance(node, Token):
        return start + 1
    end = start
    for child in node.children:
        end = _collect(child, end, items, with_subtree)
    if with_subtree:
        items[(str(node.label), start, end, serialize(node))] += 1
    else:
        items[(str(node.label), start, end)] += 1
    return end


def exact_match(gold: Sequence[Tree], pred) -> float:
    """Percentage of predictions structurally identical to gold; invalid
    predictions (None) simply do not match."""
    _require_aligned(gold, pred)
    hits = sum(1 for g, p in zip(gold, pred) if p is not None and p == g)
    return 100.0 * hits / len(gold)


def _micro_prf(gold, pred, extract) -> tuple:
    _require_aligned(gold, pred)
    matched = 0
    total_gold = 0
    total_pred = 0
    for g, p in zip(gold, pred):
        g_items = extract(g)
        total_gold += sum(g_items.values())
        if p is None:
            continue
        p_items = extract(p)
        total_pred += sum(p_items.values())
        matched += sum((g_items & p_items).values())
    precision = 100.0 * matched / total_pred if total_pred else 0.0
    recall = 100.0 * matched / total_gold if total_gold else 0.0
    return precision, recall, f1_score(precision, recall)


def bracket_prf(gold: Sequence[Tree], pred) -> tuple:
    """Micro-averaged labeled bracketing (precision, recall, F1) in percent."""
    return _micro_prf(gold, pred, bracket_items)


def tree_labeled_prf(gold: Sequence[Tree], pred) -> tuple:
    """Like bracketing, but a non-terminal only matches when its label,
    span, and entire internal subtree are identical."""
    return _micro_prf(gold, pred, subtree_items)


def tree_validity(raw_predictions: Sequence[str]) -> float:
    """Percentage of lines that parse as balanced bracketed trees (the
    intent-slot constraints are not required here)."""
    if not raw_predictions:
        return 100.0
    valid = 0
    for line in raw_predictions:
        try:
            parse_bracketed(line.strip())
            valid += 1
        except FormatError:
            pass
    return 100.0 * valid / len(raw_predictions)


def top_k_accuracy(gold: Sequence[Tree], beams, k: int) -> float:
    """Percentage of examples whose gold tree appears in the first ``k``
    beam entries."""
    _require_aligned(gold, beams)
    hits = 0
    for g, beam in zip(gold, beams):
        hits += any(p is not None and p == g for p in list(beam)[:k])
    return 100.0 * hits / len(gold)


@dataclass
class MetricsReport:
    exact_match: float
    bracket_precision: float
    bracket_recall: float
    bracket_f1: float
    tl_precision: float
    tl_recall: float
    tl_f1: float
    tree_validity: float
    n_examples: int
    n_invalid_predictions: int
    top_k: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "exact_match": self.exact_match,
            "bracket": {
                "precision": self.bracket_precision,
                "recall": self.bracket_recall,
                "f1": self.bracket_f1,
            },
            "tree_labeled": {
                "precision": self.tl_precision,
                "recall": self.tl_recall,
                "f1": self.tl_f1,
            },
            "tree_validity": self.tree_validity,
            "n_examples": self.n_examples,
            "n_invalid_predictions": self.n_invalid_predictions,
        }
        if self.top_k:
            out["top_k"] = {str(k): v for k, v in sorted(self.top_k.items())}
        return out

    def to_table(self) -> str:
        headers = [
            "Exact match", "F1", "Precision", "Recall",
            "TL-F1", "TL-Precision", "TL-Recall", "Tree Validity",
        ]
        values = [
            self.exact_match, self.bracket_f1, self.bracket_precision, self.bracket_recall,
            self.tl_f1, self.tl_precision, self.tl_recall, self.tree_validity,
        ]
        cells = [f"{v:.2f}" for v in values]
        widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        row = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        lines = [head, row]
        for k in sorted(self.top_k):
            lines.append(f"Top-{k}: {self.top_k[k]:.2f}")
        return "\n".join(lines)


def evaluate(gold: Sequence[Tree], pred, raw_lines=None, beams=None, top_ks=()) -> MetricsReport:
    """Score aligned gold/predicted trees (None = invalid prediction)."""
    _require_aligned(gold, pred)
    bp, br, bf = bracket_prf(gold, pred)
    tp, tr, tf = tree_labeled_prf(gold, pred)
    if raw_lines is not None:
        validity = tree_validity(raw_lines)
    else:
        validity = 100.0 * sum(1 for p in pred if p is not None) / len(gold)
    top_k = {}
    if beams is not None:
        for k in top_ks:
            top_k[k] = top_k_accuracy(gold, beams, k)
    return MetricsReport(
        exact_match=exact_match(gold, pred),
        bracket_precision=bp,
        bracket_recall=br,
        bracket_f1=bf,
        tl_precision=tp,
        tl_recall=tr,
        tl_f1=tf,
        tree_validity=validity,
        n_examples=len(gold),
        n_invalid_predictions=sum(1 for p in pred if p is None),
        top_k=top_k,
    )


def read_gold_file(path) -> list:
    """Strict reader: every line must parse."""
    trees = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trees.append(parse_bracketed(line))
            except FormatError as err:
                raise type(err)(f"gold line {lineno}: {err.message}", err.offset) from None
    return trees


def read_predictions_file(path):
    """Lenient reader: returns (trees-or-None, raw lines)."""
    trees = []
    raw = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            raw.append(line)
            try:
                trees.append(parse_bracketed(line.strip()))
            except FormatError:
                trees.append(None)
    return trees, raw


def read_beam_file(path):
    """Read the top-k prediction format: per input, up to k lines of
    ``score<TAB>tree`` followed by one blank line.  Returns a list of beams;
    each beam is a list of trees (None for unparseable entries) in file
    order, plus the raw top line per beam for validity scoring."""
    beams = []
    top_lines = []
    current: Optional[list] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line.strip():
                if current is not None:
                    beams.append(current)
                    current = None
                continue
            if current is None:
                current = []
            score, sep, tree_text = line.partition("\t")
            text = tree_text if sep else line
            if len(current) == 0:
                top_lines.append(text)
            try:
                current.append(parse_bracketed(text.strip()))
            except FormatError:
                current.append(None)
    if current is not None:
        beams.append(current)
    return beams, top_lines
