"""Precision / recall / F1 scoring over gold-annotated sentences.

Both modes count by one rule. A sentence's gold and predicted spans each
become a set of units, and a label's true positives, false positives and
false negatives are its units in both sets, in the predicted set only and
in the gold set only. In EXACT_SPAN mode a unit is the span itself (label
and character range); in TOKEN mode it is a ``(label, token index)`` pair
for each ``\\S+`` token of the gold text that a span of that label
overlaps. So duplicate spans count once, and a prediction with the wrong
label counts once as a false positive for the predicted label and once as
a false negative for the gold label. Every label of any span is reported,
also one whose spans cover no token.

Conventions: precision and recall define 0/0 as 1, F1 defines 0/0 as 0.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import AlignmentError

MODES = ("TOKEN", "EXACT_SPAN")

# (kind, char_start, char_end) in the gold sentence's raw text
Span = tuple[str, int, int]


@dataclass(frozen=True)
class LabelScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    per_label: dict[str, LabelScore]
    totals: LabelScore
    mode: str


def _ratio(num: int, den: int) -> float:
    return 1.0 if den == 0 else num / den


def _label_score(tp: int, fp: int, fn: int) -> LabelScore:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return LabelScore(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


def _token_intervals(text: str) -> list[tuple[int, int]]:
    return [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]


def _units(spans: list[Span], tokens: list[tuple[int, int]] | None) -> set[tuple]:
    """The spans themselves when ``tokens`` is None (EXACT_SPAN), else ``(label, i)`` per token i a span overlaps."""
    if tokens is None:
        return set(spans)
    units = set()
    for kind, start, end in spans:
        for i, (token_start, token_end) in enumerate(tokens):
            if token_start < end and start < token_end:
                units.add((kind, i))
    return units


def score(
    gold: Sequence,
    predicted: Sequence[Sequence[Span]],
    mode: str = "TOKEN",
) -> EvalReport:
    """Score predictions against gold sentences, aligned by position.

    ``gold`` is a sequence of annotated sentences (``text`` and ``spans``
    attributes); ``predicted`` is a same-length sequence of span lists in
    the same character space as each gold text.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if len(gold) != len(predicted):
        raise AlignmentError(f"{len(gold)} gold sentences vs {len(predicted)} predictions")

    counts: dict[str, list[int]] = {}  # label -> [tp, fp, fn]
    for g, pred in zip(gold, predicted):
        gold_spans = [(kind, start, end) for kind, start, end in g.spans]
        pred_spans = list(pred)
        for span in gold_spans + pred_spans:
            counts.setdefault(span[0], [0, 0, 0])
        tokens = _token_intervals(g.text) if mode == "TOKEN" else None
        gold_units = _units(gold_spans, tokens)
        pred_units = _units(pred_spans, tokens)
        matched = gold_units & pred_units
        for column, units in enumerate((matched, pred_units - gold_units, gold_units - pred_units)):
            for unit in units:
                counts[unit[0]][column] += 1

    per_label = {label: _label_score(*counts[label]) for label in sorted(counts)}
    totals = _label_score(
        sum(c[0] for c in counts.values()),
        sum(c[1] for c in counts.values()),
        sum(c[2] for c in counts.values()),
    )
    return EvalReport(per_label=per_label, totals=totals, mode=mode)


def report_to_dict(report: EvalReport) -> dict:
    """The report as plain dicts: ``mode``, ``per_label`` (label -> row) and ``totals``."""
    return asdict(report)


_DISPLAY = {
    "DRUG": "Drug name",
    "DOSE": "Dose",
    "DURATION": "Duration",
    "FREQUENCY": "Frequency",
    "COMMENT": "Comment",
}


def format_table(report: EvalReport) -> str:
    """Aligned plain-text table: Label, F-measure, Precision, Recall."""
    rows = [("Label", "F-measure", "Precision", "Recall")]
    for label, s in sorted(report.per_label.items()):
        rows.append(
            (
                _DISPLAY.get(label, label),
                f"{100 * s.f1:.2f}",
                f"{100 * s.precision:.2f}",
                f"{100 * s.recall:.2f}",
            )
        )
    t = report.totals
    rows.append(("TOTAL", f"{100 * t.f1:.2f}", f"{100 * t.precision:.2f}", f"{100 * t.recall:.2f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)


def report_to_json(report: EvalReport) -> bytes:
    return (json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n").encode("utf-8")
