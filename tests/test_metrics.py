"""Contract tests for span scoring (`ordonnance.metrics`).

The earlier scorer, which counted EXACT_SPAN by a set difference of spans
and TOKEN by a per-label re-scan of the tokens, is kept below as an oracle
for the one counting rule of ``score``.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordonnance.corpus import AnnotatedSentence
from ordonnance.errors import AlignmentError
from ordonnance.metrics import MODES, EvalReport, _label_score, format_table, report_to_dict, report_to_json, score

TEXT = "1 comprime matin"  # tokens: "1" [0, 1), "comprime" [2, 10), "matin" [11, 16)


def gold(*spans):
    return [AnnotatedSentence(text=TEXT, label="POSOLOGY", spans=tuple(spans))]


def counts(label_score):
    return (label_score.tp, label_score.fp, label_score.fn)


@pytest.mark.parametrize("mode", ["TOKEN", "EXACT_SPAN"])
def test_wrong_label_is_one_false_positive_and_one_false_negative(mode):
    report = score(gold(("DOSE", 0, 1)), [[("FREQUENCY", 0, 1)]], mode=mode)
    assert counts(report.per_label["DOSE"]) == (0, 0, 1)
    assert counts(report.per_label["FREQUENCY"]) == (0, 1, 0)
    assert counts(report.totals) == (0, 1, 1)


def test_token_mode_credits_every_token_a_span_touches():
    # the prediction covers "1" and the first letter of "comprime"
    predicted = [[("DOSE", 0, 3)]]
    token = score(gold(("DOSE", 0, 10)), predicted, mode="TOKEN")
    assert counts(token.per_label["DOSE"]) == (2, 0, 0)
    exact = score(gold(("DOSE", 0, 10)), predicted, mode="EXACT_SPAN")
    assert counts(exact.per_label["DOSE"]) == (0, 1, 1)


@pytest.mark.parametrize("mode", ["TOKEN", "EXACT_SPAN"])
def test_nothing_to_find_and_nothing_found_is_perfect(mode):
    report = score(gold(), [[]], mode=mode)
    assert report.per_label == {}
    totals = report.totals
    assert (totals.precision, totals.recall, totals.f1) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("mode", ["TOKEN", "EXACT_SPAN"])
def test_zero_over_zero_is_one_for_precision_and_recall_and_zero_for_f1(mode):
    report = score(gold(("DOSE", 0, 1)), [[("FREQUENCY", 11, 16)]], mode=mode)
    dose, freq, totals = report.per_label["DOSE"], report.per_label["FREQUENCY"], report.totals
    assert (dose.precision, dose.recall, dose.f1) == (1.0, 0.0, 0.0)  # nothing predicted
    assert (freq.precision, freq.recall, freq.f1) == (0.0, 1.0, 0.0)  # nothing to find
    assert (totals.precision, totals.recall, totals.f1) == (0.0, 0.0, 0.0)  # F1 0/0


def test_length_mismatch_raises_alignment_error():
    with pytest.raises(AlignmentError):
        score(gold(("DOSE", 0, 1)), [[], []])


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        score(gold(), [[]], mode="PARTIAL")


def test_report_json_is_stable():
    spans = [("FREQUENCY", 11, 16), ("DOSE", 0, 10)]
    report = score(gold(*spans), [[("DOSE", 0, 10)]], mode="EXACT_SPAN")
    reordered = score(gold(*reversed(spans)), [[("DOSE", 0, 10)]], mode="EXACT_SPAN")
    assert report_to_json(report) == report_to_json(reordered)
    assert report_to_json(report) == b"""{
  "mode": "EXACT_SPAN",
  "per_label": {
    "DOSE": {
      "f1": 1.0,
      "fn": 0,
      "fp": 0,
      "precision": 1.0,
      "recall": 1.0,
      "tp": 1
    },
    "FREQUENCY": {
      "f1": 0.0,
      "fn": 1,
      "fp": 0,
      "precision": 1.0,
      "recall": 0.0,
      "tp": 0
    }
  },
  "totals": {
    "f1": 0.6666666666666666,
    "fn": 1,
    "fp": 0,
    "precision": 1.0,
    "recall": 0.5,
    "tp": 1
  }
}
"""


def test_format_table_shows_display_names_and_the_total_row():
    predicted = [[("DRUG", 0, 1), ("DOSE", 0, 10), ("DOSE", 11, 16), ("ROUTE", 2, 10)]]
    report = score(gold(("DRUG", 0, 1), ("DOSE", 0, 10), ("FREQUENCY", 11, 16)), predicted, mode="EXACT_SPAN")
    assert format_table(report) == (
        "Label      F-measure  Precision  Recall\n"
        "Dose       66.67      50.00      100.00\n"
        "Drug name  100.00     100.00     100.00\n"
        "Frequency  0.00       100.00     0.00\n"
        "ROUTE      0.00       0.00       100.00\n"
        "TOTAL      57.14      50.00      66.67"
    )


# The earlier scorer, unchanged but for its name, and its report rows.


def _token_intervals(text: str) -> list[tuple[int, int]]:
    return [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]


def _covered(intervals, spans, label: str) -> set[int]:
    hit: set[int] = set()
    for kind, start, end in spans:
        if kind != label:
            continue
        for i, (ts, te) in enumerate(intervals):
            if ts < end and start < te:
                hit.add(i)
    return hit


def oracle_score(gold, predicted, mode: str = "TOKEN") -> EvalReport:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if len(gold) != len(predicted):
        raise AlignmentError(f"{len(gold)} gold sentences vs {len(predicted)} predictions")

    labels = sorted(
        {s[0] for spans in predicted for s in spans}
        | {s[0] for g in gold for s in _gold_spans(g)}
    )
    counts = {label: [0, 0, 0] for label in labels}  # tp, fp, fn

    for g, pred in zip(gold, predicted):
        gold_spans = _gold_spans(g)
        pred_spans = list(pred)
        if mode == "EXACT_SPAN":
            gold_set = set(gold_spans)
            pred_set = set(pred_spans)
            for span in gold_set & pred_set:
                counts[span[0]][0] += 1
            for span in pred_set - gold_set:
                counts[span[0]][1] += 1
            for span in gold_set - pred_set:
                counts[span[0]][2] += 1
        else:
            intervals = _token_intervals(g.text)
            for label in labels:
                g_hit = _covered(intervals, gold_spans, label)
                p_hit = _covered(intervals, pred_spans, label)
                counts[label][0] += len(g_hit & p_hit)
                counts[label][1] += len(p_hit - g_hit)
                counts[label][2] += len(g_hit - p_hit)

    per_label = {label: _label_score(*counts[label]) for label in labels}
    totals = _label_score(
        sum(c[0] for c in counts.values()),
        sum(c[1] for c in counts.values()),
        sum(c[2] for c in counts.values()),
    )
    return EvalReport(per_label=per_label, totals=totals, mode=mode)


def _gold_spans(sentence):
    return [(kind, start, end) for kind, start, end in sentence.spans]


def oracle_report_to_dict(report: EvalReport) -> dict:
    def row(s) -> dict:
        return {
            "tp": s.tp,
            "fp": s.fp,
            "fn": s.fn,
            "precision": s.precision,
            "recall": s.recall,
            "f1": s.f1,
        }

    return {
        "mode": report.mode,
        "per_label": {label: row(s) for label, s in sorted(report.per_label.items())},
        "totals": row(report.totals),
    }


LABELS = ("DOSE", "DRUG", "FREQUENCY")


def _spans_of(text: str):
    """A span of ``text``, as the gold reader accepts: 0 <= start < end <= len(text)."""
    return st.integers(0, len(text) - 1).flatmap(
        lambda start: st.tuples(st.sampled_from(LABELS), st.just(start), st.integers(start + 1, len(text)))
    )


@st.composite
def corpora(draw):
    """Gold sentences and predictions drawn from one small pool of spans per sentence.

    Texts may be empty or hold runs of spaces; gold and predicted spans are
    drawn with repeats from the same pool, so duplicates, exact matches,
    overlaps, whitespace-only spans and labels on one side only all occur.
    """
    gold, predicted = [], []
    for _ in range(draw(st.integers(0, 4))):
        text = draw(st.text(alphabet="ab1 ", max_size=10))
        pool = draw(st.lists(_spans_of(text), max_size=4)) if text else []
        side = st.lists(st.sampled_from(pool), max_size=5) if pool else st.just([])
        gold.append(AnnotatedSentence(text=text, label="POSOLOGY", spans=tuple(draw(side))))
        predicted.append(draw(side))
    return gold, predicted


def _sentence(text, *spans):
    return AnnotatedSentence(text=text, label="POSOLOGY", spans=tuple(spans))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(corpora())
# duplicate spans on both sides
@example(([_sentence(TEXT, ("DOSE", 0, 1), ("DOSE", 0, 1))], [[("DOSE", 0, 1), ("DOSE", 0, 1), ("DOSE", 2, 10)]]))
# overlapping spans of one label and of different labels
@example(([_sentence(TEXT, ("DOSE", 0, 10), ("DOSE", 2, 16))], [[("DOSE", 0, 3), ("FREQUENCY", 2, 16)]]))
# spans over whitespace only, their labels on one side only
@example(([_sentence("1   comprime", ("COMMENT", 1, 4), ("DOSE", 0, 1))], [[("DURATION", 2, 3), ("DOSE", 0, 1)]]))
# empty sentences, one of them blank
@example(([_sentence(""), _sentence("   ", ("DOSE", 0, 2)), _sentence(TEXT)], [[], [], [("DOSE", 0, 1)]]))
def test_score_equals_the_earlier_scorer_in_both_modes(corpus):
    gold_sentences, predicted = corpus
    for mode in MODES:
        report = score(gold_sentences, predicted, mode=mode)
        expected = oracle_score(gold_sentences, predicted, mode=mode)
        assert report == expected
        assert list(report.per_label) == list(expected.per_label)
        assert report_to_dict(report) == oracle_report_to_dict(expected)
        expected_json = json.dumps(oracle_report_to_dict(expected), indent=2, sort_keys=True) + "\n"
        assert report_to_json(report) == expected_json.encode("utf-8")
