"""Contract tests for span scoring (`ordonnance.metrics`)."""

import pytest

from ordonnance.corpus import AnnotatedSentence
from ordonnance.errors import AlignmentError
from ordonnance.metrics import report_to_json, score

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
