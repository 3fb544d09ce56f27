"""Posology extraction: dose, frequency, duration and comment entities.

Runs the pattern set over a sentence classified as posology (or over the
remainder of a combined drug+posology line) and keeps the surviving match
spans as its entities: each is a ``patterns.MatchSpan``, whose label is the
entity's kind and whose pattern id names the pattern that found it.
The residual text is read off the spans in one pass, as they come sorted
by start token.
"""

from __future__ import annotations

from typing import NamedTuple

from .patterns import MatchSpan, PatternSet, find_all
from .textnorm import Sentence


class PosologyExtraction(NamedTuple):
    line_id: str
    entities: tuple[MatchSpan, ...]
    residual_text: str


def extract_posology(sentence: Sentence, patterns: PatternSet) -> PosologyExtraction:
    """Extract posology entities; deterministic for a fixed pattern set.

    Entities come back sorted by span start. ``residual_text`` joins the
    tokens not covered by any entity's token range, preserving order.
    """
    spans = tuple(find_all(patterns, sentence))
    tokens = sentence.tokens
    # the spans are sorted by start, so the tokens between the furthest end
    # so far and the next start are covered by none of them
    residual: list[str] = []
    covered_to = 0
    for s in spans:
        residual += tokens[covered_to : s.start_token]
        if s.end_token > covered_to:
            covered_to = s.end_token
    residual += tokens[covered_to:]
    return PosologyExtraction(sentence.line_id, spans, " ".join(residual))
