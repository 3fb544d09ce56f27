"""Posology extraction: dose, frequency, duration and comment entities.

Runs the pattern set over a sentence classified as posology (or over the
remainder of a combined drug+posology line) and keeps the surviving match
spans as its entities: each is a ``patterns.MatchSpan``, whose label is the
entity's kind and whose pattern id names the pattern that found it.
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
    covered = set()
    for s in spans:
        covered.update(range(s.start_token, s.end_token))
    residual = " ".join(t for i, t in enumerate(sentence.tokens) if i not in covered)
    return PosologyExtraction(sentence.line_id, spans, residual)
