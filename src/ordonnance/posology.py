"""Posology extraction: dose, frequency, duration and comment entities.

Runs the pattern set over a sentence classified as posology (or over the
remainder of a combined drug+posology line) and collects the surviving spans
as entities; an entity's kind is its pattern's label.
"""

from __future__ import annotations

from typing import NamedTuple

from .patterns import PatternSet, find_all
from .textnorm import Sentence


class PosologyEntity(NamedTuple):
    kind: str
    text: str
    # character offsets of the span in the line's match_text (a combined
    # line's remainder is a view of its line, so they index the whole line)
    char_start: int
    char_end: int


class PosologyExtraction(NamedTuple):
    line_id: str
    entities: tuple[PosologyEntity, ...]
    residual_text: str


def extract_posology(sentence: Sentence, patterns: PatternSet) -> PosologyExtraction:
    """Extract posology entities; deterministic for a fixed pattern set.

    Entities come back sorted by span start. ``residual_text`` joins the
    tokens not covered by any entity, preserving order.
    """
    spans = find_all(patterns, sentence)
    entities = tuple(
        PosologyEntity(s.label, s.text, *sentence.char_span(s.start_token, s.end_token)) for s in spans
    )
    covered = set()
    for s in spans:
        covered.update(range(s.start_token, s.end_token))
    residual = " ".join(t for i, t in enumerate(sentence.tokens) if i not in covered)
    return PosologyExtraction(sentence.line_id, entities, residual)
