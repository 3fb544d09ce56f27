"""Geometric drug-posology linking.

Works page by page in reading order. A posology line horizontally aligned
with a drug line is assigned to that drug (nearest horizontally when several
qualify). Otherwise it attaches to the nearest drug line above it, provided
the chain gap stays under threshold: the gap to the drug line itself for the
first posology of a section, then to the previous posology line of the same
section. Everything else is surfaced as an orphan rather than force-linked.
A tie goes to the first of the drug lines in reading order.

Distances are measured in units of the page's median line height, so the
thresholds hold regardless of scan resolution or font size. A page with
fewer than 3 lines uses ``_FALLBACK_MEDIAN_HEIGHT`` (0.02) instead.

Each drug line's edges (top, bottom, left, right, height) are worked out
once per page, and both gap limits once per page; every (posology line,
drug line) pair is then a few float comparisons in one loop, which finds
the aligned winner and the nearest drug line above together. The chain gap
from a section's last posology line is measured by ``vertical_gap``, so a
line out of reading order raises its ``OrderError``.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .druglink import DrugMention
from .errors import OrderError, check_number
from .ocr import BoundingBox, reading_order_key
from .posology import PosologyExtraction

_FALLBACK_MEDIAN_HEIGHT = 0.02


@dataclass(frozen=True)
class LinkConfig:
    section_gap_factor: float = 1.5
    drug_gap_factor: float = 2.5
    overlap_fraction: float = 0.5

    def __post_init__(self):
        for name in ("section_gap_factor", "drug_gap_factor"):
            check_number(name, getattr(self, name), 0, math.inf, open_low=True, open_high=True)
        check_number("overlap_fraction", self.overlap_fraction, 0, 1, open_low=True)


class ClassifiedLine(NamedTuple):
    """One OCR line after classification and extraction, ready for linking."""

    line_id: str
    page: int
    bbox: BoundingBox
    label: str  # DRUG / POSOLOGY / USELESS / EQUIVALENT (a substitute drug line, neither attached nor listed)
    mention: DrugMention | None = None
    extraction: PosologyExtraction | None = None  # posology line, or combined-line remainder


@dataclass
class PrescriptionRecord:
    doc_id: str
    drugs: list[tuple[DrugMention, list[PosologyExtraction]]] = field(default_factory=list)
    orphans: list[PosologyExtraction] = field(default_factory=list)
    unmatched_drug_lines: list[str] = field(default_factory=list)


def vertical_gap(a: BoundingBox, b: BoundingBox) -> float:
    """Vertical whitespace between box a (above) and box b; 0 when they touch or overlap."""
    if a.top > b.top:
        raise OrderError(f"box a (top={a.top}) is below box b (top={b.top})")
    return max(0.0, b.top - (a.top + a.height))


def link(doc_id: str, lines: list[ClassifiedLine], config: LinkConfig = LinkConfig()) -> PrescriptionRecord:
    """Assign posology extractions to drug mentions by page geometry.

    Every posology extraction lands exactly once: under a drug or in
    ``orphans``. Drug lines whose lexicon link failed are listed in
    ``unmatched_drug_lines``. Input order does not matter; reading order is
    re-derived from the geometry with ``ocr.reading_order_key``, the line id
    breaking a tie of boxes. Drugs are listed in reading order, each with
    the extractions that land under it.
    """
    record = PrescriptionRecord(doc_id=doc_id)
    for _, group in groupby(sorted(lines, key=reading_order_key), key=attrgetter("page")):
        page_lines = list(group)
        median_h = (
            statistics.median([ln.bbox.height for ln in page_lines])
            if len(page_lines) >= 3
            else _FALLBACK_MEDIAN_HEIGHT
        )
        drug_limit = config.drug_gap_factor * median_h
        chain_limit = config.section_gap_factor * median_h

        # One entry per linked drug line, in reading order: its edges, the
        # extractions landing under it, and the box of the last posology line
        # assigned to it (None before the first).
        edges: list[tuple[float, float, float, float, float]] = []
        sections: list[list[PosologyExtraction]] = []
        last: list[BoundingBox | None] = []
        for ln in page_lines:
            if ln.label == "DRUG":
                if ln.mention is None:
                    record.unmatched_drug_lines.append(ln.line_id)
                else:
                    box = ln.bbox
                    edges.append((box.top, box.top + box.height, box.left, box.left + box.width, box.height))
                    extractions = []
                    if ln.extraction is not None and ln.extraction.entities:
                        # combined drug+posology line: its remainder belongs to itself
                        extractions.append(ln.extraction)
                        last.append(ln.bbox)
                    else:
                        last.append(None)
                    sections.append(extractions)
                    record.drugs.append((ln.mention, extractions))

        for ln in page_lines:
            if ln.label != "POSOLOGY" or ln.extraction is None:
                continue
            k = _assign(ln.bbox, edges, last, drug_limit, chain_limit, config.overlap_fraction)
            if k is None:
                record.orphans.append(ln.extraction)
            else:
                sections[k].append(ln.extraction)
                last[k] = ln.bbox
    return record


def _assign(
    bbox: BoundingBox,
    edges: list[tuple[float, float, float, float, float]],
    last: list[BoundingBox | None],
    drug_limit: float,
    chain_limit: float,
    overlap_fraction: float,
) -> int | None:
    """The index of the drug line a posology line of this box goes to, or None.

    ``edges`` holds each drug line's (top, bottom, left, right, height) in
    reading order, and ``last`` the box of the last posology line assigned
    to it. A drug line is aligned when the vertical intervals overlap by at
    least ``overlap_fraction`` of the smaller of the two heights; the aligned
    one horizontally nearest wins. With none aligned, the nearest drug line
    above (least vertical gap, then most horizontal overlap) wins if the gap
    to it, or to its last posology line, is within its limit. A tie keeps
    the first drug line in reading order.
    """
    top = bbox.top
    height = bbox.height
    bottom = top + height
    left = bbox.left
    right = left + bbox.width
    aligned = None
    aligned_distance = 0.0
    nearest = None
    nearest_gap = 0.0
    # min and max written out: this loop runs for every (posology, drug) pair
    for k, (d_top, d_bottom, d_left, d_right, d_height) in enumerate(edges):
        overlap = (bottom if bottom < d_bottom else d_bottom) - (top if top > d_top else d_top)
        if overlap >= overlap_fraction * (height if height < d_height else d_height):
            distance = max(0.0, left - d_right, d_left - right)
            if aligned is None or distance < aligned_distance:
                aligned, aligned_distance = k, distance
        elif aligned is None and d_top <= top:
            gap = top - d_bottom
            if gap < 0.0:
                gap = 0.0
            if nearest is None or gap < nearest_gap:
                nearest, nearest_gap = k, gap
            elif gap == nearest_gap:  # the one overlapping the posology line more horizontally
                if _overlap_width(edges[k], left, right) > _overlap_width(edges[nearest], left, right):
                    nearest = k
    if aligned is not None:
        return aligned
    if nearest is None:
        return None
    chained = last[nearest]
    if chained is None:
        return nearest if nearest_gap <= drug_limit else None
    return nearest if vertical_gap(chained, bbox) <= chain_limit else None


def _overlap_width(edge: tuple[float, float, float, float, float], left: float, right: float) -> float:
    """How far a drug line's horizontal interval overlaps [left, right]; 0 when they are apart."""
    return max(0.0, min(edge[3], right) - max(edge[2], left))


def record_to_dict(record: PrescriptionRecord) -> dict:
    """The record as plain JSON data.

    An entity's ``start`` and ``end`` index the ``match_text`` of the line
    named by its extraction's ``line_id`` (the normalized line text), also
    on a combined line, where they fall after the drug name.
    """
    return {
        "doc_id": record.doc_id,
        "drugs": [
            {
                "drug_id": mention.drug_id,
                "name": mention.lexicon_name,
                "surface": mention.surface_text,
                "score": mention.score,
                "line_id": mention.line_id,
                "posologies": [_extraction_to_dict(e) for e in extractions],
            }
            for mention, extractions in record.drugs
        ],
        "orphans": [_extraction_to_dict(e) for e in record.orphans],
        "unmatched_drug_lines": list(record.unmatched_drug_lines),
    }


def _extraction_to_dict(extraction: PosologyExtraction) -> dict:
    return {
        "line_id": extraction.line_id,
        "entities": [
            {"kind": e.label, "text": e.text, "start": e.char_start, "end": e.char_end}
            for e in extraction.entities
        ],
        "residual": extraction.residual_text,
    }


def dumps_canonical(obj: dict) -> bytes:
    """Canonical JSON bytes: stable key order, compact separators, trailing newline."""
    return (json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")
