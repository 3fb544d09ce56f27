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
    label: str  # DRUG / POSOLOGY / USELESS
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


def horizontally_aligned(a: BoundingBox, b: BoundingBox, overlap_fraction: float) -> bool:
    """True iff the vertical intervals overlap by at least the required fraction."""
    overlap = min(a.bottom, b.bottom) - max(a.top, b.top)
    return overlap >= overlap_fraction * min(a.height, b.height)


def _horizontal_distance(a: BoundingBox, b: BoundingBox) -> float:
    return max(0.0, b.left - a.right, a.left - b.right)


def _horizontal_overlap(a: BoundingBox, b: BoundingBox) -> float:
    return max(0.0, min(a.right, b.right) - max(a.left, b.left))


class _Section:
    __slots__ = ("line", "extractions", "last_bbox")

    def __init__(self, line: ClassifiedLine):
        self.line = line
        self.extractions: list[PosologyExtraction] = []
        self.last_bbox: BoundingBox | None = None  # last assigned posology line


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
        heights = [ln.bbox.height for ln in page_lines]
        median_h = statistics.median(heights) if len(heights) >= 3 else _FALLBACK_MEDIAN_HEIGHT

        sections: list[_Section] = []
        for ln in page_lines:
            if ln.label == "DRUG":
                if ln.mention is None:
                    record.unmatched_drug_lines.append(ln.line_id)
                else:
                    section = _Section(ln)
                    if ln.extraction is not None and ln.extraction.entities:
                        # combined drug+posology line: its remainder belongs to itself
                        section.extractions.append(ln.extraction)
                        section.last_bbox = ln.bbox
                    sections.append(section)
                    record.drugs.append((ln.mention, section.extractions))

        for ln in page_lines:
            if ln.label != "POSOLOGY" or ln.extraction is None:
                continue
            target = _assign(ln, sections, median_h, config)
            if target is None:
                record.orphans.append(ln.extraction)
            else:
                target.extractions.append(ln.extraction)
                target.last_bbox = ln.bbox
    return record


def _assign(
    ln: ClassifiedLine,
    sections: list[_Section],
    median_h: float,
    config: LinkConfig,
) -> _Section | None:
    # ``sections`` are in reading order and ``min`` keeps the first of equal
    # keys, so a tie goes to the first drug line in reading order.
    aligned = [
        s for s in sections if horizontally_aligned(s.line.bbox, ln.bbox, config.overlap_fraction)
    ]
    if aligned:
        return min(aligned, key=lambda s: _horizontal_distance(s.line.bbox, ln.bbox))

    above = [s for s in sections if s.line.bbox.top <= ln.bbox.top]
    if not above:
        return None
    nearest = min(
        above,
        key=lambda s: (
            vertical_gap(s.line.bbox, ln.bbox),
            -_horizontal_overlap(s.line.bbox, ln.bbox),
        ),
    )
    if nearest.last_bbox is None:
        gap = vertical_gap(nearest.line.bbox, ln.bbox)
        limit = config.drug_gap_factor * median_h
    else:
        gap = vertical_gap(nearest.last_bbox, ln.bbox)
        limit = config.section_gap_factor * median_h
    if gap <= limit:
        return nearest
    return None


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
