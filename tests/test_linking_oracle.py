"""``linking.link`` against the earlier per-pair implementation, kept here as an oracle.

The oracle works out each box's edges again for every (posology line, drug
line) pair, through the helpers it had, and picks a winner with ``min`` over
keyed lists; ``link`` works out each drug line's edges once per page and runs
both rules in one loop. The two must give equal records (every drug, every
extraction and its place, every orphan and unlinked drug line) on:

- the rx-typical and rx-druglist-noisy pool documents of the output digest,
  classified with the session desk model, at the digest's seed and at 37;
- drawn pages on a grid of binary fractions, so equal horizontal distances,
  equal gaps, equal overlaps and limits met exactly all occur, with aligned
  pairs, chains past the section limit, combined drug lines and two pages.

The oracle also counts which of its branches each drawn page takes, so a
test can show that the drawn pages reach every case above.
"""

import json
import pathlib
import random
import statistics
import sys
from collections import Counter
from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordonnance.druglink import DrugMention
from ordonnance.errors import OrderError, OrdonnanceError
from ordonnance.linking import ClassifiedLine, LinkConfig, PrescriptionRecord, link
from ordonnance.ocr import BoundingBox, parse_ocr_document
from ordonnance.patterns import MatchSpan
from ordonnance.pipeline import classify_lines
from ordonnance.posology import PosologyExtraction

from conftest import DATA_DIR

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
from docgen import DocGenerator  # noqa: E402

# ---- the oracle: link as it was, per pair, with branch counts ---------------

_FALLBACK_MEDIAN_HEIGHT = 0.02


def oracle_vertical_gap(a: BoundingBox, b: BoundingBox) -> float:
    if a.top > b.top:
        raise OrderError(f"box a (top={a.top}) is below box b (top={b.top})")
    return max(0.0, b.top - (a.top + a.height))


def oracle_horizontally_aligned(a: BoundingBox, b: BoundingBox, overlap_fraction: float) -> bool:
    overlap = min(a.bottom, b.bottom) - max(a.top, b.top)
    return overlap >= overlap_fraction * min(a.height, b.height)


def oracle_horizontal_distance(a: BoundingBox, b: BoundingBox) -> float:
    return max(0.0, b.left - a.right, a.left - b.right)


def oracle_horizontal_overlap(a: BoundingBox, b: BoundingBox) -> float:
    return max(0.0, min(a.right, b.right) - max(a.left, b.left))


class _Section:
    def __init__(self, line):
        self.line = line
        self.extractions = []
        self.last_bbox = None


def oracle_link(doc_id, lines, config=LinkConfig(), events: Counter | None = None) -> PrescriptionRecord:
    events = Counter() if events is None else events
    record = PrescriptionRecord(doc_id=doc_id)
    pages = 0
    for _, group in groupby(
        sorted(lines, key=lambda ln: (ln.page, ln.bbox.top, ln.bbox.left, ln.line_id)), key=attrgetter("page")
    ):
        pages += 1
        page_lines = list(group)
        heights = [ln.bbox.height for ln in page_lines]
        median_h = statistics.median(heights) if len(heights) >= 3 else _FALLBACK_MEDIAN_HEIGHT
        sections = []
        for ln in page_lines:
            if ln.label == "DRUG":
                if ln.mention is None:
                    record.unmatched_drug_lines.append(ln.line_id)
                else:
                    section = _Section(ln)
                    if ln.extraction is not None and ln.extraction.entities:
                        section.extractions.append(ln.extraction)
                        section.last_bbox = ln.bbox
                        events["combined"] += 1
                    sections.append(section)
                    record.drugs.append((ln.mention, section.extractions))
        for ln in page_lines:
            if ln.label != "POSOLOGY" or ln.extraction is None:
                continue
            target = _oracle_assign(ln, sections, median_h, config, events)
            if target is None:
                record.orphans.append(ln.extraction)
            else:
                target.extractions.append(ln.extraction)
                target.last_bbox = ln.bbox
    if pages > 1:
        events["several pages"] += 1
    return record


def _oracle_assign(ln, sections, median_h, config, events):
    aligned = [s for s in sections if oracle_horizontally_aligned(s.line.bbox, ln.bbox, config.overlap_fraction)]
    if aligned:
        events["aligned"] += 1
        distances = [oracle_horizontal_distance(s.line.bbox, ln.bbox) for s in aligned]
        if distances.count(min(distances)) > 1:
            events["equal horizontal distances"] += 1
        return min(aligned, key=lambda s: oracle_horizontal_distance(s.line.bbox, ln.bbox))

    above = [s for s in sections if s.line.bbox.top <= ln.bbox.top]
    if not above:
        return None

    def key(s):
        return (oracle_vertical_gap(s.line.bbox, ln.bbox), -oracle_horizontal_overlap(s.line.bbox, ln.bbox))

    keys = [key(s) for s in above]
    least_gap = min(gap for gap, _ in keys)
    if sum(gap == least_gap for gap, _ in keys) > 1:
        events["equal gaps"] += 1
        if keys.count(min(keys)) > 1:
            events["equal gaps and overlaps"] += 1
    nearest = min(above, key=key)
    if nearest.last_bbox is None:
        gap = oracle_vertical_gap(nearest.line.bbox, ln.bbox)
        limit = config.drug_gap_factor * median_h
    else:
        gap = oracle_vertical_gap(nearest.last_bbox, ln.bbox)
        limit = config.section_gap_factor * median_h
        events["chain within the section limit" if gap <= limit else "chain past the section limit"] += 1
    if gap == limit:
        events["gap at the limit"] += 1
    if gap <= limit:
        return nearest
    return None


# ---- drawn pages -------------------------------------------------------------

# Every coordinate is a multiple of 2**-6 and every factor a binary fraction,
# so distances, gaps, overlaps and limits are exact and ties are frequent.
U = 2**-6
KINDS = ("drug", "drug", "combined", "unlinked", "posology", "posology", "posology", "bare posology", "useless")
CONFIGS = (
    LinkConfig(),
    LinkConfig(section_gap_factor=0.5, drug_gap_factor=1.0),
    LinkConfig(section_gap_factor=0.25, drug_gap_factor=4.0, overlap_fraction=1.0),
    LinkConfig(section_gap_factor=2.0, drug_gap_factor=0.5, overlap_fraction=0.25),
)
ENTITY = MatchSpan("dose", "DOSE", 0, 1, "1", 0, 1)


def drawn_line(i: int, kind: str, page: int, bbox: BoundingBox) -> ClassifiedLine:
    line_id = f"l{i}"
    if kind in ("drug", "combined"):
        mention = DrugMention(line_id, f"D{i}", line_id, line_id, 1.0, 0)
        extraction = PosologyExtraction(line_id, (ENTITY,), "") if kind == "combined" else None
        return ClassifiedLine(line_id, page, bbox, "DRUG", mention, extraction)
    if kind == "unlinked":
        return ClassifiedLine(line_id, page, bbox, "DRUG")
    if kind == "posology":
        return ClassifiedLine(line_id, page, bbox, "POSOLOGY", None, PosologyExtraction(line_id, (ENTITY,), ""))
    if kind == "bare posology":  # a posology line that gave no extraction
        return ClassifiedLine(line_id, page, bbox, "POSOLOGY")
    return ClassifiedLine(line_id, page, bbox, "USELESS")


# Each drawn value of a line: its choices, or its inclusive integer range.
# The box is in grid units: top 0..24, height 1..2, left 0..40, width 1..24.
# A line in the same row as the line before it takes that line's top and
# height, so side-by-side lines, and the ties they bring, are common.
LINE_FIELDS = (KINDS, (1, 2), (0, 24), (1, 2), (0, 40), (1, 24), ("own row", "same row"))


def drawn_page(values: list[tuple]) -> list[ClassifiedLine]:
    """The lines of one drawn document, from each line's drawn values in LINE_FIELDS order."""
    lines = []
    for i, (kind, page, top, height, left, width, row) in enumerate(values):
        if row == "same row" and lines:
            top, height = lines[-1].bbox.top, lines[-1].bbox.height
        else:
            top, height = top * U, height * U
        lines.append(drawn_line(i, kind, page, BoundingBox(left * U, top, width * U, height)))
    return lines


def _strategy(field):
    return st.sampled_from(field) if isinstance(field[0], str) else st.integers(*field)


@st.composite
def drawn_pages(draw):
    values = draw(st.lists(st.tuples(*map(_strategy, LINE_FIELDS)), min_size=2, max_size=14))
    return draw(st.permutations(drawn_page(values))), draw(st.sampled_from(CONFIGS))


def random_page(rng: random.Random):
    """A page drawn as ``drawn_pages`` draws one, from ``rng``."""
    values = [
        tuple(rng.choice(f) if isinstance(f[0], str) else rng.randint(*f) for f in LINE_FIELDS)
        for _ in range(rng.randint(2, 14))
    ]
    lines = drawn_page(values)
    rng.shuffle(lines)
    return lines, rng.choice(CONFIGS)


@given(drawn_pages())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_drawn_pages_link_as_the_oracle_links_them(page):
    lines, config = page
    assert link("doc", lines, config) == oracle_link("doc", lines, config)


def test_drawn_pages_reach_every_case():
    """The page drawing reaches ties, aligned pairs, chains past the limit, combined lines and two pages."""
    events: Counter = Counter()
    rng = random.Random(0)
    for _ in range(400):
        lines, config = random_page(rng)
        assert link("doc", lines, config) == oracle_link("doc", lines, config, events)
    cases = (
        "aligned",
        "equal horizontal distances",
        "equal gaps",
        "equal gaps and overlaps",
        "gap at the limit",
        "chain within the section limit",
        "chain past the section limit",
        "combined",
        "several pages",
    )
    assert all(events[case] >= 10 for case in cases), events


# ---- the digest's pool documents --------------------------------------------

DIGEST = json.loads((DATA_DIR / "output_digest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [DIGEST["seed"], 37])
@pytest.mark.parametrize("name", ["rx-typical", "rx-druglist-noisy"])
def test_pool_documents_link_as_the_oracle_links_them(runtime, tmp_path, name, seed):
    docs = DocGenerator(tmp_path).documents(harness.WORKLOADS[name].docs, DIGEST["documents"], seed, name)
    linked = attached = 0
    for doc in docs:
        try:
            parsed = parse_ocr_document(doc.payload)
        except OrdonnanceError:
            continue  # a malformed payload never reaches linking
        lines = classify_lines(parsed, runtime)
        record = link(parsed.doc_id, lines)
        assert record == oracle_link(parsed.doc_id, lines), parsed.doc_id
        linked += 1
        attached += sum(len(extractions) for _, extractions in record.drugs)
    assert linked >= DIGEST["documents"] * 0.9
    assert attached > 0 or name == "rx-druglist-noisy"
