"""Contract tests for geometric drug-posology linking (`ordonnance.linking`).

Lines are built by hand, so each rule is checked on the geometry alone:
the aligned rule, the first-posology and chain gap limits in units of the
page's median line height, orphans, unlinked drug lines and input order.
"""

import math
import random

import pytest

from ordonnance.druglink import DrugMention
from ordonnance.errors import OrderError
from ordonnance.linking import ClassifiedLine, LinkConfig, link, record_to_dict, vertical_gap
from ordonnance.ocr import BoundingBox
from ordonnance.posology import PosologyExtraction

H = 0.02  # line height of every test line, hence the page's median height


def box(top, left=0.1, width=0.3, height=H):
    return BoundingBox(left, top, width, height)


def drug(line_id, bbox, page=1):
    mention = DrugMention(
        line_id=line_id,
        drug_id=line_id.upper(),
        lexicon_name=line_id,
        surface_text=line_id,
        score=1.0,
        trigger_token_index=0,
    )
    return ClassifiedLine(line_id, page, bbox, "DRUG", mention=mention)


def unlinked_drug(line_id, bbox, page=1):
    return ClassifiedLine(line_id, page, bbox, "DRUG")


def posology(line_id, bbox, page=1):
    return ClassifiedLine(line_id, page, bbox, "POSOLOGY", extraction=PosologyExtraction(line_id, (), ""))


def useless(line_id, bbox, page=1):
    return ClassifiedLine(line_id, page, bbox, "USELESS")


def owners(record) -> dict[str, list[str]]:
    """Drug line id -> the line ids of the posologies attached to it."""
    return {mention.line_id: [e.line_id for e in exts] for mention, exts in record.drugs}


def orphans(record) -> list[str]:
    return [e.line_id for e in record.orphans]


@pytest.mark.parametrize("left, owner", [(0.32, "d1"), (0.42, "d2")], ids=["nearer-left", "nearer-right"])
def test_aligned_posology_goes_to_the_horizontally_nearest_drug(left, owner):
    lines = [
        drug("d1", box(0.1, left=0.0)),  # right edge 0.3
        drug("d2", box(0.1, left=0.6)),  # left edge 0.6
        posology("p", box(0.1, left=left, width=0.15)),
        useless("u", box(0.5)),
    ]
    record = link("doc", lines)
    assert owners(record)[owner] == ["p"]
    assert orphans(record) == []


@pytest.mark.parametrize(
    "left_top, right_top, owner", [(0.1, 0.105, "left"), (0.105, 0.1, "right")], ids=["left-first", "right-first"]
)
def test_aligned_posology_equally_near_two_drugs_goes_to_the_first_in_reading_order(left_top, right_top, owner):
    # Both drugs are aligned with p and 0.125 from it horizontally (all edges
    # are exact binary fractions); the higher one comes first in reading order.
    lines = [
        drug("left", box(left_top, left=0.0, width=0.25)),  # right edge 0.25
        drug("right", box(right_top, left=0.75, width=0.25)),  # left edge 0.75
        posology("p", box(0.1, left=0.375, width=0.25)),  # edges 0.375 and 0.625
    ]
    for order in (lines, lines[::-1]):
        record = link("doc", order)
        assert owners(record)[owner] == ["p"]
        assert orphans(record) == []


def test_posology_below_two_side_by_side_drugs_with_equal_gap_and_overlap_goes_to_the_left_one():
    lines = [
        drug("left", box(0.1, left=0.0, width=0.5)),
        drug("right", box(0.1, left=0.5, width=0.5)),
        posology("p", box(0.1 + 2 * H, left=0.25, width=0.5)),  # overlaps each drug by 0.25
    ]
    for order in (lines, lines[::-1]):
        assert owners(link("doc", order)) == {"left": ["p"], "right": []}


def test_posology_below_two_side_by_side_drugs_with_equal_gap_goes_to_the_one_it_overlaps_more():
    # The gap to each drug is one line height; the posology lies under the
    # right drug only, so the overlap breaks the tie against reading order.
    h = 2**-6
    lines = [
        drug("left", box(0.25, left=0.0, width=0.5, height=h)),
        drug("right", box(0.25, left=0.5, width=0.5, height=h)),
        posology("p", box(0.25 + 2 * h, left=0.5, width=0.25, height=h)),
    ]
    for order in (lines, lines[::-1]):
        assert owners(link("doc", order)) == {"left": [], "right": ["p"]}


# Lines 2**-6 high under a drug line at 0.25: every edge and every limit of
# LinkConfig()'s factors is a binary fraction, so a gap of exactly the limit
# attaches and one 2**-10 wider does not.
@pytest.mark.parametrize("beyond, attached", [(0, True), (2**-10, False)], ids=["at-limit", "beyond"])
def test_the_default_first_posology_limit_is_two_and_a_half_line_heights(beyond, attached):
    h = 2**-6
    lines = [
        drug("d", box(0.25, height=h)),
        posology("p", box(0.25 + h + 2.5 * h + beyond, height=h)),
        useless("u", box(0.75, height=h)),
    ]
    record = link("doc", lines)
    assert owners(record)["d"] == (["p"] if attached else [])
    assert orphans(record) == ([] if attached else ["p"])


@pytest.mark.parametrize("beyond, attached", [(0, True), (2**-10, False)], ids=["at-limit", "beyond"])
def test_the_default_chain_limit_is_one_and_a_half_line_heights(beyond, attached):
    # p1 touches the drug line; p2's gap to p1 is measured against the section limit
    h = 2**-6
    lines = [
        drug("d", box(0.25, height=h)),
        posology("p1", box(0.25 + h, height=h)),
        posology("p2", box(0.25 + 2 * h + 1.5 * h + beyond, height=h)),
    ]
    record = link("doc", lines)
    assert owners(record)["d"] == (["p1", "p2"] if attached else ["p1"])
    assert orphans(record) == ([] if attached else ["p2"])


@pytest.mark.parametrize("height", [0.01, 0.03], ids=["small-font", "large-font"])
@pytest.mark.parametrize(
    "gap, drug_gap_factor, attached",
    [(2.0, 2.5, True), (2.4, 2.5, True), (2.6, 2.5, False), (2.0, 1.0, False)],
    ids=["above-section-limit", "just-within", "just-beyond", "tighter-factor"],
)
def test_first_posology_uses_the_drug_gap_limit(height, gap, drug_gap_factor, attached):
    top = 0.1 + height + gap * height
    lines = [
        drug("d", box(0.1, height=height)),
        posology("p", box(top, height=height)),
        useless("u", box(0.8, height=height)),
    ]
    record = link("doc", lines, LinkConfig(drug_gap_factor=drug_gap_factor))
    assert owners(record)["d"] == (["p"] if attached else [])
    assert orphans(record) == ([] if attached else ["p"])


@pytest.mark.parametrize("height", [0.01, 0.03], ids=["small-font", "large-font"])
@pytest.mark.parametrize("gap, attached", [(1.4, True), (1.6, False), (2.0, False)])
def test_chain_attaches_within_the_section_gap_limit(height, gap, attached):
    # p2's gap to p1 is measured against section_gap_factor (1.5), not the
    # drug_gap_factor (2.5) used for the section's first posology
    p1_top = 0.1 + height
    lines = [
        drug("d", box(0.1, height=height)),
        posology("p1", box(p1_top, height=height)),
        posology("p2", box(p1_top + height + gap * height, height=height)),
    ]
    record = link("doc", lines)
    assert owners(record)["d"] == (["p1", "p2"] if attached else ["p1"])
    assert orphans(record) == ([] if attached else ["p2"])


@pytest.mark.parametrize("gap, attached", [(0.04, True), (0.06, False)])
def test_a_page_of_two_lines_measures_gaps_in_the_fallback_height(gap, attached):
    # Fewer than three lines give no median: the limit is 2.5 x 0.02, not
    # 2.5 x the lines' own 0.01 height.
    lines = [drug("d", box(0.1, height=0.01)), posology("p", box(0.11 + gap, height=0.01))]
    record = link("doc", lines, LinkConfig())
    assert owners(record)["d"] == (["p"] if attached else [])
    assert orphans(record) == ([] if attached else ["p"])


@pytest.mark.parametrize("top, attached", [(0.21875, True), (0.21875 - 2**-10, False)], ids=["half", "under-half"])
def test_a_posology_line_overlapping_half_of_a_drug_line_is_aligned(top, attached):
    # Both lines are 0.0625 high and every edge is a binary fraction: at top
    # 0.21875 the posology overlaps the drug line by exactly half. It lies
    # above the drug line, so unaligned it has no drug line above it.
    lines = [drug("d", box(0.25, height=0.0625)), posology("p", box(top, height=0.0625))]
    record = link("doc", lines, LinkConfig())
    assert owners(record)["d"] == (["p"] if attached else [])
    assert orphans(record) == ([] if attached else ["p"])


def _prescription() -> list[ClassifiedLine]:
    """Two pages: chains, an aligned line, an unlinked drug line, an orphan and two drug lines with one box."""
    return [
        useless("header", box(0.02)),
        drug("d1", box(0.1)),
        posology("p1a", box(0.12)),
        posology("p1b", box(0.14)),
        drug("d2", box(0.2)),
        posology("p2", box(0.2, left=0.5)),
        unlinked_drug("x", box(0.3)),
        drug("d3", box(0.4)),
        posology("p3", box(0.43)),
        posology("far", box(0.8)),
        drug("d4", box(0.1), page=2),
        posology("p4", box(0.12), page=2),
        drug("d5", box(0.5), page=2),
        drug("d6", box(0.5), page=2),
        useless("footer", box(0.9), page=2),
    ]


def test_shuffled_input_gives_the_same_record():
    expected = record_to_dict(link("doc", _prescription()))
    assert owners(link("doc", _prescription())) == {
        "d1": ["p1a", "p1b"],
        "d2": ["p2"],
        "d3": ["p3"],
        "d4": ["p4"],
        "d5": [],
        "d6": [],
    }
    assert expected["orphans"][0]["line_id"] == "far"
    assert expected["unmatched_drug_lines"] == ["x"]
    assert [d["line_id"] for d in expected["drugs"]][-2:] == ["d5", "d6"]  # a tie of boxes goes by line id
    for seed in range(5):
        lines = _prescription()
        random.Random(seed).shuffle(lines)
        assert record_to_dict(link("doc", lines)) == expected


def test_unlinked_drug_lines_are_listed_and_own_nothing():
    lines = [
        unlinked_drug("x", box(0.1)),
        posology("p", box(0.12)),
        drug("d", box(0.5)),
        unlinked_drug("y", box(0.7)),
    ]
    record = link("doc", lines)
    assert record.unmatched_drug_lines == ["x", "y"]
    assert owners(record) == {"d": []}
    assert orphans(record) == ["p"]


class TestVerticalGap:
    def test_gap_between_stacked_boxes(self):
        assert vertical_gap(box(0.1), box(0.15)) == pytest.approx(0.15 - 0.1 - H)

    def test_overlapping_boxes_have_no_gap(self):
        assert vertical_gap(box(0.1), box(0.11)) == 0.0

    def test_box_a_below_box_b_raises(self):
        with pytest.raises(OrderError):
            vertical_gap(box(0.2), box(0.1))


class TestLinkConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"section_gap_factor": 0},
            {"section_gap_factor": -1},
            {"drug_gap_factor": 0},
            {"overlap_fraction": 0},
            {"overlap_fraction": 1.01},
            {"drug_gap_factor": math.nan, "section_gap_factor": math.nan},
            {"section_gap_factor": math.nan},
            {"drug_gap_factor": math.inf},
            {"overlap_fraction": math.nan},
            {"drug_gap_factor": True},
            {"section_gap_factor": False},
            {"drug_gap_factor": "wide"},
        ],
    )
    def test_out_of_range_factor_is_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkConfig(**kwargs)

    def test_bounds_themselves_are_accepted(self):
        assert LinkConfig(overlap_fraction=1.0).overlap_fraction == 1.0
        assert LinkConfig(drug_gap_factor=3).drug_gap_factor == 3  # an int is a number
