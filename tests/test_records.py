"""The per-line and per-span records: named tuples that the hot paths build positionally.

A positional build depends on each record's field order, so the order, the
defaults and immutability are pinned here, and the pipeline is run with every
record refusing tuple behaviour (iteration, length, indexing, comparison with
a plain tuple) to show that nothing reads a record except by field name.
"""

import json
import re

import pytest

from ordonnance.classify import SentenceClass
from ordonnance.druglink import DrugMention
from ordonnance.errors import GeometryError
from ordonnance.linking import ClassifiedLine, dumps_canonical, record_to_dict
from ordonnance.ocr import BoundingBox, OcrLine, parse_ocr_document
from ordonnance.patterns import MatchSpan
from ordonnance.pipeline import annotate_text, extract_document
from ordonnance.posology import PosologyExtraction
from ordonnance.textnorm import NormalizedText, Sentence

from conftest import DATA_DIR

BOX = BoundingBox(0.1, 0.2, 0.5, 0.03)
MENTION = DrugMention("d1", "A1", "DOLIPRANE 1000 mg", "doliprane 1000 mg", 1.0, 0)
ENTITY = MatchSpan("dose-cp", "DOSE", 0, 2, "1 comprime", 0, 10)
EXTRACTION = PosologyExtraction("p1", (ENTITY,), "le matin")

# Each record with a value for every field, in the field order that the
# positional builds rely on.
RECORDS = {
    BoundingBox: {"left": 0.1, "top": 0.2, "width": 0.5, "height": 0.03},
    OcrLine: {"line_id": "l1", "raw_text": "DOLIPRANE 1000", "bbox": BOX, "page": 1, "words": ("DOLIPRANE", "1000")},
    Sentence: {
        "line_id": "l1",
        "match_text": "doliprane 1000 mg",
        "feature_text": "doliprane 1000 mg",
        "tokens": ("doliprane", "1000", "mg"),
        "starts": (0, 10, 15),
        "origins": tuple(range(17)),
    },
    NormalizedText: {"text": "doliprane", "origins": tuple(range(9))},
    SentenceClass: {"label": "DRUG", "scores": {"DRUG": 0.8, "POSOLOGY": 0.15, "USELESS": 0.05}},
    DrugMention: MENTION._asdict(),
    MatchSpan: ENTITY._asdict(),
    PosologyExtraction: EXTRACTION._asdict(),
    ClassifiedLine: {
        "line_id": "d1", "page": 1, "bbox": BOX, "label": "DRUG", "mention": MENTION, "extraction": EXTRACTION,
    },
}

FIELD_ORDER = {
    BoundingBox: ("left", "top", "width", "height"),
    OcrLine: ("line_id", "raw_text", "bbox", "page", "words"),
    Sentence: ("line_id", "match_text", "feature_text", "tokens", "starts", "origins"),
    NormalizedText: ("text", "origins"),
    SentenceClass: ("label", "scores"),
    DrugMention: ("line_id", "drug_id", "lexicon_name", "surface_text", "score", "trigger_token_index"),
    MatchSpan: ("pattern_id", "label", "start_token", "end_token", "text", "char_start", "char_end"),
    PosologyExtraction: ("line_id", "entities", "residual_text"),
    ClassifiedLine: ("line_id", "page", "bbox", "label", "mention", "extraction"),
}

DEFAULTS = {
    OcrLine: {"words": ()},
    Sentence: {"origins": ()},
    ClassifiedLine: {"mention": None, "extraction": None},
}

_IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_fields_keep_their_order(cls):
    assert cls._fields == FIELD_ORDER[cls] == tuple(RECORDS[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_defaults_are_kept(cls):
    assert cls._field_defaults == DEFAULTS.get(cls, {})


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_keyword_and_positional_builds_give_equal_records(cls):
    values = RECORDS[cls]
    by_keyword, by_position = cls(**values), cls(*values.values())
    assert type(by_keyword) is type(by_position) is cls
    assert by_keyword == by_position
    assert all(getattr(by_position, name) is value for name, value in values.items())


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_no_field_can_be_set_and_no_attribute_added(cls):
    record = cls(**RECORDS[cls])
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


BOX_REFUSALS = {
    "zero-width": ({"width": 0.0}, "degenerate box: width=0.0, height=0.03"),
    "nan-height": ({"height": float("nan")}, "degenerate box: width=0.5, height=nan"),
    "negative-left": ({"left": -0.1}, "negative origin: left=-0.1, top=0.2"),
    "nan-top": ({"top": float("nan")}, "negative origin: left=0.1, top=nan"),
    "beyond-right": ({"left": 0.6}, "box extends beyond page bounds"),
    "beyond-bottom": ({"top": 0.98}, "box extends beyond page bounds"),
}


@pytest.mark.parametrize("change, message", BOX_REFUSALS.values(), ids=BOX_REFUSALS.keys())
def test_bounding_box_refusals_keep_their_messages(change, message):
    coords = dict(RECORDS[BoundingBox], **change)
    box = BoundingBox(**RECORDS[BoundingBox])
    builds = (
        lambda: BoundingBox(**coords),
        lambda: BoundingBox(*coords.values()),
        lambda: BoundingBox._make(coords.values()),
        lambda: box._replace(**change),
    )
    for build in builds:
        with pytest.raises(GeometryError, match="^" + re.escape(message) + "$"):
            build()


def _refuse(name):
    def refused(self, *args):
        raise AssertionError(f"{type(self).__name__}.{name} used: a record is read by field name only")

    return refused


def _same_type_eq(self, other):
    if type(other) is not type(self):
        raise AssertionError(f"{type(self).__name__} compared with {type(other).__name__}")
    return tuple.__eq__(self, other)


def _refuse_tuple_behaviour(monkeypatch):
    """Make every record fail on iteration, length, indexing, ordering and comparison with another type."""
    for cls in RECORDS:
        for name in ("__iter__", "__len__", "__getitem__", "__contains__", "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(cls, name, _refuse(name), raising=False)
        monkeypatch.setattr(cls, "__bool__", lambda self: True, raising=False)  # as a dataclass, not via __len__
        monkeypatch.setattr(cls, "__eq__", _same_type_eq)
        monkeypatch.setattr(cls, "__ne__", lambda self, other: not _same_type_eq(self, other))
        monkeypatch.setattr(cls, "__hash__", tuple.__hash__)


def test_the_pipeline_reads_records_by_field_name_only(runtime, monkeypatch):
    payload = (DATA_DIR / "ocr_fixture_7drugs.json").read_bytes()
    texts = ["DOLIPRANE 1000 mg 1 comprimé matin et soir pendant 5 jours", "Dr Martin, médecin généraliste"]

    def outputs():
        record = extract_document(parse_ocr_document(payload), runtime)
        return dumps_canonical(record_to_dict(record)), [annotate_text(text, runtime) for text in texts]

    expected = outputs()
    assert json.loads(expected[0])["drugs"] and expected[1][0]
    _refuse_tuple_behaviour(monkeypatch)
    with pytest.raises(AssertionError, match="Sentence.__iter__ used"):
        list(Sentence(**RECORDS[Sentence]))
    assert outputs() == expected
