import itertools
import json
import random

import pytest

from ordonnance import ocr
from ordonnance.errors import EmptyDocument, GeometryError, OrdonnanceError, SchemaError
from ordonnance.ocr import (
    BoundingBox,
    OcrLine,
    parse_ocr_document,
    reading_order_key,
)

from conftest import DATA_DIR


def payload(lines, doc_id="doc", pages=1):
    return json.dumps({"doc_id": doc_id, "pages": pages, "lines": lines})


def line(id="l1", page=1, text="DOLIPRANE 1000 MG", left=0.1, top=0.2, width=0.5, height=0.03, **extra):
    out = {"id": id, "page": page, "text": text, "bbox": {"left": left, "top": top, "width": width, "height": height}}
    out.update(extra)
    return out


def test_single_line_identity():
    doc = parse_ocr_document(payload([line()]))
    assert doc.doc_id == "doc"
    assert doc.pages == 1
    assert len(doc.lines) == 1
    ln = doc.lines[0]
    assert ln.raw_text == "DOLIPRANE 1000 MG"
    assert (ln.bbox.left, ln.bbox.top, ln.bbox.width, ln.bbox.height) == (0.1, 0.2, 0.5, 0.03)
    assert ln.page == 1


def test_lines_sorted_by_top():
    doc = parse_ocr_document(payload([line(id="a", top=0.5), line(id="b", top=0.2)]))
    assert [ln.line_id for ln in doc.lines] == ["b", "a"]


def test_page_then_top_then_left_order():
    doc = parse_ocr_document(
        payload(
            [
                line(id="p2", page=2, top=0.1),
                line(id="p1-right", page=1, top=0.3, left=0.6, width=0.3),
                line(id="p1-left", page=1, top=0.3, left=0.2),
                line(id="p1-up", page=1, top=0.1),
            ],
            pages=2,
        )
    )
    assert [ln.line_id for ln in doc.lines] == ["p1-up", "p1-left", "p1-right", "p2"]


@pytest.mark.parametrize("ids", [("b", "a"), ("a", "b")], ids=["b-first", "a-first"])
def test_lines_with_the_same_box_are_ordered_by_line_id(ids):
    doc = parse_ocr_document(payload([line(id=i) for i in ids]))
    assert [ln.line_id for ln in doc.lines] == ["a", "b"]


def test_zero_width_is_geometry_error():
    with pytest.raises(GeometryError):
        parse_ocr_document(payload([line(width=0)]))


def test_out_of_bounds_coordinate():
    with pytest.raises(GeometryError):
        parse_ocr_document(payload([line(left=1.2)]))


BOX_FIELDS = ("left", "top", "width", "height")


# 10**400 is valid JSON, an integer beyond the float range
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("field", BOX_FIELDS)
def test_non_finite_line_box_coordinate_is_geometry_error(field, value):
    text = payload([line(**{field: value})])  # json writes NaN and Infinity, and parses them back
    with pytest.raises(GeometryError, match=rf"lines\[0\]\.bbox\.{field}"):
        parse_ocr_document(text)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"])
@pytest.mark.parametrize("field", BOX_FIELDS)
def test_non_finite_word_box_coordinate_is_geometry_error(field, value):
    box = {"left": 0.1, "top": 0.2, "width": 0.2, "height": 0.03, field: value}
    words = [{"text": "DOLIPRANE", "bbox": box}]
    with pytest.raises(GeometryError, match=rf"lines\[0\]\.words\[0\]\.bbox\.{field}"):
        parse_ocr_document(payload([line(text="DOLIPRANE", words=words)]))


@pytest.mark.parametrize("field", BOX_FIELDS)
def test_bounding_box_refuses_nan(field):
    coords = {"left": 0.1, "top": 0.2, "width": 0.2, "height": 0.03, field: float("nan")}
    with pytest.raises(GeometryError):
        BoundingBox(**coords)


OVERFLOWS = {"right": {"left": 0.6, "width": 0.5}, "bottom": {"top": 0.9, "height": 0.2}}


@pytest.mark.parametrize("overflow", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_line_box_beyond_the_page_names_the_line(overflow):
    text = payload([line(id="a"), line(id="b", **overflow)])
    with pytest.raises(GeometryError, match=r"^lines\[1\]\.bbox: box extends beyond page bounds"):
        parse_ocr_document(text)


@pytest.mark.parametrize("overflow", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_word_box_beyond_the_page_names_the_word(overflow):
    words = [
        {"text": word, "bbox": {"left": 0.1 + 0.1 * i, "top": 0.2, "width": 0.08, "height": 0.03}}
        for i, word in enumerate(("1", "cp", "matin"))
    ]
    words[2]["bbox"].update(overflow)
    with pytest.raises(GeometryError, match=r"^lines\[0\]\.words\[2\]\.bbox: box extends beyond page bounds"):
        parse_ocr_document(payload([line(text="1 cp matin", words=words)]))


def test_far_edge_within_the_clamp_tolerance_is_accepted():
    doc = parse_ocr_document(payload([line(left=0.5, width=0.5 + 5e-7, top=0.5, height=0.5 + 5e-7)]))
    assert (doc.lines[0].bbox.right, doc.lines[0].bbox.bottom) == (1.0 + 5e-7, 1.0 + 5e-7)


# The documented tolerance as literals: the oracle below reads ``ocr._EPS`` itself.
@pytest.mark.parametrize("value", [1.000002, -2e-6])
@pytest.mark.parametrize("field", BOX_FIELDS)
def test_coordinate_beyond_the_clamp_tolerance_names_its_field(field, value):
    with pytest.raises(GeometryError, match=rf"^lines\[0\]\.bbox\.{field}: {value} outside \[-1e-6, 1\+1e-6\]$"):
        parse_ocr_document(payload([line(**{field: value})]))


def oracle_parse_bbox(obj, where):
    """`ocr._parse_bbox` before it left its extent and far-edge tests to ``BoundingBox``."""
    left = ocr._require(obj, "left", float, where)
    top = ocr._require(obj, "top", float, where)
    width = ocr._require(obj, "width", float, where)
    height = ocr._require(obj, "height", float, where)
    for name, v in (("left", left), ("top", top), ("width", width), ("height", height)):
        if not -ocr._EPS <= v <= 1 + ocr._EPS:
            raise GeometryError(f"{where}.{name}: {v} outside [-1e-6, 1+1e-6]")
    if width <= 0 or height <= 0:
        raise GeometryError(f"{where}: non-positive extent (width={width}, height={height})")
    left, top, width, height = ocr._clamp(left), ocr._clamp(top), ocr._clamp(width), ocr._clamp(height)
    if not (left + width <= 1 + ocr._EPS and top + height <= 1 + ocr._EPS):
        raise GeometryError(f"{where}: box extends beyond page bounds")
    return BoundingBox(left, top, width, height)


def _box_or_error(parse, obj):
    try:
        return repr(tuple(parse(obj, "b")))  # repr tells -0.0 from 0.0
    except OrdonnanceError as exc:
        return type(exc), str(exc)


# Each side of every bound and of the clamp tolerance, the ints 0 and 1, and NaN.
EDGE_VALUES = (-2e-6, -5e-7, -0.0, 0, 5e-7, 0.5, 0.5000005, 0.9999995, 1, 1.0000005, 1.000002, float("nan"))


def test_box_geometry_decided_by_bounding_box_agrees_with_the_old_parse():
    for coords in itertools.product(EDGE_VALUES, repeat=4):
        obj = dict(zip(BOX_FIELDS, coords))
        new, old = _box_or_error(ocr._parse_bbox, obj), _box_or_error(oracle_parse_bbox, obj)
        if isinstance(old, tuple) and "non-positive extent" in old[1]:
            assert new[0] is GeometryError and new[1].startswith("b: degenerate box: "), (coords, new)
        else:
            assert new == old, coords


def test_deep_nesting_is_schema_error():
    depth = 200_000
    with pytest.raises(SchemaError, match="nests too deeply"):
        parse_ocr_document('{"doc_id": ' + "[" * depth + "]" * depth + "}")


def test_near_bound_values_clamped():
    doc = parse_ocr_document(payload([line(left=-5e-7, top=0.2, width=0.5, height=0.03)]))
    assert doc.lines[0].bbox.left == 0.0
    doc = parse_ocr_document(payload([line(left=0.0, top=0.0, width=1 + 5e-7, height=0.03)]))
    assert doc.lines[0].bbox.width == 1.0


@pytest.mark.parametrize("text, message", [
    ("[]", "top-level payload must be a JSON object"),
    (json.dumps({"doc_id": "doc", "pages": 0, "lines": [line()]}), "document.pages: 0 is not positive"),
], ids=["top-level-list", "zero-pages"])
def test_a_bad_document_header_is_a_schema_error_naming_its_field(text, message):
    with pytest.raises(SchemaError) as info:
        parse_ocr_document(text)
    assert str(info.value) == message


def test_empty_document():
    with pytest.raises(EmptyDocument):
        parse_ocr_document(payload([]))


def test_missing_field_is_schema_error():
    bad = {"doc_id": "doc", "pages": 1, "lines": [{"id": "l1", "page": 1, "text": "x y"}]}
    with pytest.raises(SchemaError):
        parse_ocr_document(json.dumps(bad))


def test_wrong_type_is_schema_error():
    with pytest.raises(SchemaError):
        parse_ocr_document(payload([line(page="one")]))


def test_duplicate_line_id():
    with pytest.raises(SchemaError):
        parse_ocr_document(payload([line(id="x"), line(id="x", top=0.5)]))


def test_blank_text_rejected():
    with pytest.raises(SchemaError):
        parse_ocr_document(payload([line(text="   ")]))


def test_page_out_of_range():
    with pytest.raises(SchemaError):
        parse_ocr_document(payload([line(page=3)], pages=2))


def test_not_json():
    with pytest.raises(SchemaError):
        parse_ocr_document(b"{nope")


def test_integer_literal_too_long_to_convert_is_schema_error():
    # json refuses to convert an integer literal of more than 4,300 digits
    text = payload([line()]).replace('"left": 0.1', '"left": ' + "1" * 5000)
    with pytest.raises(SchemaError, match="^payload: not valid JSON: Exceeds the limit"):
        parse_ocr_document(text)


def test_words_must_reassemble_text():
    words = [
        {"text": "DOLIPRANE", "bbox": {"left": 0.1, "top": 0.2, "width": 0.2, "height": 0.03}},
        {"text": "500", "bbox": {"left": 0.32, "top": 0.2, "width": 0.1, "height": 0.03}},
    ]
    with pytest.raises(SchemaError):
        parse_ocr_document(payload([line(words=words)]))
    ok = parse_ocr_document(payload([line(text="DOLIPRANE 500", words=words)]))
    assert ok.lines[0].words == ("DOLIPRANE", "500")


def test_words_differing_from_the_text_in_the_first_word_are_refused():
    words = [
        {"text": text, "bbox": {"left": left, "top": 0.2, "width": 0.1, "height": 0.03}}
        for text, left in (("DAFALGAN", 0.1), ("1000", 0.22), ("mg", 0.34))
    ]
    with pytest.raises(SchemaError, match="word texts do not reassemble the line text"):
        parse_ocr_document(payload([line(text="DOLIPRANE 1000 mg", words=words)]))


@pytest.mark.parametrize("surrogate", ["\ud800", "\udfff"])
def test_a_lone_surrogate_in_a_line_text_is_a_schema_error_naming_the_field(surrogate):
    # JSON decodes the escape to a string that no UTF-8 encodes, which the featurizer would fail on later
    text = payload([line(), line(id="l2", top=0.5, text="DOLIPRANE " + surrogate)])
    assert surrogate not in text and surrogate.encode("unicode_escape").decode() in text
    with pytest.raises(SchemaError, match=r"^lines\[1\]\.text: holds a lone surrogate '\\ud[8f]"):
        parse_ocr_document(text)


def test_a_lone_surrogate_in_a_word_text_is_a_schema_error_naming_the_field():
    words = [
        {"text": text, "bbox": {"left": left, "top": 0.2, "width": 0.1, "height": 0.03}}
        for text, left in (("DOLIPRANE", 0.1), ("\ud800", 0.22))
    ]
    with pytest.raises(SchemaError, match=r"^lines\[0\]\.words\[1\]\.text: holds a lone surrogate"):
        parse_ocr_document(payload([line(text="DOLIPRANE 1000", words=words)]))


def test_a_surrogate_pair_escape_is_one_character_of_text():
    text = payload([line(text="SOL \U0001d11e")])
    assert "\\ud834\\udd1e" in text
    assert parse_ocr_document(text).lines[0].raw_text == "SOL \U0001d11e"


def test_reading_order_key_values():
    ln = OcrLine("x", "text", BoundingBox(0.1, 0.3, 0.2, 0.02), page=1)
    assert reading_order_key(ln) == (1, 0.3, 0.1, "x")


def test_sort_is_a_permutation():
    lines = [line(id=f"l{i}", top=0.9 - i * 0.1) for i in range(9)]
    doc = parse_ocr_document(payload(lines))
    assert sorted(ln.line_id for ln in doc.lines) == sorted(l["id"] for l in lines)


# ---- the tight per-line check against the full parse ------------------------


def _fixture_with_word_boxes() -> dict:
    """The 7-drug fixture, each line given one box per word inside its line box."""
    data = json.loads((DATA_DIR / "ocr_fixture_7drugs.json").read_text(encoding="utf-8"))
    for ln in data["lines"]:
        box, texts = ln["bbox"], ln["text"].split()
        step = box["width"] / len(texts)
        ln["words"] = [
            {"text": text, "bbox": {"left": box["left"] + i * step, "top": box["top"],
                                    "width": 0.9 * step, "height": box["height"]}}
            for i, text in enumerate(texts)
        ]
    return data


FIXTURE = _fixture_with_word_boxes()
FIXTURE_TEXT = json.dumps(FIXTURE)


def _parse(text: str):
    """The parsed document, or the type and message of the error raised."""
    try:
        return parse_ocr_document(text)
    except OrdonnanceError as exc:
        return type(exc), str(exc)


def _box_sites(data) -> list[dict]:
    """Every box of the payload: each line box, then its word boxes."""
    return [box for ln in data["lines"] for box in [ln["bbox"], *(w["bbox"] for w in ln["words"])]]


def _drop(obj, key):
    del obj[key]


PARTNER = {"left": "width", "width": "left", "top": "height", "height": "top"}

# One single-field change each: applied to (the dict holding it, its key).
BOX_CHANGES = {
    "drop": _drop,
    "int-0": lambda obj, key: obj.update({key: 0}),
    "int-1": lambda obj, key: obj.update({key: 1}),
    "bool": lambda obj, key: obj.update({key: True}),
    "str": lambda obj, key: obj.update({key: str(obj[key])}),
    "none": lambda obj, key: obj.update({key: None}),
    "below-0-within-clamp": lambda obj, key: obj.update({key: -1e-7}),
    "above-1-within-clamp": lambda obj, key: obj.update({key: 1 + 1e-7}),
    "far-edge-within-clamp": lambda obj, key: obj.update({key: 1 + 1e-7 - obj[PARTNER[key]]}),
    "above-1": lambda obj, key: obj.update({key: 1.5}),
    "nan": lambda obj, key: obj.update({key: float("nan")}),
    "inf": lambda obj, key: obj.update({key: float("inf")}),
    "huge-int": lambda obj, key: obj.update({key: 10**400}),
}

WORD_TEXT_CHANGES = {
    "drop": lambda w: _drop(w, "text"),
    "appended-letter": lambda w: w.update(text=w["text"] + "x"),
    "empty": lambda w: w.update(text=""),
    "leading-space": lambda w: w.update(text=" " + w["text"]),
    "split-in-two": lambda w: w.update(text=w["text"][:1] + " " + w["text"][1:]),
    "int": lambda w: w.update(text=5),
    "none": lambda w: w.update(text=None),
    "lone-surrogate": lambda w: w.update(text=w["text"] + "\ud800"),
}

LINE_CHANGES = {
    "id-int": lambda ln: ln.update(id=7),
    "page-0": lambda ln: ln.update(page=0),
    "page-2": lambda ln: ln.update(page=2),
    "page-true": lambda ln: ln.update(page=True),
    "page-float": lambda ln: ln.update(page=1.0),
    "text-blank": lambda ln: ln.update(text="  "),
    "text-extra-space": lambda ln: ln.update(text=" " + ln["text"].replace(" ", "  ") + "\t"),
    "text-lone-surrogate": lambda ln: ln.update(text=ln["text"] + " \udfff"),
    "text-and-word-lone-surrogate": lambda ln: (
        ln.update(text=ln["text"] + " \udc80"), ln["words"].append({**ln["words"][-1], "text": "\udc80"})
    ),
    "bbox-list": lambda ln: ln.update(bbox=[0.1, 0.1, 0.1, 0.1]),
    "words-none": lambda ln: ln.update(words=None),
    "words-empty": lambda ln: ln.update(words=[]),
    "words-dropped": lambda ln: _drop(ln, "words"),
    "word-a-string": lambda ln: ln["words"].__setitem__(0, "x"),
}


def _same_as_the_full_parse(data, monkeypatch):
    text = json.dumps(data)
    fast = _parse(text)
    with monkeypatch.context() as m:
        m.setattr(ocr, "_checked_line", lambda obj, pages: None)
        full = _parse(text)
    assert fast == full


def test_the_tight_check_accepts_every_fixture_line_as_the_full_parse_does():
    for i, obj in enumerate(FIXTURE["lines"]):
        assert ocr._checked_line(obj, FIXTURE["pages"]) == ocr._parse_line(obj, FIXTURE["pages"], i)


@pytest.mark.parametrize("name", BOX_CHANGES)
def test_a_changed_box_field_parses_or_fails_as_the_full_parse_does(name, monkeypatch):
    rng = random.Random(name)
    n_sites = len(_box_sites(FIXTURE))
    for _ in range(60):
        data = json.loads(FIXTURE_TEXT)
        BOX_CHANGES[name](_box_sites(data)[rng.randrange(n_sites)], rng.choice(BOX_FIELDS))
        _same_as_the_full_parse(data, monkeypatch)


@pytest.mark.parametrize("change", WORD_TEXT_CHANGES.values(), ids=WORD_TEXT_CHANGES.keys())
def test_a_changed_word_text_parses_or_fails_as_the_full_parse_does(change, monkeypatch):
    for i, ln in enumerate(FIXTURE["lines"]):
        for j in range(len(ln["words"])):
            data = json.loads(FIXTURE_TEXT)
            change(data["lines"][i]["words"][j])
            _same_as_the_full_parse(data, monkeypatch)


@pytest.mark.parametrize("change", LINE_CHANGES.values(), ids=LINE_CHANGES.keys())
def test_a_changed_line_field_parses_or_fails_as_the_full_parse_does(change, monkeypatch):
    for i in range(len(FIXTURE["lines"])):
        data = json.loads(FIXTURE_TEXT)
        change(data["lines"][i])
        _same_as_the_full_parse(data, monkeypatch)
