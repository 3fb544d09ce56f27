import json

import pytest

from ordonnance.errors import EmptyDocument, GeometryError, SchemaError
from ordonnance.ocr import (
    BoundingBox,
    OcrLine,
    parse_ocr_document,
    reading_order_key,
)


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


def test_zero_width_is_geometry_error():
    with pytest.raises(GeometryError):
        parse_ocr_document(payload([line(width=0)]))


def test_out_of_bounds_coordinate():
    with pytest.raises(GeometryError):
        parse_ocr_document(payload([line(left=1.2)]))


BOX_FIELDS = ("left", "top", "width", "height")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", BOX_FIELDS)
def test_non_finite_line_box_coordinate_is_geometry_error(field, value):
    text = payload([line(**{field: value})])  # json writes NaN and Infinity, and parses them back
    with pytest.raises(GeometryError, match=rf"lines\[0\]\.bbox\.{field}"):
        parse_ocr_document(text)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
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


def test_near_bound_values_clamped():
    doc = parse_ocr_document(payload([line(left=-5e-7, top=0.2, width=0.5, height=0.03)]))
    assert doc.lines[0].bbox.left == 0.0


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


def test_words_must_reassemble_text():
    words = [
        {"text": "DOLIPRANE", "bbox": {"left": 0.1, "top": 0.2, "width": 0.2, "height": 0.03}},
        {"text": "500", "bbox": {"left": 0.32, "top": 0.2, "width": 0.1, "height": 0.03}},
    ]
    with pytest.raises(SchemaError):
        parse_ocr_document(payload([line(words=words)]))
    ok = parse_ocr_document(payload([line(text="DOLIPRANE 500", words=words)]))
    assert len(ok.lines[0].words) == 2


def test_reading_order_key_values():
    ln = OcrLine("x", "text", BoundingBox(0.1, 0.3, 0.2, 0.02), page=1)
    assert reading_order_key(ln) == (1, 0.3, 0.1)


def test_sort_is_a_permutation():
    lines = [line(id=f"l{i}", top=0.9 - i * 0.1) for i in range(9)]
    doc = parse_ocr_document(payload(lines))
    assert sorted(ln.line_id for ln in doc.lines) == sorted(l["id"] for l in lines)
