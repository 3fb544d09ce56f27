"""OCR layout ingestion.

Parses the minimal line-level OCR JSON payload (text plus page-relative
bounding geometry, optionally word boxes) into an immutable document whose
lines are sorted into reading order: page ascending, then top, then left,
then line id, so two lines with the same box take the same order whatever
their order in the payload. The document is a frozen dataclass, built once;
each ``OcrLine`` and its ``BoundingBox`` are named tuples, built positionally
(see the package docstring). ``BoundingBox`` alone checks a box's geometry,
in ``__new__`` before it builds the tuple; the parse names the box in its error.

Payload schema::

    {"doc_id": str, "pages": int, "lines": [
        {"id": str, "page": int, "text": str,
         "bbox": {"left": f, "top": f, "width": f, "height": f},
         "words": [{"text": str, "bbox": {...}}]}]}

All coordinates are fractions of the page size in [0, 1]; values within
1e-6 of a bound are clamped. ``words`` is optional per line.

Word boxes are validated, then dropped: each must follow the schema and
have valid geometry, and the word texts must reassemble the line text, or
the document is refused. Only the word texts are kept, on ``OcrLine.words``;
every later stage works on the line text and the line box.

Each line is first put through one tight check (`_checked_line`) that
accepts the common case: exact floats already inside the page, nothing to
clamp. Any other line, valid or not, goes to `_parse_line`, the only code
that clamps a coordinate or raises a line's error, so a line parses to the
same value, or fails with the same error, whichever path it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, NamedTuple

from .errors import EmptyDocument, GeometryError, SchemaError, decode_json

_EPS = 1e-6


class _Box(NamedTuple):
    """The fields of ``BoundingBox``; a NamedTuple body may not define ``__new__``, a subclass may."""

    left: float
    top: float
    width: float
    height: float


class BoundingBox(_Box):
    """Axis-aligned box in page-relative fractions."""

    __slots__ = ()

    def __new__(cls, left: float, top: float, width: float, height: float):
        # Each test is written so that NaN, for which every comparison is
        # false, fails it.
        if not (width > 0 and height > 0):
            raise GeometryError(f"degenerate box: width={width}, height={height}")
        if not (left >= 0 and top >= 0):
            raise GeometryError(f"negative origin: left={left}, top={top}")
        if not (left + width <= 1 + _EPS and top + height <= 1 + _EPS):
            raise GeometryError("box extends beyond page bounds")
        return tuple.__new__(cls, (left, top, width, height))

    @classmethod
    def _make(cls, iterable) -> BoundingBox:
        """Build through the checks, as ``_replace`` does too; the named tuple's own ``_make`` skips them."""
        return cls(*iterable)

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height


class OcrLine(NamedTuple):
    line_id: str
    raw_text: str
    bbox: BoundingBox
    page: int
    words: tuple[str, ...] = ()  # word texts; their boxes are validated, not kept


@dataclass(frozen=True)
class OcrDocument:
    doc_id: str
    pages: int
    lines: tuple[OcrLine, ...]


# Sort key placing lines, OCR or classified, in reading order: (page, top,
# left, line id), a total order, as line ids are unique. An attrgetter builds
# the key without a Python call per line.
reading_order_key = attrgetter("page", "bbox.top", "bbox.left", "line_id")


def _clamp(value: float) -> float:
    if -_EPS <= value < 0:
        return 0.0
    if 1 < value <= 1 + _EPS:
        return 1.0
    return value


def _require(obj: dict, key: str, kind, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}.{key}: expected number, got {type(value).__name__}")
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range, which json accepts
            raise GeometryError(f"{where}.{key}: integer too large for a coordinate") from None
    if kind is int and isinstance(value, bool):
        raise SchemaError(f"{where}.{key}: expected int, got bool")
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_bbox(obj: Any, where: str) -> BoundingBox:
    left = _require(obj, "left", float, where)
    top = _require(obj, "top", float, where)
    width = _require(obj, "width", float, where)
    height = _require(obj, "height", float, where)
    for name, v in (("left", left), ("top", top), ("width", width), ("height", height)):
        if not -_EPS <= v <= 1 + _EPS:  # also false for NaN, which json accepts
            raise GeometryError(f"{where}.{name}: {v} outside [-1e-6, 1+1e-6]")
    try:
        return BoundingBox(_clamp(left), _clamp(top), _clamp(width), _clamp(height))
    except GeometryError as exc:
        raise GeometryError(f"{where}: {exc}") from None


def _parse_line(obj: Any, pages: int, idx: int) -> OcrLine:
    where = f"lines[{idx}]"
    line_id = _require(obj, "id", str, where)
    page = _require(obj, "page", int, where)
    if page < 1 or page > pages:
        raise SchemaError(f"{where}.page: {page} outside 1..{pages}")
    text = _require(obj, "text", str, where)
    if not text.strip():
        raise SchemaError(f"{where}.text: empty after whitespace trim")
    bbox = _parse_bbox(_require(obj, "bbox", dict, where), f"{where}.bbox")

    words: list[str] = []
    raw_words = obj.get("words", [])
    if not isinstance(raw_words, list):
        raise SchemaError(f"{where}.words: expected list")
    for w_idx, w in enumerate(raw_words):
        w_where = f"{where}.words[{w_idx}]"
        words.append(_require(w, "text", str, w_where))
        _parse_bbox(_require(w, "bbox", dict, w_where), f"{w_where}.bbox")
    if words and " ".join(words).split() != text.split():
        raise SchemaError(f"{where}: word texts do not reassemble the line text")
    return OcrLine(line_id, text, bbox, page, tuple(words))


def _inside(box: dict) -> bool:
    """True when the box holds four exact floats inside the page, so nothing to clamp."""
    left, top, width, height = box["left"], box["top"], box["width"], box["height"]
    # With width and height positive, far edges <= 1 keep every value in [0, 1].
    return (
        type(left) is float and type(top) is float and type(width) is float and type(height) is float
        and left >= 0.0 and top >= 0.0 and width > 0.0 and height > 0.0
        and left + width <= 1.0 and top + height <= 1.0
    )


def _checked_line(obj: Any, pages: int) -> OcrLine | None:
    """The line when it passes every test of `_parse_line` with nothing to clamp, else None.

    Raises nothing: a missing key, or a value that is not a dict where one
    is indexed, ends the check with None like any failed test.
    """
    try:
        line_id, page, text, box = obj["id"], obj["page"], obj["text"], obj["bbox"]
        if not (
            type(line_id) is str and type(text) is str and type(page) is int
            and 1 <= page <= pages and text.strip() and _inside(box)
        ):
            return None
        raw_words = obj.get("words", [])
        if type(raw_words) is not list:
            return None
        words = [w["text"] for w in raw_words]
        # Equal to the line's tokens, the texts reassemble it and are all str;
        # texts that reassemble it some other way (a space inside one) are
        # left to `_parse_line`.
        if words and words != text.split():
            return None
        for w in raw_words:
            if not _inside(w["bbox"]):
                return None
    except (KeyError, TypeError):
        return None
    bbox = BoundingBox(box["left"], box["top"], box["width"], box["height"])
    return OcrLine(line_id, text, bbox, page, tuple(words))


def parse_ocr_document(payload: bytes | str) -> OcrDocument:
    """Parse and validate an OCR JSON payload into reading order.

    Raises SchemaError for structural problems, GeometryError for bad
    boxes, EmptyDocument when there are no lines. Never drops a line
    silently.
    """
    data = decode_json(payload, "payload", SchemaError)
    if not isinstance(data, dict):
        raise SchemaError("top-level payload must be a JSON object")

    doc_id = _require(data, "doc_id", str, "document")
    pages = _require(data, "pages", int, "document")
    if pages < 1:
        raise SchemaError(f"document.pages: {pages} is not positive")
    raw_lines = _require(data, "lines", list, "document")
    if not raw_lines:
        raise EmptyDocument(f"document {doc_id!r} has no lines")

    lines = [_checked_line(obj, pages) or _parse_line(obj, pages, i) for i, obj in enumerate(raw_lines)]
    seen: set[str] = set()
    for line in lines:
        if line.line_id in seen:
            raise SchemaError(f"duplicate line id {line.line_id!r}")
        seen.add(line.line_id)
    lines.sort(key=reading_order_key)
    return OcrDocument(doc_id=doc_id, pages=pages, lines=tuple(lines))

