"""Exception hierarchy shared across the package, and the one rule per input encoding.

Every JSON input (an OCR payload, a pattern file, a corpus line, a model
header) is decoded by `decode_json`, which turns any failure to decode into
the caller's typed error. The file loaders read bytes, so invalid UTF-8 meets
the same rule as a syntax error or an integer literal too long to convert.
Every plain-text data file (a lexicon, a stopword list) is read by
`read_utf8`, which drops one leading byte-order mark, as ``json.loads`` does
for JSON bytes, and refuses invalid UTF-8 as a ``FileError`` naming the file
and line. A file that cannot be opened is left as the ``OSError`` that
``open`` raises. The files shipped with the package are found by `data_path`
and read by the loader a user file of the same kind goes through, so they
meet the same rules.

Every numeric setting is checked by `check_int` or `check_number`, which
raise a ``ValueError`` naming the setting and the value; both refuse a bool,
which would pass as 0 or 1, and `check_number` fails NaN and an int that no
float can hold, which would fail later in float arithmetic.
"""

import json
from importlib import resources


class OrdonnanceError(Exception):
    """Base class for all package errors."""


class SchemaError(OrdonnanceError):
    """Input payload violates the documented schema (missing field, wrong type)."""


class GeometryError(OrdonnanceError):
    """Bounding geometry outside tolerated bounds or degenerate."""


class EmptyDocument(OrdonnanceError):
    """OCR document contains no text lines."""


class PatternError(OrdonnanceError):
    """Pattern file is malformed or violates pattern constraints."""


class DegenerateCorpus(OrdonnanceError):
    """Training corpus is missing at least one class label."""


class VersionMismatch(OrdonnanceError):
    """Model was produced by an incompatible featurizer version."""


class FileError(OrdonnanceError):
    """A data file is malformed (one that cannot be opened raises OSError)."""


class DuplicateId(FileError):
    """Lexicon contains the same drug id twice."""


class EmptyLexicon(FileError):
    """Lexicon file has no usable entries."""


class TemplateError(OrdonnanceError):
    """A sentence template slot could not be filled."""


class AlignmentError(OrdonnanceError):
    """Gold and predicted sentence sets do not line up."""


class OrderError(OrdonnanceError):
    """Geometric precondition violated (expected box A above box B)."""


def decode_json(data: str | bytes, where, error: type[OrdonnanceError]):
    """The decoded JSON value of ``data``; ``error`` naming ``where`` when it does not decode."""
    try:
        return json.loads(data)
    except RecursionError as exc:
        raise error(f"{where}: JSON nests too deeply to decode") from exc
    except ValueError as exc:  # bad syntax, invalid UTF-8, or an integer too long to convert
        raise error(f"{where}: not valid JSON: {exc}") from exc


def check_int(name: str, value, least: int | None = None) -> None:
    """ValueError naming ``name`` unless ``value`` is an int, not a bool, and at least ``least`` when given."""
    if isinstance(value, int) and not isinstance(value, bool) and (least is None or value >= least):
        return
    rule = "an int" if least is None else f"an int >= {least}"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_number(name: str, value, low, high, *, open_low: bool = False, open_high: bool = False) -> None:
    """ValueError naming ``name`` unless ``value`` is an int or float, not a bool, between ``low`` and ``high``.

    A bound is excluded when its ``open_`` flag is set; NaN fails both comparisons.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a number a float can hold, got {value!r}") from None
        if (low < value if open_low else low <= value) and (value < high if open_high else value <= high):
            return
    interval = f"{'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
    raise ValueError(f"{name} must be a number in {interval}, got {value!r}")


def data_path(name: str) -> str:
    """The path of the file ``name`` shipped in ``ordonnance/data``."""
    return str(resources.files("ordonnance.data").joinpath(name))


def read_utf8(path) -> str:
    """The text of the file at ``path`` less one leading BOM; FileError naming ``path:line`` when it is not valid UTF-8.

    The BOM is dropped after decoding, so the offset of an invalid byte counts
    from the start of the file, as the line does. A line ends at a line feed,
    a carriage return and line feed, or a lone carriage return, as the
    lexicon and word-list readers number their lines.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FileError(f"{path}:{line}: not valid UTF-8: {exc.reason} at byte {exc.start}") from None
