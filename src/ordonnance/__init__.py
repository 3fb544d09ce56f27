"""Prescription structuring engine for OCR'd French medical prescriptions.

Turns OCR layout JSON into structured records: drugs resolved against a
lexicon of official names, each carrying its posology entities (dose,
frequency, duration, comment) attached by page geometry.

Records come in two kinds. A record built for every line or span
(``OcrLine``, ``BoundingBox``, ``Sentence``, ``NormalizedText``,
``SentenceClass``, ``DrugMention``, ``MatchSpan``, ``PosologyExtraction``,
``ClassifiedLine``) is a ``typing.NamedTuple``, built positionally on the
per-line paths: a frozen dataclass sets each field through
``object.__setattr__`` and costs three to four times as much to build.
A record built once per run or per document (lexicon, patterns, model,
configs, ``OcrDocument``, ``PrescriptionRecord``, ``Runtime``) stays a
dataclass. Either kind is immutable where it was, and code reads a record's
fields by name only: nothing iterates, indexes, takes the length of or
compares a named-tuple record with a plain tuple, and ``record_to_dict`` is
the only serializer.
"""

__version__ = "0.1.0"

from .errors import OrdonnanceError

__all__ = ["OrdonnanceError", "__version__"]
