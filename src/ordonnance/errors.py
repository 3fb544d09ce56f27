"""Exception hierarchy shared across the package."""


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
    """A required data file is unreadable or malformed."""


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
