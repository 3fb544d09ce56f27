"""Text normalization and tokenization for prescription lines.

The cleaning pipeline applied to every OCR line, in order: strip accents,
lowercase, collapse whitespace, unify number formats. Two views are kept:
``match_text`` (everything, consumed by the pattern engine and the drug
linker) and ``feature_text`` (stopwords removed, consumed by the sentence
classifier). Removing stopwords before matching would destroy phrases like
"2 fois par jour", hence the split.

`normalize_text` additionally returns, for every character of the
normalized text, the index of the raw character it came from, so that
spans can be projected between the raw and normalized coordinate spaces.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

from .ocr import BoundingBox, OcrLine

# Characters split off as their own tokens, unless "." or "/" sits between
# two digits (decimal points and fractions like 1/2 stay whole).
_PUNCT = ".,;:()/"

_DIGITS = "0123456789"

# Space-like separators that may appear inside OCR'd numbers.
_NUM_SPACES = {" ", " ", " ", " "}

_LIKE_NUM_RE = re.compile(r"\d+(?:\.\d+)?|\d+/\d+")


@dataclass(frozen=True)
class Token:
    text: str
    lower: str
    is_digit: bool
    like_num: bool
    start: int
    end: int


@dataclass(frozen=True)
class Sentence:
    """A normalized OCR line ready for classification and matching."""

    line_id: str
    match_text: str
    feature_text: str
    tokens: tuple[Token, ...]
    bbox: BoundingBox
    page: int
    # raw-text index of each match_text character (see NormalizedText)
    origins: tuple[int, ...] = ()


@dataclass(frozen=True)
class NormalizedText:
    """Normalized string plus per-character provenance into the raw string."""

    text: str
    origins: tuple[int, ...]

    def to_raw_span(self, start: int, end: int) -> tuple[int, int]:
        """Project a [start, end) span of the normalized text back to raw offsets."""
        if start >= end:
            raise ValueError(f"empty span ({start}, {end})")
        return (self.origins[start], self.origins[end - 1] + 1)

    def to_norm_span(self, raw_start: int, raw_end: int) -> tuple[int, int] | None:
        """Project a raw [start, end) span onto the normalized text, or None if erased."""
        hits = [i for i, o in enumerate(self.origins) if raw_start <= o < raw_end]
        if not hits:
            return None
        return (hits[0], hits[-1] + 1)


def _is_digit_char(ch: str) -> bool:
    return ch in _DIGITS


def _map_strip_accents(chars: list[str], origins: list[int]) -> tuple[list[str], list[int]]:
    out_c: list[str] = []
    out_o: list[int] = []
    for ch, org in zip(chars, origins):
        for piece in unicodedata.normalize("NFD", ch):
            if not unicodedata.combining(piece):
                out_c.append(piece)
                out_o.append(org)
    return out_c, out_o


def _map_lower(chars: list[str], origins: list[int]) -> tuple[list[str], list[int]]:
    out_c: list[str] = []
    out_o: list[int] = []
    for ch, org in zip(chars, origins):
        for piece in ch.lower():
            out_c.append(piece)
            out_o.append(org)
    return out_c, out_o


def _map_collapse_ws(chars: list[str], origins: list[int]) -> tuple[list[str], list[int]]:
    out_c: list[str] = []
    out_o: list[int] = []
    pending_space: int | None = None
    for ch, org in zip(chars, origins):
        if ch.isspace():
            if out_c and pending_space is None:
                pending_space = org
            continue
        if pending_space is not None:
            out_c.append(" ")
            out_o.append(pending_space)
            pending_space = None
        out_c.append(ch)
        out_o.append(org)
    return out_c, out_o


def _map_unify_numbers(chars: list[str], origins: list[int]) -> tuple[list[str], list[int]]:
    n = len(chars)
    out_c: list[str] = []
    out_o: list[int] = []
    i = 0
    while i < n:
        ch = chars[i]
        if ch in (",", ".") or ch in _NUM_SPACES:
            prev_digit = bool(out_c) and _is_digit_char(out_c[-1])
            if ch in (",", "."):
                # decimal separator between digits, tolerating spaces around it
                j = i + 1
                while j < n and chars[j] in _NUM_SPACES:
                    j += 1
                if prev_digit and j < n and _is_digit_char(chars[j]):
                    out_c.append(".")
                    out_o.append(origins[i])
                    i += 1
                    while i < n and chars[i] in _NUM_SPACES:
                        i += 1
                    continue
            else:
                # a separator that might precede "digit , digit" or join digit groups
                j = i + 1
                while j < n and chars[j] in _NUM_SPACES:
                    j += 1
                if prev_digit and j < n and chars[j] in (",", "."):
                    k = j + 1
                    while k < n and chars[k] in _NUM_SPACES:
                        k += 1
                    if k < n and _is_digit_char(chars[k]):
                        out_c.append(".")
                        out_o.append(origins[j])
                        i = k
                        continue
                # single space between digit groups: join
                if prev_digit and j == i + 1 and j < n and _is_digit_char(chars[j]):
                    i += 1
                    continue
        out_c.append(ch)
        out_o.append(origins[i])
        i += 1
    return out_c, out_o


def strip_accents(s: str) -> str:
    """Remove combining accents (NFD decomposition), preserving everything else."""
    chars, _ = _map_strip_accents(list(s), list(range(len(s))))
    return "".join(chars)


def unify_numbers(s: str) -> str:
    """Normalize number formats: join spaced digit groups, unify decimal separators.

    "1 000 mg" -> "1000 mg"; "0,5 g" -> "0.5 g"; "0 , 5" -> "0.5". No other
    characters are altered.
    """
    chars, _ = _map_unify_numbers(list(s), list(range(len(s))))
    return "".join(chars)


def normalize_text(raw: str) -> NormalizedText:
    """Full cleaning pipeline with per-character provenance."""
    chars = list(raw)
    origins = list(range(len(raw)))
    chars, origins = _map_strip_accents(chars, origins)
    chars, origins = _map_lower(chars, origins)
    chars, origins = _map_collapse_ws(chars, origins)
    chars, origins = _map_unify_numbers(chars, origins)
    # unification may leave a dangling trailing space copy; collapse is idempotent
    while chars and chars[-1] == " ":
        chars.pop()
        origins.pop()
    return NormalizedText("".join(chars), tuple(origins))


def _split_chunk(chunk: str, base: int) -> list[tuple[str, int, int]]:
    parts: list[tuple[str, int, int]] = []
    buf_start = None
    for i, ch in enumerate(chunk):
        if ch in _PUNCT:
            keep = (
                ch in "./"
                and i > 0
                and i + 1 < len(chunk)
                and _is_digit_char(chunk[i - 1])
                and _is_digit_char(chunk[i + 1])
            )
            if keep:
                if buf_start is None:
                    buf_start = i
                continue
            if buf_start is not None:
                parts.append((chunk[buf_start:i], base + buf_start, base + i))
                buf_start = None
            parts.append((ch, base + i, base + i + 1))
        else:
            if buf_start is None:
                buf_start = i
    if buf_start is not None:
        parts.append((chunk[buf_start:], base + buf_start, base + len(chunk)))
    return parts


def tokenize(s: str) -> list[Token]:
    """Split normalized text into tokens with per-token attributes.

    Whitespace separates chunks; punctuation (.,;:()/ ) is split off except
    for "." and "/" between digits, so "1.5" and "1/2" stay whole.
    """
    tokens: list[Token] = []
    for m in re.finditer(r"\S+", s):
        for text, start, end in _split_chunk(m.group(), m.start()):
            is_digit = bool(text) and all(_is_digit_char(c) for c in text)
            like_num = bool(_LIKE_NUM_RE.fullmatch(text))
            tokens.append(
                Token(
                    text=text,
                    lower=text.lower(),
                    is_digit=is_digit,
                    like_num=like_num,
                    start=start,
                    end=end,
                )
            )
    return tokens


def load_stopwords(path) -> frozenset[str]:
    """Load the stopword file: one word per line, '#' starts a comment."""
    words: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.split("#", 1)[0].strip()
            if word:
                words.add(strip_accents(word).lower())
    return frozenset(words)


def make_sentence(line: OcrLine, stopwords: frozenset[str] = frozenset()) -> Sentence | None:
    """Normalize and tokenize an OCR line.

    Returns None (dropped) when the line reduces to a single token shorter
    than two characters; such fragments are OCR debris.
    """
    norm = normalize_text(line.raw_text)
    tokens = tokenize(norm.text)
    if not tokens:
        return None
    if len(tokens) == 1 and len(tokens[0].text) < 2:
        return None
    feature_text = " ".join(t.text for t in tokens if t.text not in stopwords)
    return Sentence(
        line_id=line.line_id,
        match_text=norm.text,
        feature_text=feature_text,
        tokens=tuple(tokens),
        bbox=line.bbox,
        page=line.page,
        origins=norm.origins,
    )


def sentence_from_text(
    text: str,
    stopwords: frozenset[str] = frozenset(),
    line_id: str = "text",
    bbox: BoundingBox | None = None,
    page: int = 1,
) -> Sentence | None:
    """Convenience wrapper building a Sentence from bare text (no real geometry)."""
    box = bbox if bbox is not None else BoundingBox(0.0, 0.0, 1.0, 0.02)
    return make_sentence(OcrLine(line_id=line_id, raw_text=text, bbox=box, page=page), stopwords)
