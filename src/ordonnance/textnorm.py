"""Text normalization and tokenization for prescription lines.

The cleaning pipeline applied to every OCR line, in order: strip accents,
lowercase, collapse whitespace, unify number formats. Two views are kept:
``match_text`` (everything, consumed by the pattern engine and the drug
linker) and ``feature_text`` (stopwords removed, consumed by the sentence
classifier). Removing stopwords before matching would destroy phrases like
"2 fois par jour", hence the split.

`normalize_text` additionally returns, for every character of the
normalized text, the index of the raw character it came from. A
``Sentence`` keeps these origins, and ``Sentence.to_raw_span`` projects a
span of its ``match_text`` back onto the raw text.

`read_word_list` reads the shipped word lists (stopwords, equivalence
markers), each entry folded by `normalize_text` like the text it is matched in
and refused unless it is then one token (`is_one_token`).

Both functions make one pass with compiled patterns. Accent stripping and
lowercasing map each character on its own, so an ASCII line is just
``raw.lower()`` and only non-ASCII characters are folded one at a time,
through a bounded cache of each character's fold.
Regex ``\\s`` equals ``str.isspace()`` at every code point, so whitespace
splits the same way in both functions. The tests keep the earlier
four-pass normalizer and chunk tokenizer as oracles.

A token is its text and its span: a ``Sentence`` holds the texts and their
starts as two flat tuples, and ``Sentence.char_span`` adds a text's length.
What a pattern spec tests on it is worked out from the text by the pattern
engine. Normalized text is its own lower case at every code point. A
``Sentence`` carries no geometry: that stays on the ``OcrLine``. One is built
for every line, so ``Sentence`` and ``NormalizedText`` are named tuples,
built positionally (see the package docstring).
"""

from __future__ import annotations

import functools
import io
import re
import unicodedata
from typing import NamedTuple

from .errors import FileError, read_utf8
from .ocr import OcrLine

# A token is a word run (no whitespace, no .,;:()/), or several joined by a
# "." or "/" between two digits, so decimal points and fractions like 1/2
# stay whole; any other punctuation character is a token of its own.
_TOKEN_RE = re.compile(r"[^\s.,;:()/]+(?:(?<=[0-9])[./](?=[0-9])[^\s.,;:()/]+)*|[.,;:()/]")

_WORD_RE = re.compile(r"\S+")

_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")

# Between two digits of whitespace-collapsed text: a decimal separator with
# at most one space on either side (written as "."), or a single space
# joining digit groups (dropped). All of NBSP, narrow NBSP and thin space
# are whitespace, so collapsing has already turned them into " ".
_NUMBER_GAP_RE = re.compile(r"(?<=[0-9])(?: ?([.,]) ?| )(?=[0-9])")


class Sentence(NamedTuple):
    """A normalized line's text, token texts and token starts, for classification and matching; no geometry.

    ``origins`` maps each ``match_text`` character to its raw-text index, and
    ``to_raw_span`` projects a span of ``match_text`` to raw offsets through it.
    """

    line_id: str
    match_text: str
    feature_text: str
    tokens: tuple[str, ...]
    starts: tuple[int, ...]  # each token's offset in match_text
    # raw-text index of each match_text character (see NormalizedText)
    origins: tuple[int, ...] = ()

    def char_span(self, start: int, end: int) -> tuple[int, int]:
        """The [start, end) character span in ``match_text`` of the tokens ``start`` to ``end - 1``."""
        return self.starts[start], self.starts[end - 1] + len(self.tokens[end - 1])

    def to_raw_span(self, start: int, end: int) -> tuple[int, int]:
        """Project a [start, end) span of ``match_text`` back to raw-text offsets."""
        if start >= end:
            raise ValueError(f"empty span ({start}, {end})")
        return (self.origins[start], self.origins[end - 1] + 1)


class NormalizedText(NamedTuple):
    """What ``normalize_text`` returns: the normalized string and, per character,
    its index in the raw string. The ``Sentence`` built from it keeps the
    origins and projects spans to raw offsets (``Sentence.to_raw_span``)."""

    text: str
    origins: tuple[int, ...]


@functools.lru_cache(maxsize=4096)
def _fold_char(ch: str) -> str:
    """Accent stripping (NFD, combining marks dropped), then lowercasing, of one character.

    A pure function of the character, so it is cached: a text draws on few
    non-ASCII characters, and a cached one costs a dict lookup, not an NFD
    decomposition. The bound keeps a text of many distinct characters from
    growing the cache without end.
    """
    return "".join(
        piece.lower() for piece in unicodedata.normalize("NFD", ch) if not unicodedata.combining(piece)
    )


def normalize_text(raw: str) -> NormalizedText:
    """Full cleaning pipeline with per-character provenance.

    Accent stripping and lowercasing act character by character, so an
    ASCII line is ``raw.lower()`` with identity origins and only non-ASCII
    characters are folded one at a time. Whitespace runs (``str.isspace``,
    which ``\\s`` equals) become one space that takes the origin of the
    run's first character. After that the only separator left is " ", and
    number unification is a single substitution over the collapsed text.
    """
    if raw.isascii():
        folded = raw.lower()
        folded_origins: range | list[int] = range(len(raw))
    else:
        parts: list[str] = []
        folded_origins = []
        pos = 0
        for m in _NON_ASCII_RE.finditer(raw):
            i = m.start()
            piece = _fold_char(m.group())
            parts += (raw[pos:i].lower(), piece)
            folded_origins += range(pos, i)
            folded_origins += [i] * len(piece)
            pos = i + 1
        parts.append(raw[pos:].lower())
        folded_origins += range(pos, len(raw))
        folded = "".join(parts)

    text = " ".join(folded.split())
    if text == folded:
        origins = folded_origins
    else:
        origins = []
        prev_end = -1
        for m in _WORD_RE.finditer(folded):
            start, end = m.span()
            if prev_end >= 0:
                origins.append(folded_origins[prev_end])
            origins += folded_origins[start:end]
            prev_end = end

    if _NUMBER_GAP_RE.search(text) is None:
        return NormalizedText(text, tuple(origins))
    out: list[str] = []
    out_origins: list[int] = []
    pos = 0
    for m in _NUMBER_GAP_RE.finditer(text):
        start, end = m.span()
        out.append(text[pos:start])
        out_origins += origins[pos:start]
        if m.group(1) is not None:  # a decimal separator, written as "."
            out.append(".")
            out_origins.append(origins[m.start(1)])
        pos = end
    out.append(text[pos:])
    out_origins += origins[pos:]
    return NormalizedText("".join(out), tuple(out_origins))


def tokenize(s: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Split normalized text into tokens: their texts and their start offsets.

    Whitespace separates chunks; punctuation (.,;:()/ ) is split off except
    for "." and "/" between digits, so "1.5" and "1/2" stay whole. One regex
    pass yields each token with its start.
    """
    texts: list[str] = []
    starts: list[int] = []
    for m in _TOKEN_RE.finditer(s):
        texts.append(m.group())
        starts.append(m.start())
    return tuple(texts), tuple(starts)


def is_one_token(text: str) -> bool:
    """True iff ``text`` is one whole token of itself, so a token's text can equal it."""
    return tokenize(text)[0] == (text,)


def read_word_list(text: str, where) -> frozenset[str]:
    """The normalized words of a word list: one per line, '#' starts a comment.

    A line ends at a line feed, a carriage return and line feed, or a lone
    carriage return, so lines are numbered as the lexicon reader numbers its
    rows; a form feed or another Unicode line separator is whitespace within
    its line. A word is compared with one token's text, so an entry that
    normalizes to anything but one token (two words, a split abbreviation,
    nothing) is a FileError naming ``where`` and the line, as it could never
    match.
    """
    words = set()
    for number, line in enumerate(io.StringIO(text, newline=""), 1):
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        word = normalize_text(entry).text
        if not is_one_token(word):
            raise FileError(f"{where}:{number}: {entry!r} is not one token once normalized, so it never matches")
        words.add(word)
    return frozenset(words)


def load_stopwords(path) -> frozenset[str]:
    """Load the stopword file (see ``read_word_list``)."""
    return read_word_list(read_utf8(path), path)


def _sentence(line_id: str, raw: str, stopwords: frozenset[str]) -> Sentence | None:
    """Normalize and tokenize one line's raw text; None for OCR debris (see ``make_sentence``)."""
    norm = normalize_text(raw)
    tokens, starts = tokenize(norm.text)
    if not tokens:
        return None
    if len(tokens) == 1 and len(tokens[0]) < 2:
        return None
    feature_text = " ".join(t for t in tokens if t not in stopwords)
    return Sentence(line_id, norm.text, feature_text, tokens, starts, norm.origins)


def make_sentence(line: OcrLine, stopwords: frozenset[str] = frozenset()) -> Sentence | None:
    """Normalize and tokenize an OCR line's text.

    Returns None (dropped) when the line reduces to a single token shorter
    than two characters; such fragments are OCR debris.
    """
    return _sentence(line.line_id, line.raw_text, stopwords)


def sentence_from_text(text: str, stopwords: frozenset[str] = frozenset()) -> Sentence | None:
    """A Sentence from bare text, with line id "text"; None for debris, as ``make_sentence``."""
    return _sentence("text", text, stopwords)
