"""Drug detection and lexicon linking.

Drug names sit among the first three tokens of a drug line, so detection
probes each of those tokens against a first-token index over the lexicon,
scores every candidate name against the sentence window of matching length
with the longest-contiguous-match similarity, and links the best candidate
when it clears the acceptance threshold. A sentence with no candidate above
the threshold yields no mention, which is how badly OCR'd or misclassified
lines get ignored instead of mislinked.

Lexicon CSV format: header ``id,name``, UTF-8, one drug per row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Iterable

from . import kernels
from .errors import DuplicateId, EmptyLexicon, FileError
from .textnorm import Sentence, normalize_text, tokenize

DEFAULT_THRESHOLD = 0.72

# First-token lookups tolerate one OCR edit, but only for tokens long
# enough that a single edit is unlikely to reach an unrelated name.
_FUZZY_MIN_LEN = 5


@dataclass(frozen=True)
class LexiconEntry:
    """One lexicon row with its name in the sentence-matching space.

    ``norm_name`` is ``normalize_text(name).text``: the same cleaning as
    ``Sentence.match_text``, with punctuation spacing kept as written
    ("doliprane 1000 mg, comprime", not "... mg , comprime").
    ``norm_tokens`` are the token texts of ``tokenize(norm_name)``.
    """

    drug_id: str
    name: str
    norm_name: str
    norm_tokens: tuple[str, ...]


@dataclass(frozen=True)
class DrugLexicon:
    entries: tuple[LexiconEntry, ...]
    first_token_index: dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class DrugMention:
    line_id: str
    drug_id: str
    lexicon_name: str
    surface_text: str
    score: float
    trigger_token_index: int


def build_lexicon(path) -> DrugLexicon:
    """Load and index a lexicon CSV; names are normalized with the text pipeline."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise FileError(f"cannot read lexicon {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyLexicon(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["id", "name"]:
            raise FileError(f"{path}: expected header 'id,name', got {header!r}")
        entries: list[LexiconEntry] = []
        seen: set[str] = set()
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise FileError(f"{path}:{row_no}: expected 2 columns")
            drug_id = row[0].strip()
            name = row[1].strip()
            if not drug_id or not name:
                raise FileError(f"{path}:{row_no}: empty id or name")
            if drug_id in seen:
                raise DuplicateId(f"{path}:{row_no}: duplicate id {drug_id!r}")
            seen.add(drug_id)
            norm = normalize_text(name).text
            tokens = tuple(t.text for t in tokenize(norm))
            if not tokens:
                raise FileError(f"{path}:{row_no}: name normalizes to nothing")
            entries.append(LexiconEntry(drug_id=drug_id, name=name, norm_name=norm, norm_tokens=tokens))
    if not entries:
        raise EmptyLexicon(f"{path}: no entries")
    index: dict[str, list[int]] = {}
    for i, entry in enumerate(entries):
        index.setdefault(entry.norm_tokens[0], []).append(i)
    return DrugLexicon(
        entries=tuple(entries),
        first_token_index={k: tuple(v) for k, v in index.items()},
    )


def default_lexicon_path() -> str:
    return str(resources.files("ordonnance.data").joinpath("lexicon_demo.csv"))


@lru_cache(maxsize=1)
def default_lexicon() -> DrugLexicon:
    return build_lexicon(default_lexicon_path())


def _candidate_indices(lexicon: DrugLexicon, token: str) -> tuple[int, ...]:
    hit = lexicon.first_token_index.get(token)
    if hit:
        return hit
    if len(token) < _FUZZY_MIN_LEN:
        return ()
    fuzzy: list[int] = []
    for key, idxs in lexicon.first_token_index.items():
        if kernels.levenshtein_leq1(token, key):
            fuzzy.extend(idxs)
    return tuple(sorted(fuzzy))


def mention_token_window(sentence: Sentence, mention: DrugMention) -> tuple[int, int]:
    """Token range [start, end) the mention's name occupies in the sentence.

    ``surface_text`` is the ``match_text`` slice from the trigger token's
    start to the end of the window's last token, so the window ends at the
    last token that ends within it.
    """
    tokens = sentence.tokens
    start = mention.trigger_token_index
    stop = tokens[start].start + len(mention.surface_text)
    end = start + 1
    while end < len(tokens) and tokens[end].end <= stop:
        end += 1
    return start, end


def detect_drug(
    sentence: Sentence,
    lexicon: DrugLexicon,
    threshold: float = DEFAULT_THRESHOLD,
) -> DrugMention | None:
    """Best lexicon link for a drug-classified sentence, or None.

    Each candidate's ``norm_name`` is scored against the slice of the
    sentence's ``match_text`` that starts at the trigger token and spans as
    many tokens as the name has (fewer at the end of the line), so a line
    that renders a lexicon name exactly scores 1.0 against it.

    Ties on score prefer the earliest trigger token, then the longest
    normalized lexicon name, then the smallest drug id. Raising the
    threshold can only turn a mention into None, never change its identity.
    """
    tokens = sentence.tokens
    best: tuple[float, int, int, str] | None = None  # score, -trigger? see key below
    best_entry: LexiconEntry | None = None
    best_trigger = -1
    n = len(tokens)
    for trigger in range(min(3, n)):
        for idx in _candidate_indices(lexicon, tokens[trigger].text):
            entry = lexicon.entries[idx]
            end = min(trigger + len(entry.norm_tokens), n)
            window = sentence.match_text[tokens[trigger].start : tokens[end - 1].end]
            score = kernels.similarity(entry.norm_name, window)
            key = (score, -trigger, len(entry.norm_name))
            if (
                best is None
                or key > best[:3]
                or (key == best[:3] and entry.drug_id < best[3])
            ):
                best = (score, -trigger, len(entry.norm_name), entry.drug_id)
                best_entry = entry
                best_trigger = trigger
    if best is None or best_entry is None or best[0] < threshold:
        return None
    end = min(best_trigger + len(best_entry.norm_tokens), n)
    return DrugMention(
        line_id=sentence.line_id,
        drug_id=best_entry.drug_id,
        lexicon_name=best_entry.name,
        surface_text=sentence.match_text[tokens[best_trigger].start : tokens[end - 1].end],
        score=best[0],
        trigger_token_index=best_trigger,
    )


def split_combined_line(sentence: Sentence, mention: DrugMention) -> Sentence:
    """Sentence covering the tokens after the matched name window.

    Combined lines carry the drug name first and the posology after it; the
    remainder keeps the line's geometry so downstream linking still works.
    The remainder may be empty (no tokens).
    """
    _, end = mention_token_window(sentence, mention)
    tokens = sentence.tokens
    if end >= len(tokens):
        return Sentence(
            line_id=sentence.line_id,
            match_text="",
            feature_text="",
            tokens=(),
            bbox=sentence.bbox,
            page=sentence.page,
        )
    base = tokens[end].start
    shifted = tuple(replace(t, start=t.start - base, end=t.end - base) for t in tokens[end:])
    return Sentence(
        line_id=sentence.line_id,
        match_text=sentence.match_text[base:],
        feature_text=" ".join(t.text for t in shifted),
        tokens=shifted,
        bbox=sentence.bbox,
        page=sentence.page,
        origins=sentence.origins[base:],
    )


@lru_cache(maxsize=1)
def default_equivalence_markers() -> frozenset[str]:
    text = resources.files("ordonnance.data").joinpath("equivalence_markers.txt").read_text("utf-8")
    markers: set[str] = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip()
        if word:
            markers.add(normalize_text(word).text)
    return frozenset(markers)


def starts_with_equivalence_marker(
    sentence: Sentence, markers: Iterable[str] | None = None
) -> bool:
    """True when the line opens with an 'or equivalent' marker ('ou ...').

    Prescriptions often list a substitute drug on the next line introduced by
    such a marker; only the first of the pair should be kept.
    """
    if not sentence.tokens:
        return False
    marker_set = frozenset(markers) if markers is not None else default_equivalence_markers()
    return sentence.tokens[0].text in marker_set
