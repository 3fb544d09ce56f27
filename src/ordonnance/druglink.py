"""Drug detection and lexicon linking.

Drug names sit among the first three tokens of a drug line, so detection
probes each of those tokens against a first-token index over the lexicon,
scores every candidate name against the sentence window of matching length
with the longest-contiguous-match similarity, and links the best candidate
when it clears the acceptance threshold. A sentence with no candidate above
the threshold yields no mention, which is how badly OCR'd or misclassified
lines get ignored instead of mislinked.

A token that is no first-token key, and has at least five characters, takes
the candidates of every key within one edit of it. Those keys are found by a
pigeonhole filter (Wu & Manber 1992): one edit leaves either the token's
first ``(n - 1) // 2`` characters or its last ``n // 2`` untouched, as the two
parts do not overlap, so a key within one edit starts with the first part or
ends with the second. ``bisect`` finds the keys with that start among the
keys sorted, and those with that end among the keys sorted by their
reversal; each hit is verified with ``kernels.levenshtein_leq1``. The
candidates are the same, in the same order, as those of a loop over every
key. The two orders are tuples of the index's own key strings.

Two exact rules keep the kernel off work that cannot change the result:

- an equal window settles the line. ``similarity`` returns 1.0 for equal
  strings and only for them, so before any kernel call the probed tokens'
  candidates are tested, token by token, for a window equal to their name.
  The first token that holds one settles the line at 1.0, its equal
  windows ranked by the tie rule of ``detect_drug``: every other window
  scores below 1.0, and an equal window at a later token loses on position;
- on a line with no equal window, the score is 2M/(la+lb) with M matched
  characters and M <= min(la, lb), so a candidate whose bound
  2*min(la, lb)/(la+lb) is strictly below the threshold or the best score
  so far is not scored (an equal score can still win on trigger, length or
  id, so it is scored).

A line opening with an equivalence marker ("ou", "soit", ...) names a
substitute for the drug above it; the markers are the one shipped word list,
``data/equivalence_markers.txt``, read once with ``read_word_list``.

Lexicon CSV format: header ``id,name``, UTF-8, one drug per row.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import kernels
from .errors import DuplicateId, EmptyLexicon, FileError, data_path, read_utf8
from .textnorm import Sentence, normalize_text, read_word_list, tokenize

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
    ``n_tokens`` is the number of tokens of ``tokenize(norm_name)``: the
    length of the sentence window the name is scored against.
    """

    drug_id: str
    name: str
    norm_name: str
    n_tokens: int


@dataclass(frozen=True)
class DrugLexicon:
    """Entries with their first-token index.

    ``first_token_index`` maps the first token of each name's
    ``tokenize(norm_name)`` to its entry positions, in file order; it is
    filled as the rows are read. The fuzzy lookup probes its keys in two
    orders: sorted (``sorted_keys``), so keys with a common start are
    adjacent, and sorted by their reversal (``keys_by_ending``), so keys
    with a common end are.
    """

    entries: tuple[LexiconEntry, ...]
    first_token_index: dict[str, tuple[int, ...]]
    sorted_keys: tuple[str, ...]
    keys_by_ending: tuple[str, ...]


class DrugMention(NamedTuple):
    line_id: str
    drug_id: str
    lexicon_name: str
    surface_text: str
    score: float
    trigger_token_index: int


def _backwards(text: str) -> str:
    return text[::-1]


def build_lexicon(path) -> DrugLexicon:
    """Load and index a lexicon CSV; names are normalized with the text pipeline."""
    with io.StringIO(read_utf8(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyLexicon(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["id", "name"]:
            raise FileError(f"{path}: expected header 'id,name', got {header!r}")
        entries: list[LexiconEntry] = []
        index: dict[str, list[int]] = {}
        seen: set[str] = set()
        read = reader.line_num  # file lines read so far
        for row in reader:
            # a quoted name may span lines: a row is named by the file line it starts on
            row_no, read = read + 1, reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            # an unquoted comma in a name makes a third cell: refused, not cut short
            if len(row) != 2:
                raise FileError(f"{path}:{row_no}: expected 2 columns")
            drug_id = row[0].strip()
            name = row[1].strip()
            if not drug_id or not name:
                raise FileError(f"{path}:{row_no}: empty id or name")
            if drug_id in seen:
                raise DuplicateId(f"{path}:{row_no}: duplicate id {drug_id!r}")
            seen.add(drug_id)
            norm = normalize_text(name).text
            tokens = tokenize(norm)[0]
            if not tokens:
                raise FileError(f"{path}:{row_no}: name normalizes to nothing")
            index.setdefault(tokens[0], []).append(len(entries))
            entries.append(LexiconEntry(drug_id=drug_id, name=name, norm_name=norm, n_tokens=len(tokens)))
    if not entries:
        raise EmptyLexicon(f"{path}: no entries")
    return DrugLexicon(
        entries=tuple(entries),
        first_token_index={k: tuple(v) for k, v in index.items()},
        sorted_keys=tuple(sorted(index)),
        keys_by_ending=tuple(sorted(index, key=_backwards)),
    )


def default_lexicon_path() -> str:
    return data_path("lexicon_demo.csv")


def _candidate_indices(lexicon: DrugLexicon, token: str) -> tuple[int, ...]:
    hit = lexicon.first_token_index.get(token)
    if hit:
        return hit
    n = len(token)
    if n < _FUZZY_MIN_LEN:
        return ()
    near: list[str] = []
    heads, head = lexicon.sorted_keys, token[: (n - 1) // 2]
    at = bisect_left(heads, head)
    while at < len(heads) and heads[at].startswith(head):
        near.append(heads[at])
        at += 1
    tails, tail = lexicon.keys_by_ending, token[-(n // 2) :]
    at = bisect_left(tails, tail[::-1], key=_backwards)
    while at < len(tails) and tails[at].endswith(tail):
        near.append(tails[at])
        at += 1
    fuzzy: list[int] = []
    for key in set(near):
        if kernels.levenshtein_leq1(token, key):
            fuzzy.extend(lexicon.first_token_index[key])
    return tuple(sorted(fuzzy))


def mention_token_window(sentence: Sentence, mention: DrugMention) -> tuple[int, int]:
    """Token range [start, end) the mention's name occupies in the sentence.

    ``surface_text`` is the ``match_text`` slice from the trigger token's
    start to the end of the window's last token, and only whitespace lies
    between two tokens, so the window ends before the first token that
    starts at or after the slice's end.
    """
    start = mention.trigger_token_index
    return start, bisect_left(sentence.starts, sentence.starts[start] + len(mention.surface_text), start + 1)


def detect_drug(
    sentence: Sentence,
    lexicon: DrugLexicon,
    threshold: float = DEFAULT_THRESHOLD,
) -> DrugMention | None:
    """Best lexicon link for a drug-classified sentence, or None.

    Each candidate's ``norm_name`` is scored against the slice of the
    sentence's ``match_text`` that starts at the trigger token and spans as
    many tokens as the name has (fewer at the end of the line), so a line
    that renders a lexicon name exactly scores 1.0 against it. Such an equal
    window settles the line: the first trigger token that holds one links
    it, and the kernel is called only on lines that hold none.

    Ties on score prefer the earliest trigger token, then the longest
    normalized lexicon name, then the smallest drug id. Raising the
    threshold can only turn a mention into None, never change its identity.
    """
    tokens = sentence.tokens
    char_span = sentence.char_span
    match_text = sentence.match_text
    # The winner so far: (rank, entry, window start, window stop). The least
    # rank (-score, trigger, -len(norm_name), drug_id) is the tie rule above.
    best: tuple[tuple[float, int, int, str], LexiconEntry, int, int] | None = None
    n = len(tokens)
    probed = []  # (trigger, window start, [(entry, window stop), ...]) per token probed
    for trigger in range(min(3, n)):
        start = sentence.starts[trigger]
        windows = []
        for idx in _candidate_indices(lexicon, tokens[trigger]):
            entry = lexicon.entries[idx]
            stop = char_span(trigger, min(trigger + entry.n_tokens, n))[1]
            windows.append((entry, stop))
            if match_text[start:stop] == entry.norm_name:
                rank = (-1.0, trigger, -len(entry.norm_name), entry.drug_id)
                if best is None or rank < best[0]:
                    best = (rank, entry, start, stop)
        if best is not None:
            break  # an equal window settles the line
        probed.append((trigger, start, windows))
    if best is None:
        for trigger, start, windows in probed:
            for entry, stop in windows:
                name = entry.norm_name
                la, lb = len(name), stop - start
                floor = threshold if best is None else max(threshold, -best[0][0])
                if 2.0 * min(la, lb) / (la + lb) < floor:
                    continue  # cannot reach the threshold or the best score
                rank = (-kernels.similarity(name, match_text[start:stop]), trigger, -la, entry.drug_id)
                if best is None or rank < best[0]:
                    best = (rank, entry, start, stop)
    if best is None or -best[0][0] < threshold:
        return None
    (neg_score, trigger, _, _), entry, start, stop = best
    return DrugMention(sentence.line_id, entry.drug_id, entry.name, match_text[start:stop], -neg_score, trigger)


def split_combined_line(sentence: Sentence, mention: DrugMention) -> Sentence:
    """Token view of the line after the matched name window.

    Combined lines carry the drug name first and the posology after it. The
    view is the same line, with the same id, ``match_text`` and ``origins``,
    holding only the tokens after the window and their starts in that
    ``match_text``, so its extraction's offsets index the line. It may hold
    no tokens. Its ``feature_text`` is empty: a remainder goes to posology
    extraction and is never classified.
    """
    _, end = mention_token_window(sentence, mention)
    return Sentence(
        sentence.line_id, sentence.match_text, "", sentence.tokens[end:], sentence.starts[end:], sentence.origins
    )


@lru_cache(maxsize=1)
def default_equivalence_markers() -> frozenset[str]:
    """The shipped markers (data/equivalence_markers.txt), read once."""
    path = data_path("equivalence_markers.txt")
    return read_word_list(read_utf8(path), path)


def starts_with_equivalence_marker(sentence: Sentence) -> bool:
    """True when the line opens with one of the shipped 'or equivalent' markers ('ou ...').

    Prescriptions often list a substitute drug on the next line introduced by
    such a marker; only the first of the pair should be kept.
    """
    return bool(sentence.tokens) and sentence.tokens[0] in default_equivalence_markers()
