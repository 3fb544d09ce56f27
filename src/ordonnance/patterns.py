"""Declarative token-pattern matcher.

A pattern is an ordered list of per-token constraint specs, each carrying an
optional quantifier (1, ?, +, *). Matching scans a sentence left to right;
at each start position it finds the longest token span that satisfies the
whole spec sequence (quantifiers are explored greedily with backtracking, so
a later spec can always claim tokens an earlier unbounded spec would
otherwise swallow). Matches of one pattern never overlap; scanning resumes
right after each match.

Pattern file format (JSON list)::

    [{"id": str, "label": "DOSE"|"FREQUENCY"|"DURATION"|"COMMENT",
      "specs": [{"lower": str|[str], "regex": str, "is_digit": bool,
                 "like_num": bool, "op": "1"|"?"|"+"|"*"}]}]

All spec fields are optional; "op" defaults to "1". Regexes are anchored
(full-token match).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from .errors import PatternError
from .textnorm import Sentence, Token

LABELS = ("DOSE", "FREQUENCY", "DURATION", "COMMENT")

# STAR/PLUS are bounded so adversarial patterns always terminate;
# prescription phrases never repeat a token class this often.
MAX_REPS = 10

_OP_BOUNDS = {"1": (1, 1), "?": (0, 1), "+": (1, MAX_REPS), "*": (0, MAX_REPS)}


@dataclass(frozen=True)
class TokenSpec:
    lower: frozenset[str] | None = None
    regex: "re.Pattern[str] | None" = None
    is_digit: bool | None = None
    like_num: bool | None = None
    op: str = "1"

    @property
    def is_wildcard(self) -> bool:
        return (
            self.lower is None
            and self.regex is None
            and self.is_digit is None
            and self.like_num is None
        )


@dataclass(frozen=True)
class TokenPattern:
    pattern_id: str
    label: str
    specs: tuple[TokenSpec, ...]


@dataclass(frozen=True)
class MatchSpan:
    pattern_id: str
    label: str
    start_token: int
    end_token: int
    text: str


class PatternSet:
    """Immutable collection of patterns, grouped by label."""

    def __init__(self, patterns: Iterable[TokenPattern]):
        self.patterns: tuple[TokenPattern, ...] = tuple(patterns)
        seen: set[str] = set()
        for p in self.patterns:
            if p.pattern_id in seen:
                raise PatternError(f"duplicate pattern id {p.pattern_id!r}")
            seen.add(p.pattern_id)
        self.by_label: dict[str, tuple[TokenPattern, ...]] = {
            label: tuple(p for p in self.patterns if p.label == label) for label in LABELS
        }

    def __len__(self) -> int:
        return len(self.patterns)


def _parse_spec(obj: dict, where: str) -> TokenSpec:
    if not isinstance(obj, dict):
        raise PatternError(f"{where}: spec must be an object")
    unknown = set(obj) - {"lower", "regex", "is_digit", "like_num", "op"}
    if unknown:
        raise PatternError(f"{where}: unknown spec fields {sorted(unknown)}")

    lower = obj.get("lower")
    if lower is not None:
        if isinstance(lower, str):
            lower = frozenset((lower,))
        elif isinstance(lower, list) and lower and all(isinstance(x, str) for x in lower):
            lower = frozenset(lower)
        else:
            raise PatternError(f"{where}.lower: expected string or non-empty string list")

    regex = obj.get("regex")
    if regex is not None:
        if not isinstance(regex, str):
            raise PatternError(f"{where}.regex: expected string")
        try:
            regex = re.compile(regex)
        except re.error as exc:
            raise PatternError(f"{where}.regex: {exc}") from exc

    for flag in ("is_digit", "like_num"):
        if flag in obj and not isinstance(obj[flag], bool):
            raise PatternError(f"{where}.{flag}: expected boolean")

    op = obj.get("op", "1")
    if op not in _OP_BOUNDS:
        raise PatternError(f"{where}.op: {op!r} not one of 1 ? + *")

    spec = TokenSpec(
        lower=lower,
        regex=regex,
        is_digit=obj.get("is_digit"),
        like_num=obj.get("like_num"),
        op=op,
    )
    if spec.is_wildcard and op == "1":
        # an unconstrained single token is almost always an authoring mistake;
        # wildcards must be opted into with an explicit quantifier
        raise PatternError(f"{where}: unconstrained spec requires an explicit quantifier")
    return spec


def parse_patterns(data) -> PatternSet:
    if not isinstance(data, list):
        raise PatternError("pattern file must contain a JSON list")
    patterns: list[TokenPattern] = []
    for i, obj in enumerate(data):
        where = f"patterns[{i}]"
        if not isinstance(obj, dict):
            raise PatternError(f"{where}: expected object")
        pid = obj.get("id")
        if not isinstance(pid, str) or not pid:
            raise PatternError(f"{where}.id: expected non-empty string")
        label = obj.get("label")
        if label not in LABELS:
            raise PatternError(f"{where}.label: {label!r} not one of {LABELS}")
        raw_specs = obj.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise PatternError(f"{where}.specs: expected non-empty list")
        specs = tuple(_parse_spec(s, f"{where}.specs[{j}]") for j, s in enumerate(raw_specs))
        patterns.append(TokenPattern(pattern_id=pid, label=label, specs=specs))
    return PatternSet(patterns)


def load_patterns(path) -> PatternSet:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PatternError(f"{path}: not valid JSON: {exc}") from exc
    return parse_patterns(data)


@lru_cache(maxsize=1)
def default_patterns() -> PatternSet:
    """The pattern set shipped with the package (data/patterns_fr.json)."""
    text = resources.files("ordonnance.data").joinpath("patterns_fr.json").read_text("utf-8")
    return parse_patterns(json.loads(text))


def match_token(spec: TokenSpec, token: Token) -> bool:
    """True iff every constraint present on the spec holds for the token."""
    if spec.lower is not None and token.lower not in spec.lower:
        return False
    if spec.regex is not None and spec.regex.fullmatch(token.text) is None:
        return False
    if spec.is_digit is not None and token.is_digit != spec.is_digit:
        return False
    if spec.like_num is not None and token.like_num != spec.like_num:
        return False
    return True


def _longest_end(specs: Sequence[TokenSpec], tokens: Sequence[Token], start: int) -> int:
    """Maximum end index reachable by consuming all specs from ``start``, else -1."""
    n = len(tokens)
    memo: dict[tuple[int, int], int] = {}

    def rec(si: int, pos: int) -> int:
        if si == len(specs):
            return pos
        key = (si, pos)
        cached = memo.get(key)
        if cached is not None:
            return cached
        spec = specs[si]
        lo, hi = _OP_BOUNDS[spec.op]
        max_k = 0
        while max_k < hi and pos + max_k < n and match_token(spec, tokens[pos + max_k]):
            max_k += 1
        best = -1
        for k in range(max_k, lo - 1, -1):
            end = rec(si + 1, pos + k)
            if end > best:
                best = end
        memo[key] = best
        return best

    return rec(0, start)


def find_matches(pattern: TokenPattern, sentence: Sentence) -> list[MatchSpan]:
    """Non-overlapping longest matches of one pattern, left to right."""
    tokens = sentence.tokens
    spans: list[MatchSpan] = []
    pos = 0
    n = len(tokens)
    while pos < n:
        end = _longest_end(pattern.specs, tokens, pos)
        if end > pos:
            spans.append(
                MatchSpan(
                    pattern_id=pattern.pattern_id,
                    label=pattern.label,
                    start_token=pos,
                    end_token=end,
                    text=sentence.match_text[tokens[pos].start : tokens[end - 1].end],
                )
            )
            pos = end
        else:
            pos += 1
    return spans


def find_all(
    patterns: PatternSet,
    sentence: Sentence,
    labels: Sequence[str] | None = None,
) -> list[MatchSpan]:
    """Union of matches over patterns, with per-label overlap resolution.

    Overlapping spans of the same label keep only the longest (ties: the
    earliest start, then the lexically smallest pattern id). Spans of
    different labels may overlap freely.
    """
    wanted = tuple(labels) if labels is not None else LABELS
    kept: list[MatchSpan] = []
    for label in wanted:
        candidates: list[MatchSpan] = []
        for pattern in patterns.by_label.get(label, ()):
            candidates.extend(find_matches(pattern, sentence))
        candidates.sort(key=lambda s: (-(s.end_token - s.start_token), s.start_token, s.pattern_id))
        chosen: list[MatchSpan] = []
        for span in candidates:
            if any(s.start_token < span.end_token and span.start_token < s.end_token for s in chosen):
                continue
            chosen.append(span)
        kept.extend(chosen)
    kept.sort(key=lambda s: (s.start_token, s.end_token, s.label, s.pattern_id))
    return kept
