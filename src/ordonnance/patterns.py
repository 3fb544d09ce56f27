"""Declarative token-pattern matcher.

A pattern is an ordered list of per-token constraint specs, each carrying an
optional quantifier (1, ?, +, *). Matching scans a sentence left to right;
at each start position it finds the longest token span that satisfies the
whole spec sequence (quantifiers are explored greedily with backtracking, so
a later spec can always claim tokens an earlier unbounded spec would
otherwise swallow). Matches of one pattern never overlap; scanning resumes
right after each match.

A PatternSet is compiled once, when it is built. Its specs are deduplicated
on their constraints (the quantifier is not part of a spec's identity; the
shipped set's 498 spec instances are 118 distinct specs). Each distinct spec
is compiled once into one test on a token's text, truthy exactly when
``match_token`` (the one definition of a spec holding) holds: a bare regex's
``fullmatch``, a ``lower``-only spec's set membership, a test that always
holds for a wildcard, else ``match_token`` bound to the spec.

Every pattern, fixed-length or quantified, compiles to its own chain NFA,
built backwards from its accept: one node per (spec, repetitions taken), up
to the spec's bound, each with (test, next node) edges. A node whose spec
has had its least number of tokens also carries the edges and accept of
what may follow, the epsilon closure folded in at build time. The root's
edges enter every chain, the nodes that one spec enters merged into one, so
a root miss makes one test per distinct first spec. A zero-length accept is
never placed on the root.

``find_all`` walks a lazy DFA over these nodes, the subset construction of
RE2 (Cox, "Regular Expression Matching in the Wild", 2010) over token tests
instead of bytes. A state is the interned tuple of the distinct nodes that
one token sequence leads to, the start state being the root alone; it
carries the patterns its nodes accept and a dict from token text to the
next state (None when no node is reached). Whether a spec holds depends on
the token text alone, so a transition holds for every sentence. A miss
tests each edge of the state's nodes once on the text, interns the children
reached and stores the transition; a warm walk follows one transition per
token and makes no edge test. A pattern keeps its longest match per start.

The cache belongs to the PatternSet and grows as new token texts arrive.
As in RE2 it is bounded: once MAX_TRANSITIONS transitions are stored, the
next miss flushes it whole and the walk goes on from the states it holds.
Posology lines draw on a small vocabulary, so a long-lived process (a batch
``extract``, ``eval``, a server) soon walks warm, while a one-document CLI
run starts cold. Threads sharing a set may repeat a miss's work but never
change a match, as a transition depends only on its state's nodes and text.

A pattern holds at most MAX_SPECS specs (the shipped ones at most 6): a run
of optional specs folds each closure into the nodes before it, so a chain's
edges grow with the square of its length, and a miss tests them all.

Pattern file format (JSON list)::

    [{"id": str, "label": "DOSE"|"FREQUENCY"|"DURATION"|"COMMENT",
      "specs": [{"lower": str|[str], "regex": str, "is_digit": bool,
                 "like_num": bool, "op": "1"|"?"|"+"|"*"}]}]

All spec fields are optional; "op" defaults to "1". Regexes are anchored
(full-token match). A "lower" word is compared with the normalized token
text, its own lower case, so it must be one token of normalized text (no
accent, no capital, no space); any other word is refused, as it could never
match. "is_digit" means ASCII digits; "like_num" "1", "1.5" or "1/2" shapes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from typing import Callable, Iterable

from .errors import PatternError, decode_json
from .textnorm import Sentence, normalize_text, tokenize

LABELS = ("DOSE", "FREQUENCY", "DURATION", "COMMENT")

# STAR/PLUS are bounded so adversarial patterns always terminate;
# prescription phrases never repeat a token class this often.
MAX_REPS = 10

# Specs a pattern may hold, so the chains' folded closures stay small.
MAX_SPECS = 16

# Transitions the DFA cache holds before it is flushed whole, as RE2 does.
# A pass over the 200 rx-typical benchmark documents stores 1,674 of them in
# 257 states, about 205 KB with their key texts, so the cap bounds the cache
# near 1.2 MB.
MAX_TRANSITIONS = 10_000

_OP_BOUNDS = {"1": (1, 1), "?": (0, 1), "+": (1, MAX_REPS), "*": (0, MAX_REPS)}

_LIKE_NUM_RE = re.compile(r"\d+(?:\.\d+)?|\d+/\d+")


@dataclass(frozen=True)
class TokenSpec:
    lower: frozenset[str] | None = None
    regex: "re.Pattern[str] | None" = None
    is_digit: bool | None = None
    like_num: bool | None = None
    op: str = "1"


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


@dataclass(frozen=True, eq=False, slots=True)
class _Node:
    """An NFA node: a pattern after some repetitions of one of its specs, or such nodes merged below the root.

    A node compares and hashes by identity, so a state's node tuple interns
    at the cost of its length, not of the chain after it.
    """

    edges: tuple  # (compiled test, child) per spec this node may take a token of next
    accepts: tuple[TokenPattern, ...]  # patterns whose whole sequence may end here


class _State:
    """A DFA state: the distinct nodes that one token sequence leads to, interned per PatternSet.

    ``accepts`` holds each pattern its nodes accept once; ``next`` maps a
    token text to the state after it, None when no node is reached.
    """

    __slots__ = ("nodes", "accepts", "next")

    def __init__(self, nodes: tuple[_Node, ...]):
        self.nodes = nodes
        self.accepts = tuple(dict.fromkeys(p for node in nodes for p in node.accepts))
        self.next: dict[str, _State | None] = {}


def _any_text(text: str) -> bool:
    """The compiled test of a wildcard spec: every token satisfies it."""
    return True


def _compile_test(spec: TokenSpec) -> Callable[[str], object]:
    """One test on a token's text, truthy exactly when ``match_token`` holds for the spec."""
    if spec.is_digit is None and spec.like_num is None:
        if spec.lower is None:
            return _any_text if spec.regex is None else spec.regex.fullmatch
        if spec.regex is None:
            return spec.lower.__contains__
    return partial(match_token, spec)


class PatternSet:
    """Immutable collection of patterns, compiled once.

    ``specs`` holds each distinct spec once (the quantifier is not part of a
    spec's identity), and ``tests`` its compiled test (``_compile_test``).
    ``root`` is the NFA's start node: its edges enter every pattern's chain.

    The set also owns its DFA cache (``_start``, the start state, and
    ``_states``, the intern table of states by their nodes), so two sets
    never share a state. The cache is the one thing in the set that changes
    after build.
    """

    def __init__(self, patterns: Iterable[TokenPattern]):
        self.patterns: tuple[TokenPattern, ...] = tuple(patterns)
        seen: set[str] = set()
        for p in self.patterns:
            if p.pattern_id in seen:
                raise PatternError(f"duplicate pattern id {p.pattern_id!r}")
            seen.add(p.pattern_id)
            if len(p.specs) > MAX_SPECS:
                raise PatternError(f"pattern {p.pattern_id!r} has {len(p.specs)} specs, more than {MAX_SPECS}")

        ids: dict[tuple, int] = {}
        specs: list[TokenSpec] = []
        tests: list[Callable[[str], object]] = []
        entries: dict[Callable[[str], object], list[_Node]] = {}  # a first spec's test -> the nodes it enters
        for p in self.patterns:
            edges, accepts = (), (p,)  # what may follow the specs chained so far
            for spec in reversed(p.specs):
                key = (spec.lower, spec.regex, spec.is_digit, spec.like_num)
                sid = ids.get(key)
                if sid is None:
                    sid = ids[key] = len(specs)
                    specs.append(spec)
                    tests.append(_compile_test(spec))
                test = tests[sid]
                lo, hi = _OP_BOUNDS[spec.op]
                node = _Node(edges, accepts)  # after hi repetitions: only what follows
                for _ in range(hi - 1):  # after fewer: a repetition more, or what follows (every lo is 0 or 1)
                    node = _Node(((test, node),) + edges, accepts)
                if lo:
                    edges, accepts = ((test, node),), ()
                else:
                    edges = ((test, node),) + edges
            for test, node in edges:  # a zero-length accept is left out
                entries.setdefault(test, []).append(node)
        self.specs: tuple[TokenSpec, ...] = tuple(specs)
        self.tests: tuple[Callable[[str], object], ...] = tuple(tests)
        # the nodes one first spec enters merge into one, their edges and accepts together
        merged = [
            _Node(tuple(e for n in ns for e in n.edges), tuple(a for n in ns for a in n.accepts))
            for ns in entries.values()
        ]
        self.root = _Node(tuple(zip(entries, merged)), ())
        self._flush()

    def _flush(self) -> None:
        """Empty the DFA cache: the start state alone, with no transition."""
        self._start = _State((self.root,))
        self._states: dict[tuple[_Node, ...], _State] = {self._start.nodes: self._start}
        self._transitions = 0

    def _advance(self, state: _State, text: str) -> _State | None:
        """A cache miss: the state after ``state`` on a token of this text, or None when no node is reached.

        The transition depends on nothing but the state's nodes and the text,
        so it also holds for a state that a flush dropped mid-walk.
        """
        # two nodes may share a child, so each child reached is kept once, in order
        nodes = tuple(dict.fromkeys([child for node in state.nodes for test, child in node.edges if test(text)]))
        if self._transitions >= MAX_TRANSITIONS:
            self._flush()
        nxt = None
        if nodes:
            nxt = self._states.get(nodes)
            if nxt is None:
                nxt = self._states[nodes] = _State(nodes)
        state.next[text] = nxt
        self._transitions += 1
        return nxt


def _is_token_lower(word: str) -> bool:
    """True iff some token's text can equal ``word``: it is normalized and one whole token."""
    if normalize_text(word).text != word:
        return False
    tokens = tokenize(word)
    return len(tokens) == 1 and tokens[0].text == word


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
        for word in sorted(lower):
            if not _is_token_lower(word):
                raise PatternError(f"{where}.lower: {word!r} is not one normalized token, so it never matches")

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
    if op == "1" and _compile_test(spec) is _any_text:
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
    with open(path, "rb") as fh:
        return parse_patterns(decode_json(fh.read(), path, PatternError))


@lru_cache(maxsize=1)
def default_patterns() -> PatternSet:
    """The pattern set shipped with the package (data/patterns_fr.json)."""
    text = resources.files("ordonnance.data").joinpath("patterns_fr.json").read_text("utf-8")
    return parse_patterns(json.loads(text))


def match_token(spec: TokenSpec, text: str) -> bool:
    """True iff every constraint present on the spec holds for a token of this text.

    ``is_digit`` and ``like_num`` are worked out only when the spec asks.
    """
    if spec.lower is not None and text not in spec.lower:
        return False
    if spec.regex is not None and spec.regex.fullmatch(text) is None:
        return False
    if spec.is_digit is not None and (text.isdigit() and text.isascii()) != spec.is_digit:
        return False
    if spec.like_num is not None and (_LIKE_NUM_RE.fullmatch(text) is not None) != spec.like_num:
        return False
    return True


def find_all(patterns: PatternSet, sentence: Sentence) -> list[MatchSpan]:
    """Union of matches over patterns, with per-label overlap resolution.

    Overlapping spans of the same label keep only the longest (ties: the
    earliest start, then the lexically smallest pattern id). Spans of
    different labels may overlap freely.
    """
    tokens = sentence.tokens
    texts = [token.text for token in tokens]
    n = len(texts)
    found: list[tuple[int, int, TokenPattern]] = []
    last: dict[str, int] = {}  # pattern id -> index in found of its last match
    for pos in range(n):
        state = patterns._start  # its nodes are those that tokens[pos:end] lead to
        for end in range(pos + 1, n + 1):
            text = texts[end - 1]
            try:
                state = state.next[text]
            except KeyError:
                state = patterns._advance(state, text)
            if state is None:
                break
            for pattern in state.accepts:
                i = last.get(pattern.pattern_id)
                if i is None or found[i][1] <= pos:  # its first match, or one resumed after the last
                    last[pattern.pattern_id] = len(found)
                    found.append((pos, end, pattern))
                elif found[i][0] == pos:  # a longer match from the same start
                    found[i] = (pos, end, pattern)
    found.sort(key=lambda c: (c[0] - c[1], c[0], c[2].pattern_id))
    taken = {label: bytearray(n) for label in LABELS}
    kept: list[MatchSpan] = []
    for start, end, pattern in found:
        used = taken[pattern.label]
        if any(used[start:end]):
            continue
        used[start:end] = b"\x01" * (end - start)
        kept.append(
            MatchSpan(
                pattern_id=pattern.pattern_id,
                label=pattern.label,
                start_token=start,
                end_token=end,
                text=sentence.match_text[tokens[start].start : tokens[end - 1].end],
            )
        )
    kept.sort(key=lambda s: (s.start_token, s.end_token, s.label, s.pattern_id))
    return kept
