"""Declarative token-pattern matcher.

A pattern is an ordered list of per-token specs, each a regex that a
token's whole text must match, taking one token ("1", the default) or an
optional one ("?"). Matching scans a sentence left to right; at each start
position it finds the longest token span that satisfies the whole spec
sequence. Matches of one pattern never overlap; scanning resumes right
after each match.

A PatternSet is compiled once, when it is built. Its specs are deduplicated
on their compiled regex, which compares and hashes by value (the quantifier
is not part of a spec's identity; the shipped set's 235 spec instances are
104 distinct regexes). Each distinct regex's own ``fullmatch`` is the one
test on a token's text of every spec that holds it.

Every pattern compiles to its own chain NFA, built backwards from its
accept: one node per spec, the one its token leads to, with (test, next
node) edges. The node before a "1" spec holds that spec's edge alone; the
node before a "?" spec also carries the edges and accept of what follows it,
the epsilon closure folded in at build time. The root holds every chain's
entry edges; the start state's moves group them by test, so a root miss
runs each distinct test on them once. A zero-length accept is never placed
on the root.

``find_all`` walks a lazy DFA over these nodes, the subset construction of
RE2 (Cox, "Regular Expression Matching in the Wild", 2010) over token tests
instead of bytes. A state is the interned tuple of the distinct nodes that
one token sequence leads to, the start state being the root alone; it
carries the patterns its nodes accept, its moves, and a dict from token text
to the next state (None when no node is reached). The moves are built once,
when the state is interned: each distinct test on its nodes' edges, with the
children it leads to, each kept once. Whether a spec holds depends on the
token text alone, so a transition holds for every sentence. A miss runs each
of the state's tests once on the text, interns the children of those that
hold and stores the transition; a warm walk follows one transition per token
and makes no test. A pattern keeps its longest match per start.

The matches are then resolved per label over plain tuples whose natural
order is the order of preference (longest, then earliest, then smallest
pattern id); a ``MatchSpan`` is built only for each match kept, once.

The cache belongs to the PatternSet and grows as new token texts arrive.
As in RE2 it is bounded: once MAX_TRANSITIONS transitions are stored, the
next miss flushes it whole and the walk goes on from the states it holds.
Posology lines draw on a small vocabulary, so a long-lived process (a batch
``extract``, ``eval``, a server) soon walks warm, while a one-document CLI
run starts cold. Threads sharing a set may repeat a miss's work but never
change a match, as a transition depends only on its state's nodes and text.

A pattern holds at most MAX_SPECS specs (the shipped ones at most 6): a run
of "?" specs folds each closure into the node before it, so the edges that
the build makes grow with the square of the run's length.

Pattern file format (JSON list)::

    [{"id": str, "label": "DOSE"|"FREQUENCY"|"DURATION"|"COMMENT",
      "specs": [{"regex": str, "op": "1"|"?"}]}]

Every spec has a "regex"; "op" defaults to "1". A spec holds for a token
whose whole text its regex matches (``fullmatch``), so "cp|cps" holds for
"cps" but not for "cpx". Token text is normalized (each character folded to
lower case without accents) and holds no whitespace, so a regex that names,
outside a backslash escape, a group name, inline flags or a verbose regex's
layout, a character the fold changes (an upper-case or accented letter) or
a whitespace character could never match it, and is refused; escapes such
as "\\S" or "\\D" are classes, not characters. A number is a regex, such
as "[0-9]+", and ".*" holds for any token; an optional token of any text is
{"regex": ".*", "op": "?"}. A pattern or spec with any other field is
refused.

Write one pattern per phrase shape, with the alternatives at one position
in one spec: a regex joining them (words escaped) with a top-level "|", such
as "un|une".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .errors import PatternError, decode_json
from .textnorm import Sentence, _fold_char

LABELS = ("DOSE", "FREQUENCY", "DURATION", "COMMENT")

# Specs a pattern may hold, so the folded closures of a run of "?" specs stay small.
MAX_SPECS = 16

# Transitions the DFA cache holds before it is flushed whole, as RE2 does.
# A pass over the 200 rx-typical benchmark documents (seed 11) stores 1,127 of
# them in 181 states, about 178 KB by sys.getsizeof with their key texts and
# the states' node, accept and move tuples, so the cap bounds the cache near 1.6 MB.
MAX_TRANSITIONS = 10_000


@dataclass(frozen=True)
class TokenSpec:
    """One token of a pattern: its compiled regex, which must match the token's whole text, and its quantifier."""

    regex: "re.Pattern[str]"
    op: str = "1"


@dataclass(frozen=True)
class TokenPattern:
    pattern_id: str
    label: str
    specs: tuple[TokenSpec, ...]


class MatchSpan(NamedTuple):
    """A kept match of one pattern: its tokens [start_token, end_token) and their text.

    ``char_start`` and ``char_end`` index the sentence's ``match_text``; on a
    combined line's remainder, a view of its line, they index the whole line.
    """

    pattern_id: str
    label: str
    start_token: int
    end_token: int
    text: str
    char_start: int
    char_end: int


@dataclass(frozen=True, eq=False, slots=True)
class _Node:
    """An NFA node: a pattern after one of its specs, or the root.

    A node compares and hashes by identity, so a state's node tuple interns
    at the cost of its length, not of the chain after it.
    """

    edges: tuple  # (test, child) per spec this node may take a token of next
    accepts: tuple[TokenPattern, ...]  # patterns whose whole sequence may end here


class _State:
    """A DFA state: the distinct nodes that one token sequence leads to, interned per PatternSet.

    ``accepts`` holds the patterns its nodes accept, a pattern twice when two
    of its nodes do, as ``find_all`` takes a repeat as it took the first;
    ``moves`` pairs each distinct test on the nodes' edges with the children
    it leads to, each kept once; ``next`` maps a token text to the state
    after it, None when no node is reached.
    """

    __slots__ = ("nodes", "accepts", "moves", "next")

    def __init__(self, nodes: tuple[_Node, ...]):
        self.nodes = nodes
        self.accepts = tuple(p for node in nodes for p in node.accepts)
        # Nodes of different patterns share tests, a run of "?" specs repeats
        # its tests in every folded closure, and two nodes may share a child.
        moves: dict[Callable[[str], object], dict[_Node, None]] = {}
        for node in nodes:
            for test, child in node.edges:
                moves.setdefault(test, {})[child] = None
        self.moves = tuple((test, tuple(children)) for test, children in moves.items())
        self.next: dict[str, _State | None] = {}


class PatternSet:
    """Immutable collection of patterns, compiled once.

    ``tests`` holds each distinct regex's ``fullmatch`` once, in the order
    the build first meets them: the test of every spec holding that regex,
    whatever its quantifier. ``root`` is the NFA's start node: its edges
    enter every pattern's chain.

    The set also owns its DFA cache (``_start``, the start state, and
    ``_states``, the intern table of states by their nodes), so two sets
    never share a state. The cache is the one thing in the set that changes
    after build.
    """

    def __init__(self, patterns: Iterable[TokenPattern]):
        self.patterns: tuple[TokenPattern, ...] = tuple(patterns)
        if not self.patterns:
            raise PatternError("a pattern set holds no patterns")
        seen: set[str] = set()
        for p in self.patterns:
            if p.pattern_id in seen:
                raise PatternError(f"duplicate pattern id {p.pattern_id!r}")
            seen.add(p.pattern_id)
            if len(p.specs) > MAX_SPECS:
                raise PatternError(f"pattern {p.pattern_id!r} has {len(p.specs)} specs, more than {MAX_SPECS}")

        tests: dict[re.Pattern[str], Callable[[str], object]] = {}
        entries: list = []  # each chain's entry edges
        for p in self.patterns:
            edges, accepts = (), (p,)  # what may follow the specs chained so far
            for spec in reversed(p.specs):
                test = tests.setdefault(spec.regex, spec.regex.fullmatch)
                edge = (test, _Node(edges, accepts))  # the spec's token, then what follows
                if spec.op == "?":
                    edges = (edge,) + edges  # or straight on to what follows
                else:
                    edges, accepts = (edge,), ()
            entries.extend(edges)  # a zero-length accept is left out
        self.tests: tuple[Callable[[str], object], ...] = tuple(tests.values())
        self.root = _Node(tuple(entries), ())
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
        # each child is entered by one spec's test, so no two moves share one
        nodes = tuple(child for test, children in state.moves if test(text) for child in children)
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


# The syntax of a regex source that names no character a token must hold: a
# backslash escape (``\N{...}`` whole), a group's name or back-reference, and
# inline flags; in a verbose regex also whitespace and comments. It is matched
# first and passed over. Group 1 is any other character the fold may change
# or that is whitespace: an ASCII capital, whitespace or a non-ASCII character.
_SYNTAX = r"\\N\{[^}]*\}|\\.|\(\?P<\w+>|\(\?P=\w+\)|\(\?[aiLmsux]*(?:-[imsx]+)?[:)]"
_SUSPECT = r"([A-Z\s]|[^\x00-\x7f])"
_SUSPECT_RE = re.compile(_SUSPECT)  # a source without one, as every shipped regex is, needs no other pass
_SUSPECTS_RE = re.compile(f"{_SYNTAX}|{_SUSPECT}", re.DOTALL)
_VERBOSE_SUSPECTS_RE = re.compile(rf"{_SYNTAX}|\s+|#[^\n]*|{_SUSPECT}", re.DOTALL)


def _parse_spec(obj: dict, where: str) -> TokenSpec:
    if not isinstance(obj, dict):
        raise PatternError(f"{where}: spec must be an object")
    unknown = set(obj) - {"regex", "op"}
    if unknown:
        raise PatternError(f"{where}: unknown spec fields {sorted(unknown)}")

    regex = obj.get("regex")
    if not isinstance(regex, str):
        raise PatternError(f"{where}.regex: expected string")
    try:
        regex = re.compile(regex)
    except re.error as exc:
        raise PatternError(f"{where}.regex: {exc}") from exc
    # Each character is folded on its own: normalize_text on the whole source
    # would also rewrite its syntax ("{1,3}" to "{1.3}").
    if _SUSPECT_RE.search(regex.pattern):
        for m in (_VERBOSE_SUSPECTS_RE if regex.flags & re.VERBOSE else _SUSPECTS_RE).finditer(regex.pattern):
            ch = m[1]
            if ch is not None and (ch.isspace() or _fold_char(ch) != ch):
                raise PatternError(
                    f"{where}.regex: {ch!r} at offset {m.start(1)} is in no normalized token (folded to lower case"
                    " without accents, no whitespace), so the regex never matches"
                )

    op = obj.get("op", "1")
    if op not in ("1", "?"):
        raise PatternError(f"{where}.op: {op!r} not one of 1 ?")
    return TokenSpec(regex=regex, op=op)


def parse_patterns(data) -> PatternSet:
    if not isinstance(data, list):
        raise PatternError("pattern file must contain a JSON list")
    patterns: list[TokenPattern] = []
    for i, obj in enumerate(data):
        where = f"patterns[{i}]"
        if not isinstance(obj, dict):
            raise PatternError(f"{where}: expected object")
        unknown = set(obj) - {"id", "label", "specs"}
        if unknown:
            raise PatternError(f"{where}: unknown pattern fields {sorted(unknown)}")
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


def find_all(patterns: PatternSet, sentence: Sentence) -> list[MatchSpan]:
    """Union of matches over patterns, with per-label overlap resolution.

    Overlapping spans of the same label keep only the longest (ties: the
    earliest start, then the lexically smallest pattern id). Spans of
    different labels may overlap freely. The spans come back sorted by start
    token, then end token, label and pattern id.

    Each match is a plain tuple ``(start - end, start, pattern id, end,
    label)``, so its natural order is the order of preference; no two
    matches share a pattern id and a start, so the order never reaches
    their ends. A match is kept when it overlaps no kept span of its label,
    and a ``MatchSpan`` is built only for each kept match, once the kept
    ones are in output order.
    """
    texts = sentence.tokens
    n = len(texts)
    found: list[tuple[int, int, str, int, str]] = []
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
                pid = pattern.pattern_id
                i = last.get(pid)
                if i is None or found[i][3] <= pos:  # its first match, or one resumed after the last
                    last[pid] = len(found)
                    found.append((pos - end, pos, pid, end, pattern.label))
                elif found[i][1] == pos:  # a longer match from the same start
                    found[i] = (pos - end, pos, pid, end, pattern.label)
    if not found:
        return []
    found.sort()
    kept: list[tuple[int, int, str, str]] = []
    for _, start, pid, end, label in found:
        for s, e, kept_label, _ in kept:
            if s < end and start < e and kept_label == label:
                break
        else:
            kept.append((start, end, label, pid))
    kept.sort()
    starts = sentence.starts
    match_text = sentence.match_text
    spans = []
    for start, end, label, pid in kept:
        lo = starts[start]
        hi = starts[end - 1] + len(texts[end - 1])
        spans.append(MatchSpan(pid, label, start, end, match_text[lo:hi], lo, hi))
    return spans
