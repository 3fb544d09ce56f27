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
shipped set's 498 spec instances are 118 distinct specs). The fixed-length
patterns (every op "1", 158 of the shipped 161) are merged into one prefix
trie keyed by spec id: a node is a spec-id prefix, its edges lead to the
next specs, and a pattern is accepted at the node its whole sequence leads
to (284 nodes below the root for 482 spec slots in the shipped set). All
four labels share the trie; overlaps are then resolved per label.

Each distinct spec is compiled once into one test on a token's text, truthy
exactly when ``match_token`` (the one definition of a spec holding) holds: a
bare regex's ``fullmatch``, a ``lower``-only spec's set membership, a test
that always holds for a wildcard, else ``match_token`` bound to the spec.
Every trie edge and every DP step decides its spec by one call of its test.

``find_all`` walks a lazy DFA built over the trie, the subset construction
of RE2 (Cox, "Regular Expression Matching in the Wild", 2010) over token
tests instead of bytes. A state is the interned tuple of trie nodes that
one token sequence leads to, the start state being the root alone; it
carries the flattened accepts and quantified patterns of its nodes and a
dict from token text to the next state (None when no node is reached).
Whether a spec holds depends on the token text alone, so a transition
holds for every sentence. A miss tests each edge of the state's nodes once
on the text, interns the children reached and stores the transition. From
each position the walk follows one transition per token; a warm walk makes
no edge test at all. A pattern's resume rule is checked where the state
accepts it.

The cache belongs to the PatternSet and grows as new token texts arrive.
As in RE2 it is bounded: once MAX_TRANSITIONS transitions are stored, the
next miss flushes it whole and the walk goes on from the states it holds.
The gain is reuse across sentences and documents: posology lines draw on a
small vocabulary, so a long-lived process (a batch ``extract``, ``eval``, a
server) soon walks warm, while a one-document CLI run starts cold and gains
nothing. Threads sharing a set may repeat a miss's work but never change a
match, as a transition depends on nothing but its state's nodes and the text.

A pattern with a quantifier runs a DP over reachable positions, each spec
consuming at most MAX_REPS tokens. It hangs at the depth-1 node of its first
spec, or at the root when that spec is optional, and it alone decides its
specs through a per-sentence memo filled on demand.

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
from typing import Callable, Iterable, Sequence

from .errors import PatternError, decode_json
from .textnorm import Sentence, normalize_text, tokenize

LABELS = ("DOSE", "FREQUENCY", "DURATION", "COMMENT")

# STAR/PLUS are bounded so adversarial patterns always terminate;
# prescription phrases never repeat a token class this often.
MAX_REPS = 10

# Transitions the DFA cache holds before it is flushed whole, as RE2 does.
# A pass over the 200 rx-typical benchmark documents stores 1,650 of them in
# 249 states, about 165 KB, so the cap bounds the cache near 1 MB.
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
    """A trie node: one spec-id prefix of the fixed-length patterns.

    A node compares and hashes by identity, so a state's node tuple interns
    at the cost of its length, not of the subtrie below it.
    """

    edges: tuple  # (compiled test, spec id, child) per next spec
    accepts: tuple[TokenPattern, ...]  # fixed-length patterns whose whole sequence ends here
    quantified: tuple  # (pattern, spec ids, per-spec (lo, hi)) of quantified patterns tried here


class _State:
    """A DFA state: the trie nodes that one token sequence leads to, interned per PatternSet.

    ``accepts`` and ``quantified`` flatten those of its nodes; ``next`` maps a
    token text to the state after it, None when no node is reached.
    """

    __slots__ = ("nodes", "accepts", "quantified", "next")

    def __init__(self, nodes: tuple[_Node, ...]):
        self.nodes = nodes
        self.accepts = tuple(p for node in nodes for p in node.accepts)
        self.quantified = tuple(q for node in nodes for q in node.quantified)
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
    ``root`` is the trie of the fixed-length patterns. A quantified pattern
    hangs at the depth-1 node of its first spec, or at the root when that
    spec is optional.

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

        ids: dict[tuple, int] = {}
        specs: list[TokenSpec] = []
        root: list = [{}, [], []]  # a node while building: [{spec id: child}, accepts, quantified]
        for p in self.patterns:
            spec_ids = []
            for spec in p.specs:
                key = (spec.lower, spec.regex, spec.is_digit, spec.like_num)
                sid = ids.get(key)
                if sid is None:
                    sid = ids[key] = len(specs)
                    specs.append(spec)
                spec_ids.append(sid)
            ops = [spec.op for spec in p.specs]
            fixed = set(ops) == {"1"}
            if fixed:
                path = spec_ids
            else:  # a quantified pattern hangs where its first spec is decided
                path = spec_ids[:1] if ops[0] in ("1", "+") else []
            node = root
            for sid in path:
                child = node[0].get(sid)
                if child is None:
                    child = node[0][sid] = [{}, [], []]
                node = child
            if fixed:
                node[1].append(p)
            else:
                node[2].append((p, tuple(spec_ids), tuple(_OP_BOUNDS[op] for op in ops)))
        self.specs: tuple[TokenSpec, ...] = tuple(specs)
        self.tests: tuple[Callable[[str], object], ...] = tuple(map(_compile_test, specs))

        def freeze(node: list) -> _Node:
            edges, accepts, quantified = node
            return _Node(
                tuple([(self.tests[sid], sid, freeze(child)) for sid, child in edges.items()]),
                tuple(accepts),
                tuple(quantified),
            )

        self.root: _Node = freeze(root)
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
        nodes = tuple([child for node in state.nodes for test, _, child in node.edges if test(text)])
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


def _longest_end(
    tests: Sequence[Callable[[str], object]],
    texts: Sequence[str],
    memo: dict[tuple[int, int], bool],
    spec_ids: Sequence[int],
    bounds: Sequence[tuple[int, int]],
    start: int,
) -> int:
    """Maximum end index reachable by consuming all specs from ``start``, else -1.

    A DP over the set of reachable positions, one spec at a time; each spec
    consumes between its bounds of consecutive tokens that satisfy it.
    ``memo`` keeps each (spec id, position) decision for the sentence.
    """
    n = len(texts)
    reach = {start}
    for sid, (lo, hi) in zip(spec_ids, bounds):
        nxt: set[int] = set()
        for pos in reach:
            if lo == 0:
                nxt.add(pos)
            k = 0
            while k < hi and pos + k < n:
                held = memo.get((sid, pos + k))
                if held is None:
                    held = memo[sid, pos + k] = bool(tests[sid](texts[pos + k]))
                if not held:
                    break
                k += 1
                if k >= lo:
                    nxt.add(pos + k)
        if not nxt:
            return -1
        reach = nxt
    return max(reach)


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
    resume: dict[str, int] = {}  # pattern id -> end of its last match
    memo: dict[tuple[int, int], bool] = {}  # the quantified patterns' decisions
    for pos in range(n):
        state = patterns._start  # its nodes are those that tokens[pos:end] lead to
        end = pos
        while True:
            for pattern in state.accepts:
                if resume.get(pattern.pattern_id, 0) <= pos:
                    found.append((pos, end, pattern))
                    resume[pattern.pattern_id] = end
            for pattern, spec_ids, bounds in state.quantified:
                if resume.get(pattern.pattern_id, 0) <= pos:
                    stop = _longest_end(patterns.tests, texts, memo, spec_ids, bounds, pos)
                    if stop > pos:
                        found.append((pos, stop, pattern))
                        resume[pattern.pattern_id] = stop
            if end == n:
                break
            text = texts[end]
            try:
                state = state.next[text]
            except KeyError:
                state = patterns._advance(state, text)
            if state is None:
                break
            end += 1
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
