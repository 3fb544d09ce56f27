import dataclasses
import itertools
import json
import random
import re
import sys
from collections import Counter
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordonnance.corpus import CorpusSpec, generate, noisify
from ordonnance.druglink import default_lexicon_path
from ordonnance.errors import PatternError
from ordonnance.patterns import (
    LABELS,
    MAX_SPECS,
    PatternSet,
    TokenPattern,
    TokenSpec,
    find_all,
    parse_patterns,
)
from ordonnance.posology import extract_posology
from ordonnance.textnorm import Sentence, sentence_from_text, tokenize


def sent(text):
    return sentence_from_text(text)


def raw_sent(text):
    """Sentence over the exact token stream of ``text``, no normalization."""
    tokens, starts = tokenize(text)
    return Sentence(
        line_id="raw",
        match_text=text,
        feature_text=text,
        tokens=tokens,
        starts=starts,
    )


# A number token, "1", "1.5" or "1/2": the spec these tests use for "a number".
NUMBER = {"regex": "[0-9]+(?:[./][0-9]+)?"}


def pattern(pid, label, *specs):
    return parse_patterns([{"id": pid, "label": label, "specs": [dict(s) for s in specs]}]).patterns[0]


def holds(spec: TokenSpec, text: str) -> bool:
    """The definition of a spec holding for a token: its regex matches the whole text."""
    return spec.regex.fullmatch(text) is not None


class TestSpecHolds:
    """A spec's regex on a token's text."""

    def tok(self, text):
        return sent(text).tokens[0]

    def test_word_alternation(self):
        p = pattern("x", "DOSE", {"regex": "cp|comprime"})
        assert holds(p.specs[0], self.tok("cp"))
        assert not holds(p.specs[0], self.tok("gelule"))

    def test_regex_is_anchored_to_the_whole_token(self):
        p = pattern("x", "DOSE", {"regex": "[0-9]+"})
        assert holds(p.specs[0], self.tok("15"))
        for text in ("1.5", "a1", "15mg"):
            assert not holds(p.specs[0], self.tok(text)), text

    def test_a_number_is_a_regex(self):
        # the decimal and fraction shapes a number token takes, and ASCII digits only
        p = pattern("x", "DOSE", NUMBER)
        for text in ("15", "1.5", "1/2"):
            assert holds(p.specs[0], self.tok(text)), text
        for text in ("matin", "\u0663", "\uff11", "12/04/2021"):
            assert not holds(p.specs[0], text), text

    def test_a_regex_is_compared_with_the_normalized_text(self):
        # normalized text is its own lower case, so a lower-case regex holds for a capitalized word
        p = pattern("x", "DOSE", {"regex": "cp"})
        assert holds(p.specs[0], self.tok("CP"))
        assert not holds(p.specs[0], "CP")

    @pytest.mark.parametrize("words", [["un", "une"], ["1.5", "1/2"], [","]], ids=["prefix", "escaped", "punctuation"])
    def test_a_word_list_is_an_escaped_alternation(self, words):
        # fullmatch tries each alternative, so "un|une" holds for "une" as well;
        # escaped, "1\.5" holds for "1.5" but not for "125"
        p = pattern("x", "DOSE", {"regex": "|".join(map(re.escape, words))})
        near = ["u", "unee", "une,", "125", "1x5", "1/25", ";", ",,"]
        assert [w for w in words + near if holds(p.specs[0], w)] == words

    @given(st.text())
    @example("1 cp\nmatin\r\n\x85soir\u2028midi")
    @settings(max_examples=200, derandomize=True)
    def test_the_wildcard_holds_for_every_token(self, text):
        # a token holds no whitespace, so ".*" (any character but a newline) matches it whole
        p = pattern("x", "DOSE", {"regex": ".*"})
        assert all(holds(p.specs[0], t) for t in tokenize(text)[0])


class TestFindMatches:
    def test_simple_sequence(self):
        p = pattern("x", "DOSE", NUMBER, {"regex": "cp"})
        spans = find_all(PatternSet((p,)), sent("prendre 1 cp matin"))
        assert len(spans) == 1
        assert spans[0].text == "1 cp"
        assert (spans[0].start_token, spans[0].end_token) == (1, 3)

    def test_duration_example_matches_brute_force(self):
        p = pattern(
            "x",
            "DURATION",
            {"regex": "pendant"},
            NUMBER,
            {"regex": "jours?|semaines?|mois"},
        )
        s = sent("pendant 10 jours")
        spans = find_all(PatternSet((p,)), s)
        assert [(sp.start_token, sp.end_token) for sp in spans] == brute_force_spans(p, s)
        assert spans[0].text == "pendant 10 jours"

    def test_matches_do_not_overlap_and_resume_after_end(self):
        p = pattern("x", "DOSE", NUMBER, {"regex": "cp"})
        spans = find_all(PatternSet((p,)), sent("1 cp puis 2 cp"))
        assert [sp.text for sp in spans] == ["1 cp", "2 cp"]

    def test_optional_spec(self):
        p = pattern("x", "FREQUENCY", {"regex": "matin"}, {"regex": ",", "op": "?"}, {"regex": "midi"})
        assert find_all(PatternSet((p,)), sent("matin midi"))[0].text == "matin midi"
        assert find_all(PatternSet((p,)), sent("matin , midi"))[0].text == "matin , midi"

    def test_spans_disjoint_sorted(self):
        p = pattern("x", "DOSE", NUMBER)
        spans = find_all(PatternSet((p,)), raw_sent("1 a 2 b 3"))
        starts = [sp.start_token for sp in spans]
        assert starts == sorted(starts)
        for s1, s2 in zip(spans, spans[1:]):
            assert s1.end_token <= s2.start_token


def brute_force_reach(p: TokenPattern, sentence, start: int) -> set[int]:
    """All end positions reachable from ``start``, each optional spec taken or not."""
    bounds = {"1": (1, 1), "?": (0, 1)}
    tokens = sentence.tokens

    def ends(si, pos):
        if si == len(p.specs):
            return {pos}
        lo, hi = bounds[p.specs[si].op]
        out = set()
        for k in range(lo, hi + 1):
            if pos + k > len(tokens):
                break
            if not all(holds(p.specs[si], tokens[pos + x]) for x in range(k)):
                break  # a longer run cannot match if this prefix does not
            out |= ends(si + 1, pos + k)
        return out

    return ends(0, start)


def brute_force_spans(p: TokenPattern, sentence) -> list[tuple[int, int]]:
    """Longest reachable end per start, non-overlapping, left to right."""
    spans = []
    pos = 0
    n = len(sentence.tokens)
    while pos < n:
        reach = brute_force_reach(p, sentence, pos)
        best = max(reach) if reach else pos
        if best > pos:
            spans.append((pos, best))
            pos = best
        else:
            pos += 1
    return spans


class TestBruteForceEquivalence:
    def test_random_small_patterns(self):
        rng = random.Random(99)
        vocab = ["1", "2", "cp", "mg", "matin", "et"]
        spec_pool = [
            NUMBER,
            {"regex": "[0-9]+"},
            {"regex": "cp|mg"},
            {"regex": "matin"},
            {"regex": "m.*"},
            {"regex": "et", "op": "?"},
            {**NUMBER, "op": "?"},
            {"regex": "cp", "op": "?"},
            {"regex": "[a-z]+", "op": "?"},
        ]
        for trial in range(300):
            n_specs = rng.randint(1, 4)
            specs = [dict(rng.choice(spec_pool)) for _ in range(n_specs)]
            p = pattern(f"t{trial}", "DOSE", *specs)
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            s = raw_sent(" ".join(words))
            got = [(sp.start_token, sp.end_token) for sp in find_all(PatternSet((p,)), s)]
            assert got == brute_force_spans(p, s), (specs, words)

    def test_every_span_revalidates(self, patterns):
        pats = patterns
        s = sent("1 comprime matin et soir pendant 10 jours si douleur")
        for p in pats.patterns:
            for sp in find_all(PatternSet((p,)), s):
                assert 0 <= sp.start_token < sp.end_token <= len(s.tokens)
                # replaying spec-by-spec consumption over the span succeeds
                assert sp.end_token in brute_force_reach(p, s, sp.start_token)


def brute_force_find_all(pats: PatternSet, sentence) -> list[tuple[int, int, str, str]]:
    """find_all's per-label overlap rule over brute_force_spans of every pattern."""
    kept = []
    for label in LABELS:
        candidates = sorted(
            (-(end - start), start, p.pattern_id, end)
            for p in pats.patterns
            if p.label == label
            for start, end in brute_force_spans(p, sentence)
        )
        chosen = []
        for _, start, pid, end in candidates:
            if not any(s < end and start < e for s, e, _ in chosen):
                chosen.append((start, end, pid))
        kept.extend((start, end, label, pid) for start, end, pid in chosen)
    return sorted(kept)


def compiled_find_all(pats: PatternSet, sentence) -> list[tuple[int, int, str, str]]:
    """find_all's matches from an empty cache, checked equal to a warm repeat that makes no miss."""
    pats._flush()
    cold = [(sp.start_token, sp.end_token, sp.label, sp.pattern_id) for sp in find_all(pats, sentence)]
    transitions = pats._transitions
    warm = [(sp.start_token, sp.end_token, sp.label, sp.pattern_id) for sp in find_all(pats, sentence)]
    assert pats._transitions == transitions and warm == cold, sentence.match_text
    return cold


def accept_paths(pats: PatternSet) -> Counter:
    """(spec-id path from the root, pattern id) of every accept, counted once per NFA path to it."""
    sid_of = {id(test): sid for sid, test in enumerate(pats.tests)}
    paths: Counter = Counter()

    def visit(path, node):
        paths.update((path, p.pattern_id) for p in node.accepts)
        for test, child in node.edges:
            visit(path + (sid_of[id(test)],), child)

    visit((), pats.root)
    return paths


def is_fixed(p: TokenPattern) -> bool:
    return all(spec.op == "1" for spec in p.specs)


def spec_paths(pats: PatternSet, p: TokenPattern) -> set:
    """The spec-id sequences ``p`` matches, each optional spec taken or not."""
    sid_of = {test.__self__: sid for sid, test in enumerate(pats.tests)}
    reps = {"1": (1,), "?": (0, 1)}
    return {
        sum(((sid_of[spec.regex],) * k for spec, k in zip(p.specs, counts)), ())
        for counts in itertools.product(*(reps[spec.op] for spec in p.specs))
    } - {()}


def shipped_data() -> list:
    return json.loads(resources.files("ordonnance.data").joinpath("patterns_fr.json").read_text())


def corpus_sentences(noise: float) -> list:
    spec = CorpusSpec(n_drug=40, n_posology=120, n_useless=40, seed=3, lexicon_path=default_lexicon_path())
    texts = [noisify(a, noise, i).text for i, a in enumerate(generate(spec))]
    return [s for s in map(sent, texts) if s is not None]


class TestCompiledMatcher:
    def test_default_set_dedupes_to_distinct_specs(self, patterns):
        pats = patterns
        assert sum(len(p.specs) for p in pats.patterns) == 235
        assert len(pats.tests) == 104

    def test_each_spec_compiles_to_one_test_on_the_text(self, patterns):
        # one test per distinct regex, and it is that regex's own fullmatch
        pats = patterns
        regexes = [test.__self__ for test in pats.tests]
        assert len(set(map(id, pats.tests))) == len(set(regexes)) == len(regexes)
        assert set(regexes) == {spec.regex for p in pats.patterns for spec in p.specs}
        for regex, test in zip(regexes, pats.tests):
            assert isinstance(regex, re.Pattern) and test == regex.fullmatch, test
        # every edge of the NFA carries one of them
        edge_tests, seen, todo = set(), set(), [pats.root]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                edge_tests.update(id(test) for test, _ in node.edges)
                todo.extend(child for _, child in node.edges)
        assert edge_tests == set(map(id, pats.tests))

    def test_wildcard_spec_is_decided_by_its_compiled_test(self):
        # ".*" holds for every token, as a token holds no whitespace
        pats = parse_patterns([
            {"id": "gap", "label": "DOSE", "specs": [NUMBER, {"regex": ".*", "op": "?"}, {"regex": "cp"}]},
            {"id": "lead", "label": "COMMENT", "specs": [{"regex": ".*", "op": "?"}, {"regex": "si"}]},
        ])
        (test,) = [test for test in pats.tests if test.__self__.pattern == ".*"]
        s = raw_sent("1 x cp 2 cp un si")
        assert all(test(t) for t in s.tokens)
        # the wildcard leads "lead", so its test is a root edge as well as a later edge of "gap"
        assert test in {t for t, _ in pats.root.edges}
        assert compiled_find_all(pats, s) == brute_force_find_all(pats, s)
        assert [(sp.pattern_id, sp.text) for sp in find_all(pats, s)] == [
            ("gap", "1 x cp"), ("gap", "2 cp"), ("lead", "un si")
        ]

    def test_a_spec_is_its_compiled_regex(self):
        # the same regex with another quantifier is the same spec; with another flag it is not
        pats = parse_patterns([
            {"id": "a", "label": "DOSE", "specs": [{"regex": "cp"}, {"regex": "cp", "op": "?"}]},
            {"id": "b", "label": "DOSE", "specs": [{"regex": "(?i)cp"}, {"regex": "cp"}]},
        ])
        assert [test.__self__ for test in pats.tests] == [re.compile("cp"), re.compile("(?i)cp")]
        # two compiles of one regex are one spec: a compiled regex compares by value
        first = re.compile("[0-9]+")
        re.purge()
        again = re.compile("[0-9]+")
        assert first is not again and first == again
        specs = (TokenSpec(regex=first), TokenSpec(regex=again, op="?"))
        assert len(PatternSet([TokenPattern("c", "DOSE", specs)]).tests) == 1

    def test_quantifier_is_not_part_of_a_spec(self):
        pats = parse_patterns([
            {"id": "a", "label": "DOSE", "specs": [NUMBER, {"regex": "cp"}]},
            {"id": "b", "label": "FREQUENCY", "specs": [NUMBER, {"regex": "cp", "op": "?"}, {**NUMBER, "op": "?"}]},
        ])
        assert len(pats.tests) == 2
        # one root test for the shared first spec, on each chain's entry edge; each chain reuses both specs' tests
        assert len(pats.root.edges) == 2 and len({test for test, _ in pats.root.edges}) == 1
        paths = accept_paths(pats)
        assert {path for path, pid in paths if pid == "a"} == spec_paths(pats, pats.patterns[0])
        s = raw_sent("1 cp 2 3 x")
        assert compiled_find_all(pats, s) == brute_force_find_all(pats, s)
        assert [(sp.pattern_id, sp.text) for sp in find_all(pats, s)] == [("a", "1 cp"), ("b", "1 cp 2"), ("b", "3")]

    def test_patterns_are_indexed_by_first_spec(self, patterns):
        pats = patterns
        assert not any(p.specs[0].op == "?" for p in pats.patterns)  # no shipped pattern starts optional
        # one root edge per pattern, and one distinct root test per distinct first spec,
        # which the start state's moves hold once each
        assert len(pats.root.edges) == len(pats.patterns) == 65
        roots = [test for test, _ in pats.root.edges]
        assert len(set(map(id, roots))) == len({p.specs[0].regex for p in pats.patterns}) == 33
        assert all(any(test is t for t in pats.tests) for test in roots)
        assert [test for test, _ in pats._start.moves] == list(dict.fromkeys(roots))
        paths = accept_paths(pats)
        # every pattern is accepted at the end of each spec sequence it matches, and nowhere else
        assert set(paths) == {(path, p.pattern_id) for p in pats.patterns for path in spec_paths(pats, p)}
        assert max(paths.values()) == 1 and len(paths) == 62 + 3 * 2
        # no two shipped patterns have the same spec sequence
        labels = {p.pattern_id: p.label for p in pats.patterns}
        by_path: dict = {}
        for path, pid in sorted(paths):
            by_path.setdefault(path, []).append(labels[pid])
        assert [v for v in by_path.values() if len(v) > 1] == []

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_default_set_equals_brute_force_on_generated_corpus(self, noise, patterns):
        pats = patterns
        sentences = corpus_sentences(noise)
        assert len(sentences) >= 190
        matched = 0
        for s in sentences:
            got = compiled_find_all(pats, s)
            assert got == brute_force_find_all(pats, s), s.match_text
            matched += bool(got)
        assert matched >= 120

    def test_random_pattern_sets_equal_brute_force(self):
        rng = random.Random(7)
        vocab = ["1", "2", "cp", "mg", "matin", "et", "soir"]
        spec_pool = [
            NUMBER,
            {"regex": "[0-9]+"},
            {"regex": "cp|mg"},
            {"regex": "matin|soir"},
            {"regex": "m.*"},
            {"regex": "et", "op": "?"},
            {**NUMBER, "op": "?"},
            {"regex": "cp", "op": "?"},
            {"regex": "[a-z]+", "op": "?"},
            {"regex": "matin|soir", "op": "?"},
        ]
        leading_optional = shared = 0
        for trial in range(200):
            data = [
                {
                    "id": f"t{trial}-{i}",
                    "label": rng.choice(("DOSE", "FREQUENCY")),
                    "specs": [dict(rng.choice(spec_pool)) for _ in range(rng.randint(1, 4))],
                }
                for i in range(rng.randint(2, 6))
            ]
            pats = parse_patterns(data)
            leading_optional += sum(p.specs[0].op == "?" for p in pats.patterns)
            shared += len(pats.tests) < sum(len(p.specs) for p in pats.patterns)
            for _ in range(3):
                s = raw_sent(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 9))))
                assert compiled_find_all(pats, s) == brute_force_find_all(pats, s), (data, s.match_text)
        assert leading_optional > 50 and shared > 100

    def test_trie_shaped_pattern_sets_equal_brute_force(self):
        """Patterns grown from two stems, so their chains share every prefix shape they can.

        A pattern is a stem, a strict prefix of one, a stem extended, a stem
        with one spec optional, or a stem with an optional first spec, under
        one of two labels; stems share specs, so patterns share prefixes.
        """
        rng = random.Random(23)
        vocab = ["1", "2", "cp", "mg", "matin", "et", "soir", "X", "x"]
        fixed = [
            NUMBER,
            {"regex": "[0-9]"},
            {"regex": "[0-9]+"},
            {"regex": "m.*"},
            {"regex": "(?i)x"},
            {"regex": "cp|mg"},
            {"regex": "matin|soir"},
            {"regex": "et"},
        ]
        stressed: Counter = Counter()
        for trial in range(200):
            stems = [[rng.choice(fixed) for _ in range(rng.randint(1, 3))] for _ in range(2)]
            data = []
            for i in range(rng.randint(3, 8)):
                specs = [dict(spec) for spec in rng.choice(stems)]
                shape = rng.choice(("stem", "prefix", "extend", "optional", "optional-first"))
                if shape == "prefix":
                    specs = specs[: rng.randint(1, len(specs))]
                elif shape == "extend":
                    specs += [dict(rng.choice(fixed)) for _ in range(rng.randint(1, 2))]
                elif shape == "optional":
                    rng.choice(specs)["op"] = "?"
                elif shape == "optional-first":
                    specs[0]["op"] = "?"
                data.append({"id": f"t{trial}-{i}", "label": rng.choice(("DOSE", "FREQUENCY")), "specs": specs})
            pats = parse_patterns(data)

            sequences = [(tuple(spec.regex for spec in p.specs), p.label) for p in pats.patterns if is_fixed(p)]
            optional = [p for p in pats.patterns if not is_fixed(p)]
            pairs = list(itertools.permutations(sequences, 2))
            stressed["shared prefix, two labels"] += any(a[0][0] == b[0][0] and a[1] != b[1] for a, b in pairs)
            stressed["strict prefix"] += any(len(a[0]) < len(b[0]) and b[0][: len(a[0])] == a[0] for a, b in pairs)
            stressed["same sequence"] += any(a[0] == b[0] for a, b in pairs)
            stressed["optional beside fixed"] += any(
                q.specs[0].op == "1" and q.specs[0].regex == seq[0] for q in optional for seq, _ in sequences
            )
            stressed["optional first"] += any(p.specs[0].op == "?" for p in pats.patterns)
            for _ in range(4):
                s = raw_sent(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10))))
                assert compiled_find_all(pats, s) == brute_force_find_all(pats, s), (data, s.match_text)
        assert min(stressed.values()) > 40 and len(stressed) == 5, stressed

    def test_each_transition_is_worked_out_once_then_reused(self, monkeypatch):
        """Every decision counted: each miss and each edge's test.

        Every decision is an edge test inside a miss. From an empty cache, a
        (state, token text) transition is worked out at most once over the
        whole batch, by testing each edge of the state's nodes once; a warm
        repeat of the batch makes no miss and no edge test.
        """
        pats = parse_patterns(shipped_data())
        edge_tests: Counter = Counter()  # edge -> tests in the current miss
        misses: Counter = Counter()  # (state, token text) -> misses
        real_advance = PatternSet._advance
        edge_ids = itertools.count()
        copies: dict = {}  # id of a node -> its instrumented copy, so shared children stay shared

        def counting_edge(test, key):
            def decide(text):
                edge_tests[key] += 1
                return test(text)

            decide.key = key
            return decide

        def instrument(node):
            if id(node) not in copies:
                edges = tuple((counting_edge(test, next(edge_ids)), instrument(child)) for test, child in node.edges)
                copies[id(node)] = dataclasses.replace(node, edges=edges)
            return copies[id(node)]

        def counting_advance(self, state, text):
            misses[state, text] += 1
            edge_tests.clear()
            nxt = real_advance(self, state, text)
            assert edge_tests == Counter(test.key for node in state.nodes for test, _ in node.edges), text
            return nxt

        pats.root = instrument(pats.root)
        pats._flush()
        monkeypatch.setattr(PatternSet, "_advance", counting_advance)
        batch = corpus_sentences(0.1)[40:80]  # posology sentences
        for s in batch:
            find_all(pats, s)
        assert misses and max(misses.values()) == 1
        assert len(misses) == pats._transitions
        misses.clear()
        edge_tests.clear()
        for s in batch:
            find_all(pats, s)
        assert not misses and not edge_tests


class TestFirstSpecScanner:
    """The first-spec scan: the start state's transitions decide first specs of every kind as their regex does."""

    # A regex with a group (a backreference or a named group), a flag other
    # than the default, a global inline flag group, a word alternation, and
    # bare regexes.
    FIRSTS = {
        "backreference": {"regex": r"([0-9])\1"},
        "named-group": {"regex": "(?P<unit>cp|mg)"},
        "ignorecase-flag": {"regex": "(?i)cp"},
        "default-flag-inline": {"regex": "(?u)cp"},
        "verbose-flag": {"regex": "(?x) c p"},
        "number": NUMBER,
        "words": {"regex": "cp|matin"},
        "digits": {"regex": "[0-9]+"},
        "alternation": {"regex": "m.*|cp"},
        "scoped-flag": {"regex": "(?i:cp)"},
        "anchored": {"regex": "^(?:1|2)$"},
    }
    VOCAB = ["11", "12", "1", "2", "1.5", "cp", "CP", "Cp", "mg", "m", "matin", "et", "x"]

    def test_regex_compiled_with_a_flag_matches_as_compiled(self):
        spec = TokenSpec(regex=re.compile("cp", re.IGNORECASE))
        pats = PatternSet([TokenPattern("i", "DOSE", (spec,))])
        assert [sp.text for sp in find_all(pats, raw_sent("CP cp mg"))] == ["CP", "cp"]

    def test_one_regex_starting_patterns_of_two_labels(self):
        pats = parse_patterns([
            {"id": "d", "label": "DOSE", "specs": [{"regex": "[0-9]+"}, {"regex": "cp"}]},
            {"id": "f", "label": "FREQUENCY", "specs": [{"regex": "[0-9]+"}, {"regex": "x"}]},
        ])
        # one root test, on each chain's entry edge: the start state's one move enters both chains
        (dose, _), (freq, _) = pats.root.edges
        assert dose is freq
        ((_, children),) = pats._start.moves
        assert [child.edges[0][1].accepts[0].label for child in children] == ["DOSE", "FREQUENCY"]
        spans = find_all(pats, raw_sent("2 cp 3 x"))
        assert [(sp.label, sp.text) for sp in spans] == [("DOSE", "2 cp"), ("FREQUENCY", "3 x")]

    def test_random_first_specs_equal_brute_force(self):
        rng = random.Random(11)
        firsts = list(self.FIRSTS.values())
        firsts += [{"regex": "et", "op": "?"}, {"regex": "[0-9]+", "op": "?"}, {"regex": "m.*|cp", "op": "?"}]
        later = firsts + [{"regex": "cp", "op": "?"}]
        leading_optional = root_edges = first_later = 0
        for trial in range(200):
            data = [
                {
                    "id": f"t{trial}-{i}",
                    "label": rng.choice(LABELS),
                    "specs": [dict(rng.choice(firsts))] + [dict(rng.choice(later)) for _ in range(rng.randint(0, 3))],
                }
                for i in range(rng.randint(2, 7))
            ]
            pats = parse_patterns(data)
            leading_optional += sum(p.specs[0].op == "?" for p in pats.patterns)
            root_edges += len(pats.root.edges)
            # a spec that starts one pattern and comes later in one
            later_specs = {spec.regex for p in pats.patterns for spec in p.specs[1:]}
            first_later += not later_specs.isdisjoint(p.specs[0].regex for p in pats.patterns)
            for _ in range(3):
                s = raw_sent(" ".join(rng.choice(self.VOCAB) for _ in range(rng.randint(1, 9))))
                assert compiled_find_all(pats, s) == brute_force_find_all(pats, s), (data, s.match_text)
        assert leading_optional > 50 and root_edges > 500 and first_later > 80, (leading_optional, root_edges, first_later)


# Regexes of a drawn spec; ".*" is the wildcard, which holds for any token.
DRAWN_CONSTRAINTS = [{"regex": "cp|mg"}, {"regex": "x"}, NUMBER, {"regex": "m.*"}, {"regex": ".*"}]


@st.composite
def drawn_specs(draw) -> dict:
    return {**draw(st.sampled_from(DRAWN_CONSTRAINTS)), "op": draw(st.sampled_from("1?"))}


DRAWN_PATTERN_SETS = st.lists(
    st.tuples(st.sampled_from(("DOSE", "FREQUENCY")), st.lists(drawn_specs(), min_size=1, max_size=4)),
    min_size=1,
    max_size=4,
).map(lambda pats: [{"id": f"p{i}", "label": label, "specs": specs} for i, (label, specs) in enumerate(pats)])
DRAWN_WORDS = st.lists(st.sampled_from(["1", "2", "cp", "mg", "x", "matin", "et"]), min_size=1, max_size=14)


class TestMatcherProperty:
    """``find_all`` over drawn pattern sets (both ops, wildcards, two labels) equals the brute-force oracle."""

    @given(DRAWN_PATTERN_SETS, DRAWN_WORDS)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_find_all_equals_brute_force(self, data, words):
        pats = parse_patterns(data)
        s = raw_sent(" ".join(words))
        assert compiled_find_all(pats, s) == brute_force_find_all(pats, s)

    @given(DRAWN_PATTERN_SETS, DRAWN_WORDS)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_residual_is_the_tokens_outside_every_entity(self, data, words):
        pats = parse_patterns(data)
        s = raw_sent(" ".join(words))
        ext = extract_posology(s, pats)
        assert ext.entities == tuple(find_all(pats, s))
        covered = {i for e in ext.entities for i in range(e.start_token, e.end_token)}
        assert ext.residual_text == " ".join(t for i, t in enumerate(s.tokens) if i not in covered)


class TestFindAll:
    def make_set(self, *patterns_):
        return PatternSet(patterns_)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_a_span_carries_its_characters(self, noise, patterns):
        spans = 0
        for s in corpus_sentences(noise):
            for sp in find_all(patterns, s):
                assert (sp.char_start, sp.char_end) == s.char_span(sp.start_token, sp.end_token)
                assert sp.text == s.match_text[sp.char_start : sp.char_end]
                spans += 1
        assert spans >= 200

    def test_longest_same_label_wins(self):
        p1 = pattern("short", "DOSE", NUMBER, {"regex": "cp"})
        p2 = pattern("long", "DOSE", NUMBER, {"regex": "cp"}, {"regex": "matin"})
        spans = find_all(self.make_set(p1, p2), sent("1 cp matin"))
        assert len(spans) == 1
        assert spans[0].pattern_id == "long"

    def test_disjoint_labels_both_kept(self):
        p1 = pattern("d", "DOSE", NUMBER, {"regex": "cp"})
        p2 = pattern("f", "FREQUENCY", {"regex": "matin"}, {"regex": "et"}, {"regex": "soir"})
        spans = find_all(self.make_set(p1, p2), sent("1 cp matin et soir"))
        assert {s.label for s in spans} == {"DOSE", "FREQUENCY"}

    def test_identical_spans_collapse(self):
        p1 = pattern("a", "DOSE", NUMBER, {"regex": "cp"})
        p2 = pattern("b", "DOSE", {"regex": "[0-9]+"}, {"regex": "cp"})
        spans = find_all(self.make_set(p1, p2), sent("1 cp"))
        assert len(spans) == 1
        assert spans[0].pattern_id == "a"

    def test_a_pattern_resumes_after_its_own_last_match(self):
        # "x x" matches at 1 and would match again at 2, inside its own match:
        # only the first is its match, and "a x" outranks that one
        head = pattern("head", "DOSE", {"regex": "a"}, {"regex": "x"})
        pair = pattern("pair", "DOSE", {"regex": "x"}, {"regex": "x"})
        spans = find_all(self.make_set(head, pair), raw_sent("a x x x"))
        assert [(s.pattern_id, s.start_token, s.end_token) for s in spans] == [("head", 0, 2)]

    def test_cross_label_overlap_kept(self):
        p1 = pattern("d", "DOSE", {"regex": "[0-9](?:-[0-9]){1,3}"})
        p2 = pattern("f", "FREQUENCY", {"regex": "[0-9](?:-[0-9]){1,3}"})
        spans = find_all(self.make_set(p1, p2), sent("1-0-1"))
        assert len(spans) == 2
        assert {s.label for s in spans} == {"DOSE", "FREQUENCY"}
        assert spans[0].start_token == spans[1].start_token


class TestDfaCache:
    """The DFA cache changes how often edges are tested, never a match."""

    @staticmethod
    def matches(pats, sentences) -> list:
        return [[(sp.start_token, sp.end_token, sp.pattern_id) for sp in find_all(pats, s)] for s in sentences]

    def test_a_cap_of_one_an_unbounded_cache_and_flushes_give_the_same_matches(self, monkeypatch):
        sentences = corpus_sentences(0.1)
        flushes: Counter = Counter()
        real_flush = PatternSet._flush

        def counting_flush(self):
            flushes[self] += 1
            real_flush(self)

        monkeypatch.setattr(PatternSet, "_flush", counting_flush)
        got, flushed = {}, {}
        for cap in (1, 40, sys.maxsize):
            monkeypatch.setattr("ordonnance.patterns.MAX_TRANSITIONS", cap)
            pats = parse_patterns(shipped_data())
            got[cap] = []
            for s in sentences:
                got[cap] += self.matches(pats, [s])
                assert pats._transitions <= cap
            flushed[cap] = flushes[pats] - 1  # the first flush builds the empty cache
        assert got[1] == got[40] == got[sys.maxsize]
        assert sum(map(bool, got[1])) >= 120
        assert flushed[1] > flushed[40] > 10 and flushed[sys.maxsize] == 0, flushed

    def test_a_state_holds_each_node_once(self):
        # the chain of "x? x? x? x?" shares children: without deduplication a
        # state would hold a node once per path to it, doubling per optional spec;
        # a first "x" enters the four nodes after each "x?" through the root
        pats = parse_patterns([
            {"id": "xs", "label": "DOSE", "specs": [{"regex": "x", "op": "?"}] * 4 + [{"regex": "cp"}]}
        ])
        s = raw_sent("x " * 20 + "cp")
        assert compiled_find_all(pats, s) == brute_force_find_all(pats, s) == [(16, 21, "DOSE", "xs")]
        for state in pats._states.values():
            assert len(set(state.nodes)) == len(state.nodes) <= 4
        assert pats._transitions <= 30

    def test_a_pattern_accepted_twice_in_a_state_matches_once(self):
        # after "x y", the nodes after each "y?" both accept the pattern
        pats = parse_patterns([
            {"id": "xyy", "label": "DOSE", "specs": [{"regex": "x"}] + [{"regex": "y", "op": "?"}] * 2}
        ])
        s = raw_sent("x y x y y y x")
        assert compiled_find_all(pats, s) == brute_force_find_all(pats, s) == [
            (0, 2, "DOSE", "xyy"), (2, 5, "DOSE", "xyy"), (6, 7, "DOSE", "xyy")
        ]
        assert any(len(state.accepts) == 2 for state in pats._states.values())

    def test_a_miss_runs_each_distinct_test_once(self, monkeypatch):
        # 16 "NUMBER?" specs compile to one test, which every folded closure
        # repeats: a miss walks up to a hundred edges but decides the text once
        specs = [{**NUMBER, "op": "?"}] * MAX_SPECS
        pats = parse_patterns([{"id": "long", "label": "DOSE", "specs": specs}])
        (fullmatch,) = pats.tests
        calls = []

        def counting_test(text):
            calls.append(text)
            return fullmatch(text)

        copies: dict = {}  # id of a node -> its copy testing by counting_test, so shared children stay shared

        def instrument(node):
            if id(node) not in copies:
                assert all(test is fullmatch for test, _ in node.edges)
                edges = tuple((counting_test, instrument(child)) for _, child in node.edges)
                copies[id(node)] = dataclasses.replace(node, edges=edges)
            return copies[id(node)]

        pats.root = instrument(pats.root)
        pats._flush()
        per_miss = []  # (calls made, distinct tests on the state's edges)
        advance = pats._advance

        def counting_advance(state, text):
            before = len(calls)
            nxt = advance(state, text)
            per_miss.append((len(calls) - before, len({test for node in state.nodes for test, _ in node.edges})))
            return nxt

        monkeypatch.setattr(pats, "_advance", counting_advance)
        s = raw_sent(" ".join(str(i) for i in range(41)))
        assert [(sp.start_token, sp.end_token) for sp in find_all(pats, s)] == [(0, 16), (16, 32), (32, 41)]
        assert len(per_miss) > 500 and all(made == distinct for made, distinct in per_miss)
        assert len(calls) == sum(distinct for _, distinct in per_miss) <= len(per_miss)

    @staticmethod
    def assert_moves_group_edges(pats):
        """Each state's moves list each distinct test on its nodes' edges once, with the children it leads to, each once."""
        for state in pats._states.values():
            grouped: dict = {}
            for node in state.nodes:
                for test, child in node.edges:
                    grouped.setdefault(test, []).append(child)
            assert [test for test, _ in state.moves] == list(grouped)
            for test, children in state.moves:
                assert children == tuple(dict.fromkeys(grouped[test]))
            # a node is entered by one spec's test, so no two moves lead to one child
            reached = [child for _, children in state.moves for child in children]
            assert len(set(reached)) == len(reached)

    def test_each_state_groups_its_moves_once(self):
        pats = parse_patterns(shipped_data())
        self.matches(pats, corpus_sentences(0.1))
        assert len(pats._states) > 100
        self.assert_moves_group_edges(pats)
        long = parse_patterns([{"id": "long", "label": "DOSE", "specs": [{**NUMBER, "op": "?"}] * MAX_SPECS}])
        find_all(long, raw_sent(" ".join(str(i) for i in range(20))))
        # over a hundred folded edges in a state, one move; none past the chain's end
        assert all(len(state.moves) == any(node.edges for node in state.nodes) for state in long._states.values())
        assert max(sum(len(node.edges) for node in state.nodes) for state in long._states.values()) > 100
        self.assert_moves_group_edges(long)

    def test_two_sets_never_share_states(self):
        sentences = corpus_sentences(0.0)
        first, second = parse_patterns(shipped_data()), parse_patterns(shipped_data())
        assert self.matches(first, sentences) == self.matches(second, sentences)
        for pats, other in ((first, second), (second, first)):
            own = {id(state) for state in pats._states.values()}
            assert len(own) > 100 and own.isdisjoint(id(state) for state in other._states.values())
            other_nodes = {node for state in other._states.values() for node in state.nodes}
            for state in pats._states.values():
                assert all(nxt is None or id(nxt) in own for nxt in state.next.values())
                assert other_nodes.isdisjoint(state.nodes)


class TestPatternFile:
    def test_default_set_loads_with_inventory(self, patterns):
        per_label = Counter(p.label for p in patterns.patterns)
        assert per_label == {"DOSE": 8, "FREQUENCY": 25, "DURATION": 7, "COMMENT": 25}

    def test_duplicate_id_rejected(self):
        data = [
            {"id": "a", "label": "DOSE", "specs": [NUMBER]},
            {"id": "a", "label": "DOSE", "specs": [{"regex": "[0-9]+"}]},
        ]
        with pytest.raises(PatternError):
            parse_patterns(data)

    def test_bad_label_rejected(self):
        with pytest.raises(PatternError):
            parse_patterns([{"id": "a", "label": "NOPE", "specs": [NUMBER]}])

    def test_empty_specs_rejected(self):
        with pytest.raises(PatternError):
            parse_patterns([{"id": "a", "label": "DOSE", "specs": []}])

    def test_a_spec_holds_a_regex_and_a_quantifier(self):
        assert [f.name for f in dataclasses.fields(TokenSpec)] == ["regex", "op"]

    def test_the_shipped_specs_test_by_regex(self):
        kinds = Counter(key for p in shipped_data() for spec in p["specs"] for key in spec if key != "op")
        assert kinds == {"regex": 235}

    @pytest.mark.parametrize("pid, index, words", [
        ("dose-demi-comprime", 0, {"un", "une"}), ("dose-form-de-mass", 4, {"mg", "g"}), ("freq-matin-midi-soir", 1, {","}),
    ])
    def test_a_shipped_word_alternation_holds_for_its_words_alone(self, patterns, pid, index, words):
        # the three specs once written as word lists hold for those words and no other corpus token
        (p,) = [p for p in patterns.patterns if p.pattern_id == pid]
        vocabulary = {t for noise in (0.0, 0.1) for s in corpus_sentences(noise) for t in s.tokens}
        assert len(vocabulary) > 300
        assert {t for t in vocabulary | words if holds(p.specs[index], t)} == words

    def test_bad_regex_rejected(self):
        with pytest.raises(PatternError):
            parse_patterns([{"id": "a", "label": "DOSE", "specs": [{"regex": "("}]}])

    # each refusal of one spec, the second of its pattern's specs, as the pattern file's author sees it
    @pytest.mark.parametrize("spec, message", [
        ("soir", "patterns[0].specs[1]: spec must be an object"),
        ({**NUMBER, "case": "lower"}, "patterns[0].specs[1]: unknown spec fields ['case']"),
        ({"lower": ["un", "une"]}, "patterns[0].specs[1]: unknown spec fields ['lower']"),
        ({}, "patterns[0].specs[1].regex: expected string"),
        ({"op": "?"}, "patterns[0].specs[1].regex: expected string"),
        ({"regex": 5}, "patterns[0].specs[1].regex: expected string"),
        ({"is_digit": True}, "patterns[0].specs[1]: unknown spec fields ['is_digit']"),
        ({"like_num": True}, "patterns[0].specs[1]: unknown spec fields ['like_num']"),
        ({**NUMBER, "op": "{2}"}, "patterns[0].specs[1].op: '{2}' not one of 1 ?"),
        ({"regex": "x", "op": "+"}, "patterns[0].specs[1].op: '+' not one of 1 ?"),
        ({"regex": "x", "op": "*"}, "patterns[0].specs[1].op: '*' not one of 1 ?"),
    ], ids=["not-an-object", "unknown-field", "word-list", "regex-missing", "optional-regex-missing",
            "regex-not-a-string", "is-digit-unknown", "like-num-unknown", "unknown-op", "plus-op", "star-op"])
    def test_a_bad_spec_is_named_by_its_place(self, spec, message):
        with pytest.raises(PatternError) as info:
            parse_patterns([{"id": "a", "label": "DOSE", "specs": [NUMBER, spec]}])
        assert str(info.value) == message

    @pytest.mark.parametrize("data, message", [
        ({"id": "a", "label": "DOSE", "specs": [NUMBER]}, "pattern file must contain a JSON list"),
        ([{"id": "a", "label": "DOSE", "specs": [NUMBER]}, "b"], "patterns[1]: expected object"),
        ([{"label": "DOSE", "specs": [NUMBER]}], "patterns[0].id: expected non-empty string"),
        ([{"id": "", "label": "DOSE", "specs": [NUMBER]}], "patterns[0].id: expected non-empty string"),
        ([], "a pattern set holds no patterns"),
        ([{"id": "a", "lable": "DOSE", "label": "DOSE", "specs": [NUMBER]}], "patterns[0]: unknown pattern fields ['lable']"),
        ([{"id": "a", "label": "DOSE", "specs": [NUMBER], "op": "?"}], "patterns[0]: unknown pattern fields ['op']"),
    ], ids=["not-a-list", "pattern-not-an-object", "id-missing", "id-empty", "no-patterns", "lable-unknown",
            "op-unknown"])
    def test_a_bad_pattern_file_is_named_by_its_place(self, data, message):
        with pytest.raises(PatternError) as info:
            parse_patterns(data)
        assert str(info.value) == message

    def test_pattern_of_max_specs_loads(self):
        specs = [{**NUMBER, "op": "?"}] * MAX_SPECS
        pats = parse_patterns([{"id": "long", "label": "DOSE", "specs": specs}])
        assert MAX_SPECS == 16 and len(pats.patterns[0].specs) == 16
        assert [sp.text for sp in find_all(pats, raw_sent("1 2 3 cp 4"))] == ["1 2 3", "4"]

    def test_pattern_over_max_specs_rejected(self):
        specs = [{**NUMBER, "op": "?"}] * (MAX_SPECS + 1)
        with pytest.raises(PatternError, match="'too-long' has 17 specs"):
            parse_patterns([
                {"id": "ok", "label": "DOSE", "specs": specs[:1]},
                {"id": "too-long", "label": "DOSE", "specs": specs},
            ])
        spec = TokenSpec(regex=re.compile(NUMBER["regex"]))
        with pytest.raises(PatternError, match="'direct' has 17 specs"):
            PatternSet([TokenPattern("direct", "DOSE", (spec,) * 17)])

    def test_op_defaults_to_one(self):
        p = parse_patterns([{"id": "a", "label": "DOSE", "specs": [NUMBER]}]).patterns[0]
        assert p.specs[0].op == "1"

    def test_the_shipped_set_states_each_alternative_once(self, patterns):
        """No two shipped patterns could merge into one.

        Two patterns of one label and length, every spec "1", that differ in
        one spec match what one pattern does whose spec there joins both
        alternatives, as long as two of its own matches can never overlap.
        Every such pair in the shipped set met that condition, so none is
        kept apart.
        """
        mergeable = [
            (p.pattern_id, q.pattern_id)
            for p, q in itertools.combinations(filter(is_fixed, patterns.patterns), 2)
            if p.label == q.label and len(p.specs) == len(q.specs)
            and sum(a.regex != b.regex for a, b in zip(p.specs, q.specs)) == 1
        ]
        assert mergeable == []

    def test_the_shipped_specs_take_one_token_or_an_optional_one(self):
        assert {spec.get("op", "1") for p in shipped_data() for spec in p["specs"]} <= {"1", "?"}
