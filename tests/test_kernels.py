"""Oracle tests for the string kernels.

The brute-force oracle below re-implements the similarity definition
directly: enumerate every substring pair to find the longest contiguous
common block (ties: earliest in a, then in b), recurse left and right, and
count matched characters. It shares no code with the optimized kernels.

``reference_similarity`` is the block search the bit-parallel kernel
replaced (a dict of match-run lengths per position of the longer string),
kept verbatim: it is fast enough to check the kernel with ``==`` on long and
non-ASCII strings, where the brute-force oracle is too slow.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordonnance import kernels

# Test ids carry the backend name that kernels.BACKEND reports.
KERNELS = [pytest.param(kernels, id=kernels.BACKEND)]


def oracle_similarity(a: str, b: str) -> float:
    if (len(a), a) > (len(b), b):
        a, b = b, a

    def longest(x, y):
        for k in range(min(len(x), len(y)), 0, -1):
            for i in range(len(x) - k + 1):
                for j in range(len(y) - k + 1):
                    if x[i : i + k] == y[j : j + k]:
                        return k, i, j
        return 0, 0, 0

    def matched(x, y):
        if not x or not y:
            return 0
        k, i, j = longest(x, y)
        if k == 0:
            return 0
        return k + matched(x[:i], y[:j]) + matched(x[i + k :], y[j + k :])

    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2.0 * matched(a, b) / (len(a) + len(b))


def reference_similarity(a: str, b: str) -> float:
    """Longest-contiguous-match similarity ratio in [0, 1].

    Repeatedly extracts the longest contiguous common substring (ties broken
    by the earliest start in the first string, then in the second), recurses
    into the unmatched left and right fragments, and returns 2*M/(len(a)+len(b))
    where M is the total number of matched characters. Two empty strings
    score 1.0; empty against non-empty scores 0.0.

    The block search runs on a canonical argument ordering (shorter string
    first, ties lexicographic) so the result is symmetric; positional
    tie-breaking would otherwise make adversarial pairs order-dependent.
    """
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    if (la, a) > (lb, b):
        a, b = b, a
        la, lb = lb, la

    b2j: dict[str, list[int]] = {}
    for j, ch in enumerate(b):
        b2j.setdefault(ch, []).append(j)

    matched = 0
    stack = [(0, la, 0, lb)]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        besti = alo
        bestj = blo
        bestk = 0
        j2len: dict[int, int] = {}
        for i in range(alo, ahi):
            newj2len: dict[int, int] = {}
            for j in b2j.get(a[i], ()):
                if j < blo:
                    continue
                if j >= bhi:
                    break
                k = j2len.get(j - 1, 0) + 1
                newj2len[j] = k
                if k > bestk:
                    besti, bestj, bestk = i - k + 1, j - k + 1, k
            j2len = newj2len
        if bestk:
            matched += bestk
            if alo < besti and blo < bestj:
                stack.append((alo, besti, blo, bestj))
            if besti + bestk < ahi and bestj + bestk < bhi:
                stack.append((besti + bestk, ahi, bestj + bestk, bhi))
    return 2.0 * matched / (la + lb)


SHORT = st.text(alphabet="abc 1", max_size=8)


@pytest.mark.parametrize("impl", KERNELS)
class TestSimilarity:
    def test_identical(self, impl):
        assert impl.similarity("abc", "abc") == 1.0

    def test_disjoint(self, impl):
        assert impl.similarity("abc", "xyz") == 0.0

    def test_empty_conventions(self, impl):
        assert impl.similarity("", "") == 1.0
        assert impl.similarity("", "abc") == 0.0
        assert impl.similarity("abc", "") == 0.0

    def test_spacing_variant_matches_oracle(self, impl):
        a, b = "doliprane 1000mg", "doliprane 1000 mg"
        expected = oracle_similarity(a, b)
        assert impl.similarity(a, b) == expected
        assert expected == pytest.approx(32 / 33)

    def test_random_pairs_match_oracle(self, impl):
        rng = random.Random(17)
        for _ in range(2000):
            a = "".join(rng.choice("abc 1") for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice("abc 1") for _ in range(rng.randint(0, 8)))
            assert impl.similarity(a, b) == oracle_similarity(a, b), (a, b)

    @given(SHORT, SHORT)
    @settings(max_examples=300, derandomize=True)
    def test_symmetry(self, impl, a, b):
        assert impl.similarity(a, b) == impl.similarity(b, a)

    @given(st.text(alphabet="abcde 12", min_size=1, max_size=20))
    @settings(max_examples=300, derandomize=True)
    def test_self_similarity_is_one(self, impl, a):
        assert impl.similarity(a, a) == 1.0

    @given(SHORT, SHORT)
    @settings(max_examples=300, derandomize=True)
    def test_bounds(self, impl, a, b):
        assert 0.0 <= impl.similarity(a, b) <= 1.0

    def test_unicode_content(self, impl):
        assert impl.similarity("gélule", "gelule") > 0.8


# Cases where a wrong tie-break, argument order or row layout would show:
# equal blocks in either order, repeats, a match at the end of one row and
# the start of the next, and the spacing variant of a drug name.
ADVERSARIAL = [
    ("abc", "abc"),
    ("abc", "xyz"),
    ("", ""),
    ("", "abc"),
    ("doliprane 1000mg", "doliprane 1000 mg"),
    ("ab", "ba"),
    ("abab", "baba"),
    ("aab", "aba"),
    ("aaaa", "aa"),
    ("abcabc", "cbacba"),
    ("abc", "cab"),
    ("abcd", "dabc"),
    ("xyzx", "zxyz"),
    ("abxcd", "cdxab"),
    ("gélule", "gelule"),
    ("x" * 70, "x" * 65 + "y"),
    ("ab" * 40, "ba" * 70),
]


def _exhaustive(alphabet: str, longest: int) -> list[str]:
    strings = [""]
    for n in range(1, longest + 1):
        strings += ["".join(t) for t in itertools.product(alphabet, repeat=n)]
    return strings


SMALL_ALPHABET = st.text(alphabet="ab ", max_size=24)
ACCENTED = st.text(alphabet="aeéèêàçœ €1-", max_size=40)
# other scripts, a combining accent, NBSP and code points beyond the BMP
NON_ASCII = st.text(alphabet="aß€한中ΣЖ\u0301\u00a0😀𝔸 1", max_size=40)
OVER_64 = st.text(alphabet="abcdefgh ", min_size=65, max_size=128)
OVER_128 = st.text(alphabet="abcdefghijklmnop é", min_size=129, max_size=160)
REFERENCE_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


class TestAgainstReference:
    """The bit-parallel kernel returns the replaced kernel's float, in both argument orders."""

    @staticmethod
    def assert_same(a, b):
        assert kernels.similarity(a, b) == reference_similarity(a, b), (a, b)
        assert kernels.similarity(b, a) == reference_similarity(b, a), (b, a)

    @pytest.mark.parametrize("a, b", ADVERSARIAL)
    def test_adversarial_cases(self, a, b):
        self.assert_same(a, b)

    def test_every_pair_of_short_strings(self):
        strings = _exhaustive("ab1", 3) + [s for s in _exhaustive("ab", 4) if len(s) == 4]
        for a in strings:
            for b in strings:
                self.assert_same(a, b)

    @given(SMALL_ALPHABET, SMALL_ALPHABET)
    @REFERENCE_SETTINGS
    def test_small_alphabet(self, a, b):
        self.assert_same(a, b)

    @given(ACCENTED, ACCENTED)
    @REFERENCE_SETTINGS
    def test_accented_text(self, a, b):
        self.assert_same(a, b)

    @given(NON_ASCII, NON_ASCII)
    @REFERENCE_SETTINGS
    def test_non_ascii_text(self, a, b):
        self.assert_same(a, b)

    @given(OVER_64, st.one_of(SMALL_ALPHABET, OVER_64))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_longer_than_64(self, a, b):
        self.assert_same(a, b)

    @given(OVER_128, st.one_of(OVER_64, OVER_128))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_longer_than_128(self, a, b):
        self.assert_same(a, b)


@pytest.mark.parametrize("impl", KERNELS)
class TestLevenshteinLeq1:
    def test_equal(self, impl):
        assert impl.levenshtein_leq1("doliprane", "doliprane")

    def test_substitution(self, impl):
        assert impl.levenshtein_leq1("doliprane", "d0liprane")

    def test_insertion_deletion(self, impl):
        assert impl.levenshtein_leq1("doliprane", "dolipranne")
        assert impl.levenshtein_leq1("doliprane", "dolirane")

    def test_two_edits_rejected(self, impl):
        assert not impl.levenshtein_leq1("doliprane", "dXXiprane")
        assert not impl.levenshtein_leq1("abc", "a")

    @given(st.text(alphabet="ab1", max_size=7), st.text(alphabet="ab1", max_size=7))
    @settings(max_examples=400, derandomize=True)
    def test_matches_true_edit_distance(self, impl, a, b):
        assert impl.levenshtein_leq1(a, b) == (_edit_distance(a, b) <= 1)


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(cur[-1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
