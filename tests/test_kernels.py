"""Oracle tests for the string kernels.

The brute-force oracle below re-implements the similarity definition
directly: enumerate every substring pair to find the longest contiguous
common block (ties: earliest in a, then in b), recurse left and right, and
count matched characters. It shares no code with the optimized kernels.
"""

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
    @settings(max_examples=300)
    def test_symmetry(self, impl, a, b):
        assert impl.similarity(a, b) == impl.similarity(b, a)

    @given(st.text(alphabet="abcde 12", min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_self_similarity_is_one(self, impl, a):
        assert impl.similarity(a, a) == 1.0

    @given(SHORT, SHORT)
    @settings(max_examples=300)
    def test_bounds(self, impl, a, b):
        assert 0.0 <= impl.similarity(a, b) <= 1.0

    def test_unicode_content(self, impl):
        assert impl.similarity("gélule", "gelule") > 0.8


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
    @settings(max_examples=400)
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
