"""String kernels: the hot inner loops of drug-name linking.

``druglink`` calls them through this module (``kernels.similarity(...)``),
so a profiler or tracer can wrap the module attributes. ``BACKEND`` names
the implementation in benchmark reports.
"""

from __future__ import annotations

BACKEND = "python"


def similarity(a: str, b: str) -> float:
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


def levenshtein_leq1(a: str, b: str) -> bool:
    """True iff the edit distance between a and b is at most 1."""
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la > 1:
        return False
    if la == lb:
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    # lb == la + 1: one insertion into a
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]
