"""String kernels: the hot inner loops of drug-name linking.

``similarity`` scores a lexicon name against a sentence window. It is the
longest-contiguous-match ratio, found by a bit-parallel search (after
Allison & Dix 1986 and Hyyrö 2004) over Python ints used as bit vectors:

- the match matrix of the two strings is one int, bit ``i * stride + j``
  set when ``a[i] == b[j]``, with ``stride = len(b) + 1``. The spare column
  is always clear, so a diagonal run, which steps ``stride + 1`` bits, never
  wraps into the next row;
- if ``x`` marks the starts of the diagonal runs of at least ``k`` cells,
  ``x & (x >> k * step)`` marks those of at least ``2k``. Doubling ``k``
  until nothing is left, then adding the halves back (binary lifting),
  leaves the starts of the longest runs. The lowest set bit is the run
  earliest in ``a``, then in ``b``: the tie-break of the definition;
- the unmatched left and right fragments search the same matrix, masked to
  their sub-rectangle.

Building the matrix takes one Python step per character and costs about as
much as the search, which takes a few big-int operations per block.

``levenshtein_leq1`` verifies the hits of the fuzzy first-token lookup.

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

    stride = lb + 1
    step = stride + 1  # one row down and one column right
    columns: dict[str, int] = {}
    bit = 1
    for ch in b:
        columns[ch] = columns.get(ch, 0) | bit
        bit <<= 1
    matrix = 0
    shift = 0
    for ch in a:
        row = columns.get(ch)
        if row:
            matrix |= row << shift
        shift += stride
    row_starts = ((1 << shift) - 1) // ((1 << stride) - 1)  # bit 0 of every row

    matched = 0
    stack = [(0, la, 0, lb)]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        x = matrix & ((1 << (ahi * stride)) - (1 << (alo * stride))) & (row_starts * ((1 << bhi) - (1 << blo)))
        if not x:
            continue
        halves = []  # starts of runs of at least 1, 2, 4, ... cells
        k = 1
        while True:
            longer = x & (x >> (k * step))
            if not longer:
                break
            halves.append(x)
            x = longer
            k <<= 1
        length = k
        while halves:
            k >>= 1
            longer = x & (halves.pop() >> (length * step))
            if longer:
                x = longer
                length += k
        besti, bestj = divmod((x & -x).bit_length() - 1, stride)
        matched += length
        if alo < besti and blo < bestj:
            stack.append((alo, besti, blo, bestj))
        if besti + length < ahi and bestj + length < bhi:
            stack.append((besti + length, ahi, bestj + length, bhi))
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
