"""The per-end power scan, kept as a differential oracle for crucialis.powers.

At every end position, in ascending order, it tries every block length in
ascending order, so it visits all of the (end, block length) pairs the
library's mod-k filter skips. It packs its own prefix counts and keeps its own
copy of the block comparison.
"""

from __future__ import annotations


def packed(letters: tuple[int, ...]) -> list[int]:
    """Prefix letter counts, one lane per letter, lanes wide enough for any count."""
    shift = max(1, len(letters).bit_length())
    P = [0]
    for a in letters:
        P.append(P[-1] + (1 << ((a - 1) * shift)))
    return P


def suffix_power(P: list[int], end: int, k: int, lo: int = 1) -> int | None:
    """Least b >= lo with (end - k*b, end] an abelian k-th power."""
    for b in range(lo, end // k + 1):
        first = P[end] - P[end - b]
        j = 2
        while j <= k and P[end - (j - 1) * b] - P[end - j * b] == first:
            j += 1
        if j > k:
            return b
    return None


def first_abelian_power(letters, k: int, skip_trivial: bool = False) -> tuple[int, int] | None:
    """(start, block length) of the first abelian k-th power by (end, block length)."""
    P = packed(tuple(letters))
    lo = 2 if skip_trivial else 1
    for end in range(k * lo, len(letters) + 1):
        b = suffix_power(P, end, k, lo)
        if b is not None:
            return end - k * b, b
    return None


def first_exact_power(letters, k: int, skip_trivial: bool = False) -> tuple[int, int] | None:
    """(start, block length) of the first exact k-th power, letter by letter."""
    lo = 2 if skip_trivial else 1
    for end in range(k * lo, len(letters) + 1):
        for b in range(lo, end // k + 1):
            start = end - k * b
            if all(letters[i] == letters[i + b] for i in range(start, end - b)):
                return start, b
    return None
