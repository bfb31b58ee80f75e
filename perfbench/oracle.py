"""Independent checker for abelian k-th powers and cruciality.

Plain letter counting in pure Python. It imports nothing from crucialis, and
nothing outside the standard library, so the benchmark can hold the program's
outputs against it. Words are sequences of ints over the letters 1..n.

A factor is an abelian k-th power when it splits into k consecutive blocks of
equal length with equal letter counts. A word is crucial for k when it has no
such factor but appending any letter 1..n makes its suffix one.

The letter counts of a prefix are kept as one integer, a field of `width`
bits per letter, so the counts of a factor are the difference of two prefix
integers and two factors have equal counts exactly when those differences are
equal. A field holds every count up to 2**width - 1, and a difference of
prefixes never borrows, since each count in it is non-negative.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import eq, sub
from typing import Sequence


def letter_units(n: int, length: int) -> list[int]:
    """units[x] adds one letter x to a count integer, for words of at most
    `length` letters; units[0] is 0."""
    width = (length + 1).bit_length()
    return [0] + [1 << (width * x) for x in range(n)]


def counts(word: Sequence[int], n: int) -> list[int]:
    """Prefix letter counts: item i holds the counts of word[:i]."""
    if len(word) and not (min(word) >= 1 and max(word) <= n):
        raise ValueError(f"letters must lie in 1..{n}")
    units = letter_units(n, len(word) + 1)
    c = [0]
    for a in word:
        c.append(c[-1] + units[a])
    return c


def suffix_block(c: Sequence[int], end: int, k: int, top: int | None = None) -> int | None:
    """Smallest b with k*b <= end such that the k blocks of length b ending at
    `end` have equal letter counts, or None. `top` stands in for c[end], which
    lets a caller test an appended letter without extending the table."""
    hi = c[end] if top is None else top
    for b in range(1, end // k + 1):
        first = hi - c[end - b]
        if all(c[end - j * b] - c[end - (j + 1) * b] == first for j in range(1, k)):
            return b
    return None


def power_free(word: Sequence[int], n: int, k: int) -> bool:
    """True iff no factor of word is an abelian k-th power."""
    c = counts(word, n)
    length = len(word)
    for b in range(1, length // k + 1):
        blocks = list(map(sub, c[b:], c))  # blocks[i] counts word[i:i+b]
        m = length - k * b + 1  # start positions of a k-block factor
        for i in compress(range(m), map(eq, blocks[b : b + m], blocks)):
            if all(blocks[i + j * b] == blocks[i] for j in range(2, k)):
                return False
    return True


def completing_blocks(word: Sequence[int], n: int, k: int) -> list[int | None]:
    """For each letter x, the smallest b such that word.x ends in an abelian
    k-th power with blocks of length b (None when there is none)."""
    c = counts(word, n)
    end = len(word)
    units = letter_units(n, end + 1)
    return [suffix_block(c, end + 1, k, c[end] + units[x]) for x in range(1, n + 1)]


def is_crucial(word: Sequence[int], n: int, k: int) -> bool:
    return len(word) > 0 and power_free(word, n, k) and None not in completing_blocks(word, n, k)


def blocks_equal(word: Sequence[int], start: int, b: int, k: int) -> bool:
    """True iff word[start : start + k*b] is an abelian k-th power of block b."""
    if b < 1 or start < 0 or start + k * b > len(word):
        return False
    first = Counter(word[start : start + b])
    return all(
        Counter(word[start + j * b : start + (j + 1) * b]) == first for j in range(1, k)
    )


def is_canonical(word: Sequence[int]) -> bool:
    """Letters are named in order of first occurrence (1, then 2, ...)."""
    top = 0
    for a in word:
        if a > top + 1:
            return False
        top = max(top, a)
    return True


def chain_renaming(word: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """perm with perm[x-1] the rank of letter x by completing-block length.

    For a crucial word the lengths are distinct, so renaming by rank puts the
    letters in the order of the nested suffix chain D_1 < ... < D_n.
    """
    bs = completing_blocks(word, n, k)
    if None in bs or len(set(bs)) != n:
        raise ValueError("no strictly nested suffix chain")
    order = sorted(range(n), key=lambda x: bs[x])
    perm = [0] * n
    for rank, x in enumerate(order, start=1):
        perm[x] = rank
    return tuple(perm)
