"""Direct recipes of two construction families, kept as test oracles.

The library builds the cube family en as construct_D(n, 3) and doubling as
construct_doubling_k(n, 3), both by recursion on the exponent. The recipes
here write the same words down directly, so they check those recursions
against an independent construction.
"""

from __future__ import annotations

from crucialis.words import Word


def construct_E(n: int) -> Word:
    """Exponent-3 word of length 9n - 13 over n >= 4 letters, from its three blocks."""
    b1: list[int] = []
    for i in range(n - 1, 1, -1):
        b1.extend((i, i + 1, i + 1))
    b1.extend((1, 1))
    b2: list[int] = []
    for i in range(n - 1, 1, -1):
        b2.extend((i, i + 1))
    b2.extend((1, 1))
    b2.extend(range(3, n + 1))
    b3: list[int] = list(range(n - 1, 1, -1))
    for x in range(3, n):
        b3.extend((x, x))
    b3.append(n)
    b3.extend((1, 1))
    return Word(tuple(b1 + b2 + b3), n)


def construct_doubling_cube(n: int) -> Word:
    """Exponent-3 word of length 3 * 2^{n-1} - 1 grown by letter doubling.

    Start from 11. Each step bumps every letter by one, inserts a 1 after
    each, and appends one extra trailing 1.
    """
    word = [1, 1]
    for _ in range(2, n + 1):
        nxt: list[int] = []
        for a in word:
            nxt.extend((a + 1, 1))
        nxt.append(1)
        word = nxt
    return Word(tuple(word), n)
