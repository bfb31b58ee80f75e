"""Forward-direction exhaustive scan, kept as a differential oracle for the engine.

It grows W left to right, cuts any prefix that ends in an abelian k-th power
or can no longer fit every letter, and tests cruciality at each leaf. It
applies neither the length residue nor completion slots, and it scans every
length, so it checks both cuts of crucialis.search against an unpruned scan.
"""

from __future__ import annotations

_SHIFT = 16


def _ends_in_power(P: list[int], top: int, t: int, k: int) -> bool:
    """Whether a word of t letters ends in an abelian k-th power.

    P holds the packed letter counts of its prefixes, except that the count
    of the whole word is `top` rather than P[t].
    """
    for b in range(1, t // k + 1):
        first = top - P[t - b]
        j = 2
        while j <= k and P[t - (j - 1) * b] - P[t - j * b] == first:
            j += 1
        if j > k:
            return True
    return False


def crucial_words(n: int, k: int, L: int, reduction: bool = True) -> list[tuple[int, ...]]:
    """Every crucial word of length L over n letters, in lex order.

    With reduction only canonical words (letters named in order of first
    occurrence) are listed.
    """
    unit = [0] + [1 << ((c - 1) * _SHIFT) for c in range(1, n + 1)]
    P = [0] * (L + 1)
    word = [0] * L
    out: list[tuple[int, ...]] = []

    def dfs(m: int, seen: int) -> None:
        missing = (n - seen) if reduction else (n - bin(seen).count("1"))
        if missing > L - m:
            return
        if m == L:
            if all(_ends_in_power(P, P[L] + unit[x], L + 1, k) for x in range(1, n + 1)):
                out.append(tuple(word))
            return
        lim = min(seen + 1, n) if reduction else n
        for a in range(1, lim + 1):
            pa = P[m] + unit[a]
            if _ends_in_power(P, pa, m + 1, k):
                continue
            P[m + 1] = pa
            word[m] = a
            dfs(m + 1, max(seen, a) if reduction else seen | (1 << (a - 1)))

    dfs(0, 0)
    return out

