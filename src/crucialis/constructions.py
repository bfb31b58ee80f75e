"""Explicit families of crucial words and the length bounds they witness.

Each constructor returns a crucial word over {1..n} for its exponent, built
by the recipe that proves the corresponding length bound:

- zimin / zimink: X_i = (X_{i-1} i)^{k-1} X_{i-1}, length k^n - 1.
- doublingk (exponent k >= 3): grow from 1^{k-1} by bumping every letter
  and re-inserting ones, length k (k-1)^{n-1} - 1; doubling is its k = 3
  member, length 3 * 2^{n-1} - 1.
- wn (exponent 3, length 9n - 10) and the recursion wnk lifting it to any
  exponent k >= 3 with length k^2 (n-1) - 1.
- dnk: the recursion lifting the exponent-2 base to any exponent, length
  k^2 (n-1) - k - 1. dn (4n - 7) and en (9n - 13) are its k = 2 and k = 3
  members.
- smallopt: stored minimal-length words for exponent 3 over 1..4 letters.

bounds(n, k) combines the known lower bounds with the best constructed upper
bound and reports the exact minimal length where it is settled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .words import MAX_ALPHABET, Word, _word_of

DEFAULT_LENGTH_CAP = 1_000_000


def _guard_length(length: int, length_cap: int) -> None:
    if length > length_cap:
        raise CapacityError(f"construction length {length} exceeds cap {length_cap}")


def _built(letters: list[int], n: int) -> Word:
    """The word a recipe built: its letters lie in 1..n by construction, so
    only the alphabet is checked."""
    if n > MAX_ALPHABET:
        raise DomainError(f"alphabet_size must be in 1..{MAX_ALPHABET}, got {n}")
    return _word_of(tuple(letters), n)


# length formulas, shared by the constructors' guards, bounds and family_length
def _zimin_length(n: int, k: int) -> int:
    return k**n - 1


def _doubling_length(n: int, k: int) -> int:
    return k * (k - 1) ** (n - 1) - 1


def _w_length(n: int, k: int) -> int:
    return k * k * (n - 1) - 1


def _d_length(n: int, k: int) -> int:
    return k * k * (n - 1) - k - 1


def construct_zimin(n: int, k: int = 2, length_cap: int = DEFAULT_LENGTH_CAP) -> Word:
    """X_1 = 1^{k-1}, X_i = (X_{i-1} i)^{k-1} X_{i-1}; length k^n - 1."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    _guard_length(_zimin_length(n, k), length_cap)
    word: list[int] = [1] * (k - 1)
    for i in range(2, n + 1):
        word = (word + [i]) * (k - 1) + word
    return _built(word, n)


def construct_doubling_k(n: int, k: int, length_cap: int = DEFAULT_LENGTH_CAP) -> Word:
    """Exponent-k generalisation of the doubling family, k >= 3.

    Start from 1^{k-1}. Each step bumps every letter by one, inserts k-2 ones
    after each letter, and one extra 1 after each of the last k-2 letters.
    Length k (k-1)^{n-1} - 1.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if k < 3:
        raise DomainError(f"doubling family needs k >= 3, got {k}")
    _guard_length(_doubling_length(n, k), length_cap)
    word = [1] * (k - 1)
    for _ in range(2, n + 1):
        nxt: list[int] = []
        last = len(word) - (k - 2)
        for pos, a in enumerate(word):
            nxt.append(a + 1)
            nxt.extend([1] * (k - 2))
            if pos >= last:
                nxt.append(1)
        word = nxt
    return _built(word, n)


def _blocks_w3(n: int) -> list[list[int]]:
    """The three blocks of the exponent-3 word of length 9n - 10 (last block
    short by one; appending n completes the cube)."""
    b1: list[int] = []
    for i in range(n - 1, 0, -1):
        b1.extend((i, i + 1, i + 1))
    b2: list[int] = [n]
    for x in range(n - 1, 1, -1):
        b2.extend((x, x))
    b2.append(1)
    b2.extend(range(n, 1, -1))
    b3: list[int] = list(range(n - 1, 0, -1))
    for x in range(2, n):
        b3.extend((x, x))
    b3.append(n)
    return [b1, b2, b3]


def _dup_rightmost(block: list[int], letters: set[int]) -> list[int]:
    """Duplicate the rightmost occurrence of each letter that occurs."""
    pending = set(letters)
    out: list[int] = []
    for a in reversed(block):
        out.append(a)
        if a in pending:
            out.append(a)
            pending.discard(a)
    out.reverse()
    return out


def construct_W(n: int, k: int = 3, length_cap: int = DEFAULT_LENGTH_CAP) -> Word:
    """Crucial word of length k^2 (n-1) - 1 for exponent k >= 3, n >= 4.

    For k = 3 the word has explicit blocks of total length 9n - 10. Each
    increment of k duplicates the rightmost occurrence of every letter except
    1 inside each block and splices in a fresh second block, a copy of the old
    first block followed by n..2.
    """
    if n < 4:
        raise DomainError(f"need n >= 4, got {n}")
    if k < 3:
        raise DomainError(f"need k >= 3, got {k}")
    _guard_length(_w_length(n, k), length_cap)
    blocks = _blocks_w3(n)
    dup = set(range(2, n + 1))
    for _ in range(3, k):
        second = list(blocks[0]) + list(range(n, 1, -1))
        grown = [_dup_rightmost(b, dup) for b in blocks]
        blocks = [grown[0], second] + grown[1:]
    return _built([a for b in blocks for a in b], n)


def _blocks_d2(n: int) -> list[list[int]]:
    """Two blocks of the exponent-2 word of length 4n - 7 (second short by one)."""
    b1: list[int] = []
    for i in range(n - 1, 1, -1):
        b1.extend((i, i + 1))
    b1.append(1)
    b2: list[int] = list(range(n - 1, 1, -1))
    b2.extend(range(3, n))
    b2.append(1)
    return [b1, b2]


def construct_D(n: int, k: int = 2, length_cap: int = DEFAULT_LENGTH_CAP) -> Word:
    """Crucial word of length k^2 (n-1) - k - 1 for exponent k >= 2, n >= 4.

    The k = 2 base has explicit blocks of total length 4n - 7. Each increment
    of k duplicates the rightmost occurrence of every letter other than 2
    inside each block, splices in a fresh second block (a copy of the old
    first block followed by 1 then 3..n), and, when the last block still
    lacks the letter n, inserts n just before its leftmost 1. At k = 3 this
    is the cube family en, of length 9n - 13.
    """
    if n < 4:
        raise DomainError(f"need n >= 4, got {n}")
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    _guard_length(_d_length(n, k), length_cap)
    blocks = _blocks_d2(n)
    dup = {1} | set(range(3, n + 1))
    for _ in range(2, k):
        second = list(blocks[0]) + [1] + list(range(3, n + 1))
        grown = [_dup_rightmost(b, dup) for b in blocks]
        if n not in grown[-1]:
            grown[-1].insert(grown[-1].index(1), n)
        blocks = [grown[0], second] + grown[1:]
    return _built([a for b in blocks for a in b], n)


_OPTIMAL_SMALL = {
    1: (1, 1),
    2: (2, 1, 2, 1, 1),
    3: (1, 1, 2, 3, 1, 3, 2, 1, 2, 1, 1),
    4: (4, 2, 1, 3, 1, 2, 1, 4, 2, 3, 1, 2, 1, 1, 3, 2, 1, 2, 1, 1),
}


def optimal_small_word(n: int) -> Word:
    """A minimal-length crucial word for exponent 3 over n <= 4 letters."""
    if n not in _OPTIMAL_SMALL:
        raise DomainError(f"minimal words are stored for 1 <= n <= 4, got {n}")
    return _word_of(_OPTIMAL_SMALL[n], n)


def greedy_length(n: int) -> int:
    """Length of the exponent-3 word the letter-greedy scheme reaches.

    2, 5, 11, 20, 38, 65, ... ; optimal up to four letters, longer after.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    total = sum(2 * 3**j for j in range((n - 1) // 2 + 1))
    total += sum(3**j for j in range(1, n // 2 + 1))
    return total


class FamilyId(enum.Enum):
    """Construction families, by CLI name."""

    ZIMIN = "zimin"
    ZIMIN_K = "zimink"
    DOUBLING = "doubling"
    DOUBLING_K = "doublingk"
    WN = "wn"
    WN_K = "wnk"
    DN = "dn"
    EN = "en"
    DN_K = "dnk"
    SMALLOPT = "smallopt"


# family -> (fixed exponent or None, builder taking (n, k), length formula)
_FAMILY_TABLE = {
    FamilyId.ZIMIN: (2, construct_zimin, _zimin_length),
    FamilyId.ZIMIN_K: (None, construct_zimin, _zimin_length),
    FamilyId.DOUBLING: (3, construct_doubling_k, _doubling_length),
    FamilyId.DOUBLING_K: (None, construct_doubling_k, _doubling_length),
    FamilyId.WN: (3, construct_W, _w_length),
    FamilyId.WN_K: (None, construct_W, _w_length),
    FamilyId.DN: (2, construct_D, _d_length),
    FamilyId.EN: (3, construct_D, _d_length),
    FamilyId.DN_K: (None, construct_D, _d_length),
    FamilyId.SMALLOPT: (
        3,
        lambda n, k: optimal_small_word(n),
        lambda n, k: len(optimal_small_word(n)),
    ),
}


def family_exponent(family: FamilyId) -> int | None:
    """The exponent a family is fixed to, or None when it takes k freely."""
    return _FAMILY_TABLE[family][0]


def _exponent_for(family: FamilyId, k: int | None) -> int:
    fixed = _FAMILY_TABLE[family][0]
    if fixed is not None:
        if k is not None and k != fixed:
            raise DomainError(f"family {family.value} is fixed to exponent {fixed}, got k={k}")
        return fixed
    if k is None:
        raise DomainError(f"family {family.value} requires an exponent k")
    return k


def construct_family(family: FamilyId, n: int, k: int | None = None) -> Word:
    """Dispatch to the named family's constructor.

    Families with a fixed exponent accept k equal to that exponent or omitted;
    parameterised families require k.
    """
    return _FAMILY_TABLE[family][1](n, _exponent_for(family, k))


def family_length(family: FamilyId, n: int, k: int | None = None) -> int:
    """The length of construct_family(family, n, k), by formula: the word is
    not built, and n, k must lie in the family's domain."""
    return _FAMILY_TABLE[family][2](n, _exponent_for(family, k))


@dataclass(frozen=True)
class Bounds:
    """Best known bracket on the minimal crucial length for (n, k)."""

    lower: int
    upper: int
    exact: int | None
    upper_family: FamilyId


def bounds(n: int, k: int) -> Bounds:
    """Lower and upper bounds on the minimal crucial length, exact when known.

    The upper bound is always witnessed by a construction from FamilyId; ties
    between candidate families keep the first in preference order (dnk, then
    smallopt, doublingk, zimink).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    lower = n * k - 1
    if k == 3 and n >= 5:
        lower = max(lower, 9 * n - 13)
    if k >= 4 and n >= 5:
        lower = max(lower, k * (3 * n - 4) - 1)

    candidates: list[tuple[int, FamilyId]] = []
    if n >= 4:
        candidates.append((_d_length(n, k), FamilyId.DN_K))
    if k == 3 and n <= 4:
        candidates.append((len(_OPTIMAL_SMALL[n]), FamilyId.SMALLOPT))
    if k >= 3:
        candidates.append((_doubling_length(n, k), FamilyId.DOUBLING_K))
    candidates.append((_zimin_length(n, k), FamilyId.ZIMIN_K))
    upper, upper_family = candidates[0]
    for length, fam in candidates[1:]:
        if length < upper:
            upper, upper_family = length, fam

    exact: int | None = None
    if k == 2:
        if n >= 3:
            exact = 4 * n - 7
        elif n == 2:
            exact = 3
    elif k == 3:
        exact = len(_OPTIMAL_SMALL[n]) if n <= 4 else 9 * n - 13
    return Bounds(lower=lower, upper=upper, exact=exact, upper_family=upper_family)
