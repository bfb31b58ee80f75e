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

A family is one row of _FAMILY_TABLE: its builder's recipe (least n, largest
n where there is one, least k, length formula) and the exponent the family is
fixed to, if any. The constructors' guards, construct_family, family_length,
bounds() and `crucialis table families` all read the table, so a new family
is one row plus its builder.

bounds(n, k) combines the known lower bounds with the best constructed upper
bound and reports the exact minimal length where it is settled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import CapacityError, DomainError
from .words import Word, _check, _word_of

DEFAULT_LENGTH_CAP = 1_000_000


class _Recipe(NamedTuple):
    """A builder taking (n, k), its domain and its length formula."""

    build: Callable[[int, int], Word]
    n_min: int
    n_max: int | None  # None: no largest n
    k_min: int
    length: Callable[[int, int], int]


def _require_ints(n: int, k: int) -> None:
    if type(n) is not int or type(k) is not int:  # a bool or float is neither
        raise DomainError(f"n and k must be ints, got n={n!r}, k={k!r}")


def _admit(recipe: _Recipe, n: int, k: int, length_cap: int | None = None) -> int:
    """The length of the recipe's word at (n, k). Raises DomainError outside
    the recipe's domain and CapacityError over length_cap."""
    _require_ints(n, k)
    if not recipe.n_min <= n <= (recipe.n_max or n):
        top = "" if recipe.n_max is None else f" and n <= {recipe.n_max}"
        raise DomainError(f"need n >= {recipe.n_min}{top}, got {n}")
    if k < recipe.k_min:
        raise DomainError(f"need k >= {recipe.k_min}, got {k}")
    length = recipe.length(n, k)
    if length_cap is not None and length > length_cap:
        raise CapacityError(f"construction length {length} exceeds cap {length_cap}")
    return length


def _built(letters: list[int], n: int) -> Word:
    """The word a recipe built: its letters lie in 1..n by construction, so
    only the alphabet is checked."""
    _check((), n)
    return _word_of(tuple(letters), n)


def construct_zimin(n: int, k: int = 2, length_cap: int = DEFAULT_LENGTH_CAP) -> Word:
    """X_1 = 1^{k-1}, X_i = (X_{i-1} i)^{k-1} X_{i-1}; length k^n - 1."""
    _admit(_ZIMIN, n, k, length_cap)
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
    _admit(_DOUBLING, n, k, length_cap)
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


def _lift(blocks: list[list[int]], k: int, dup: set[int], tail: list[int], n: int) -> list[int]:
    """Lift blocks to a k-block word, one block a step: duplicate the rightmost
    dup letters in each block, splice in blocks[0] + tail as the new second
    block, and put n before the last block's leftmost 1 if that block lacks n."""
    for _ in range(len(blocks), k):
        second = blocks[0] + tail
        blocks = [_dup_rightmost(b, dup) for b in blocks]
        if n not in blocks[-1]:
            blocks[-1].insert(blocks[-1].index(1), n)
        blocks.insert(1, second)
    return [a for b in blocks for a in b]


def construct_W(n: int, k: int = 3, length_cap: int = DEFAULT_LENGTH_CAP) -> Word:
    """Crucial word of length k^2 (n-1) - 1 for exponent k >= 3, n >= 4.

    For k = 3 the word has explicit blocks of total length 9n - 10. Each
    increment of k duplicates the rightmost occurrence of every letter except
    1 inside each block and splices in a fresh second block, a copy of the old
    first block followed by n..2. The last block always holds n.
    """
    _admit(_W, n, k, length_cap)
    return _built(_lift(_blocks_w3(n), k, set(range(2, n + 1)), list(range(n, 1, -1)), n), n)


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
    _admit(_D, n, k, length_cap)
    return _built(_lift(_blocks_d2(n), k, {1} | set(range(3, n + 1)), [1, *range(3, n + 1)], n), n)


_OPTIMAL_SMALL = {
    1: (1, 1),
    2: (2, 1, 2, 1, 1),
    3: (1, 1, 2, 3, 1, 3, 2, 1, 2, 1, 1),
    4: (4, 2, 1, 3, 1, 2, 1, 4, 2, 3, 1, 2, 1, 1, 3, 2, 1, 2, 1, 1),
}


def optimal_small_word(n: int) -> Word:
    """A minimal-length crucial word for exponent 3 over n <= 4 letters."""
    _admit(_SMALLOPT, n, 3)
    return _word_of(_OPTIMAL_SMALL[n], n)


def greedy_length(n: int) -> int:
    """Length of the exponent-3 word the letter-greedy scheme reaches.

    2, 5, 11, 20, 38, 65, ... ; optimal up to four letters, longer after.
    """
    if type(n) is not int or n < 1:  # a bool or float is no alphabet size
        raise DomainError(f"need an int n >= 1, got {n!r}")
    total = sum(2 * 3**j for j in range((n - 1) // 2 + 1))
    total += sum(3**j for j in range(1, n // 2 + 1))
    return total


# each builder with its domain (least n, largest n or None, least k) and length
_ZIMIN = _Recipe(construct_zimin, 1, None, 2, lambda n, k: k**n - 1)
_DOUBLING = _Recipe(construct_doubling_k, 1, None, 3, lambda n, k: k * (k - 1) ** (n - 1) - 1)
_W = _Recipe(construct_W, 4, None, 3, lambda n, k: k * k * (n - 1) - 1)
_D = _Recipe(construct_D, 4, None, 2, lambda n, k: k * k * (n - 1) - k - 1)
_SMALLOPT = _Recipe(
    lambda n, k: optimal_small_word(n), 1, 4, 3, lambda n, k: len(_OPTIMAL_SMALL[n])
)


class FamilyId(enum.Enum):
    """Construction families, by CLI name, in `table families` row order."""

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


# family -> (recipe, fixed exponent or None)
_FAMILY_TABLE: dict[FamilyId, tuple[_Recipe, int | None]] = {
    FamilyId.ZIMIN: (_ZIMIN, 2),
    FamilyId.ZIMIN_K: (_ZIMIN, None),
    FamilyId.DOUBLING: (_DOUBLING, 3),
    FamilyId.DOUBLING_K: (_DOUBLING, None),
    FamilyId.WN: (_W, 3),
    FamilyId.WN_K: (_W, None),
    FamilyId.DN: (_D, 2),
    FamilyId.EN: (_D, 3),
    FamilyId.DN_K: (_D, None),
    FamilyId.SMALLOPT: (_SMALLOPT, 3),
}


def family_exponent(family: FamilyId) -> int | None:
    """The exponent a family is fixed to, or None when it takes k freely."""
    return _FAMILY_TABLE[family][1]


def _exponent_for(family: FamilyId, n: int, k: int | None) -> int:
    fixed = _FAMILY_TABLE[family][1]
    if k is None:
        if fixed is None:
            raise DomainError(f"family {family.value} requires an exponent k")
        return fixed
    _require_ints(n, k)  # before the comparison, which 3.0 == 3 would pass
    if fixed not in (None, k):
        raise DomainError(f"family {family.value} is fixed to exponent {fixed}, got k={k}")
    return k


def construct_family(family: FamilyId, n: int, k: int | None = None) -> Word:
    """Dispatch to the named family's constructor.

    Families with a fixed exponent accept k equal to that exponent or omitted;
    parameterised families require k.
    """
    return _FAMILY_TABLE[family][0].build(n, _exponent_for(family, n, k))


def family_length(family: FamilyId, n: int, k: int | None = None) -> int:
    """The length of construct_family(family, n, k), by formula: the word is
    not built. Outside the family's domain it raises DomainError."""
    return _admit(_FAMILY_TABLE[family][0], n, _exponent_for(family, n, k))


def _holds(family: FamilyId, n: int, k: int) -> bool:
    """Whether (n, k) lies in the family's domain."""
    recipe, fixed = _FAMILY_TABLE[family]
    return recipe.n_min <= n <= (recipe.n_max or n) and k >= recipe.k_min and fixed in (None, k)


def _table_cells(n_range, k_range) -> Iterator[tuple[FamilyId, int, int]]:
    """The (family, n, k) rows of `crucialis table families` in the inclusive
    ranges: families in enum order, then n, then k, over each one's domain. A
    free exponent starts one past the least exponent its builder's families fix."""
    for family in FamilyId:
        recipe, fixed = _FAMILY_TABLE[family]
        siblings = (f for r, f in _FAMILY_TABLE.values() if r is recipe and f)
        k_min = fixed or 1 + min(siblings, default=recipe.k_min - 1)
        k_max = fixed or k_range[1]
        n_max = min(n_range[1], recipe.n_max or n_range[1])
        for n in range(max(recipe.n_min, n_range[0]), n_max + 1):
            for k in range(max(k_min, k_range[0]), min(k_max, k_range[1]) + 1):
                yield family, n, k


_UPPER_FAMILIES = (FamilyId.DN_K, FamilyId.SMALLOPT, FamilyId.DOUBLING_K, FamilyId.ZIMIN_K)


@dataclass(frozen=True)
class Bounds:
    """Best known bracket on the minimal crucial length for (n, k)."""

    lower: int
    upper: int
    exact: int | None
    upper_family: FamilyId


def bounds(n: int, k: int) -> Bounds:
    """Lower and upper bounds on the minimal crucial length, exact when known.

    The upper bound is the shortest word of the _UPPER_FAMILIES whose domain
    holds (n, k); ties keep the first in preference order (dnk, then
    smallopt, doublingk, zimink). zimink holds wherever bounds is defined.
    """
    _admit(_ZIMIN, n, k)
    lower = n * k - 1
    if k == 3 and n >= 5:
        lower = max(lower, 9 * n - 13)
    if k >= 4 and n >= 5:
        lower = max(lower, k * (3 * n - 4) - 1)

    upper_family = min(
        (f for f in _UPPER_FAMILIES if _holds(f, n, k)), key=lambda f: family_length(f, n, k)
    )
    upper = family_length(upper_family, n, k)

    exact: int | None = None
    if k == 2:
        if n >= 3:
            exact = 4 * n - 7
        elif n == 2:
            exact = 3
    elif k == 3:
        exact = len(_OPTIMAL_SMALL[n]) if n <= 4 else 9 * n - 13
    return Bounds(lower=lower, upper=upper, exact=exact, upper_family=upper_family)
