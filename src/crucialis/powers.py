"""Detection of abelian and exact k-th powers in words.

A factor is an abelian k-th power when it splits into k consecutive blocks of
equal length whose Parikh vectors all agree. Detection reports the occurrence
with the smallest end position, ties broken by the smallest block length. That
canonical choice is imposed here for reproducibility; nothing in the
mathematics needs it.

The scan checks only the (start, end) pairs that can bound a power.

Lemma. If the factor (s, e] is an abelian k-th power, the prefix letter counts
at s and at e agree mod k, letter by letter, and e = s (mod k). Every letter
occurs c times in each of the k blocks, so k*c times in the factor; and
e - s = k*b.

So the scan keys each prefix length i by q_i, its letter counts mod k packed
one lane per letter (a lane holds less than k, so it cannot overflow). Equal
keys imply equal lengths mod k as well, since the lanes of q_i sum to i mod k.
The positions with one key form a chain, latest first. The candidates for an
end e are the earlier positions on its chain, and only these get the exact
block check, so a free word costs one key per letter instead of about e/k
block checks per end. No power is missed, by the lemma. A coarser key (a hash
of q, say) would stay sound as long as it keeps e mod k: it only adds
candidates, and the exact check rejects every candidate that is no power. The
key here is q itself, which keeps the candidates few.

Canonical order. Ends are walked in ascending order and the chain of an end
is walked latest start first, which is block length b = (e - s)/k ascending.
The first candidate that passes the exact check is therefore the least
(end, block length) pair, the same occurrence a scan of every pair reports.
Exact powers are abelian powers, so find_exact_power walks the same
candidates and only checks them letter by letter.

Completing letters. Letter x completes R with block length b when x.R[0:t],
t = k*b - 1, is an abelian k-th power; then reverse(R).x ends in one. Let
P[i] be the letter counts of R[0:i]. Block 1 of the power is x.R[0:b-1] and
block 2 is R[b-1:2b-1], so the unit vector of x must equal P[2b-1] - 2*P[b-1].
At most one letter completes at each b: the one that difference names, if
the remaining blocks match too. Packed, the lanes of that difference lie in
[-(b-1), b], a range narrower than 2^shift (2b - 1 <= t <= |R|, and
packed_prefixes widens its lanes to 32 bits from 65,536 letters on), so a
packed difference equals a unit vector only when the count vectors are equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import DomainError
from .words import Word, _Record, _setfield, _word_of, packed_prefixes


class PowerOccurrence(_Record):
    """One occurrence of a (possibly abelian) k-th power factor."""

    start: int
    block_length: int
    exponent: int

    def __init__(self, start: int, block_length: int, exponent: int) -> None:
        _setfield(self, "start", start)
        _setfield(self, "block_length", block_length)
        _setfield(self, "exponent", exponent)

    @property
    def end(self) -> int:
        return self.start + self.block_length * self.exponent

    def factor(self, w: Word) -> Word:
        return _word_of(w.letters[self.start : self.end], w.alphabet_size)


def _require_exponent(k: int) -> None:
    if type(k) is not int:  # a bool or float is no exponent
        raise DomainError(f"exponent k must be an int, got {k!r}")
    if k < 2:
        raise DomainError(f"exponent k must be at least 2, got {k}")


def _candidates(
    letters: Sequence[int], n: int, k: int, lo: int
) -> Iterator[tuple[int, Iterator[int]]]:
    """(end, blocks) for each end, ascending, whose prefix counts mod k match
    an earlier position's; blocks yields the candidate block lengths >= lo in
    ascending order. Ends with no candidate are skipped."""
    shift = (k - 1).bit_length()  # lane a of q holds count[a] < k
    count = [0] * (n + 1)
    q = 0
    last = {0: 0}  # q -> latest position with it
    prev = [-1] * (len(letters) + 1)  # position -> previous one with its q
    for e, a in enumerate(letters, 1):
        c = count[a] + 1
        if c < k:
            count[a] = c
            q += 1 << a * shift
        else:
            count[a] = 0
            q -= (k - 1) << a * shift
        s = prev[e] = last.get(q, -1)
        last[q] = e
        if s >= 0:
            yield e, _chain_blocks(prev, e, s, k, lo)


def _chain_blocks(prev: list[int], end: int, s: int, k: int, lo: int) -> Iterator[int]:
    top = end - k * lo
    while s >= 0:
        if s <= top:
            yield (end - s) // k
        s = prev[s]


def find_abelian_power(
    w: Word, k: int, skip_trivial: bool = False
) -> PowerOccurrence | None:
    """First abelian k-th power by (end position, block length), or None.

    skip_trivial ignores single-letter blocks (b = 1).
    """
    _require_exponent(k)
    p = None  # packed on the first candidate; free words often have none
    for end, blocks in _candidates(w.letters, w.alphabet_size, k, 2 if skip_trivial else 1):
        if p is None:
            p, _ = packed_prefixes(w.letters)
        b = _suffix_power_from_prefixes(p, end, k, blocks)
        if b is not None:
            return PowerOccurrence(end - k * b, b, k)
    return None


def is_abelian_power_free(w: Word, k: int) -> bool:
    return find_abelian_power(w, k) is None


def suffix_abelian_power(w: Word, k: int) -> int | None:
    """Smallest b such that the length-k*b suffix is an abelian k-th power."""
    _require_exponent(k)
    p, _ = packed_prefixes(w.letters)
    m = len(w)
    return _suffix_power_from_prefixes(p, m, k, range(1, m // k + 1))


def _suffix_power_from_prefixes(
    p: list[int], end: int, k: int, blocks: Iterable[int]
) -> int | None:
    """First b in blocks with the factor (end - k*b, end] an abelian k-th power.

    p holds packed prefix Parikh vectors (see packed_prefixes) and is read at
    positions 0..end only; blocks must lie in 1..end//k. This is the one
    block-comparison loop: the suffix tests (here and in the search) pass
    every block length in ascending order, the scan passes the
    candidates its mod-k filter leaves.
    """
    pe = p[end]
    for b in blocks:
        first = pe - p[end - b]
        j = 2
        while j <= k:
            if p[end - (j - 1) * b] - p[end - j * b] != first:
                break
            j += 1
        else:
            return b
    return None


def _completed(P: list[int], t: int, k: int, letter_of: dict[int, int]) -> int:
    """The letter x with x.R[0:t] an abelian k-th power, or 0 if none.

    t must be k-1 (mod k); P holds the packed letter counts of R's prefixes.
    """
    b = (t + 1) // k
    block = P[2 * b - 1] - P[b - 1]
    x = letter_of.get(block - P[b - 1], 0)
    j = 3
    while x and j <= k:
        if P[j * b - 1] - P[(j - 1) * b - 1] != block:
            return 0
        j += 1
    return x


def prefix_completions(R: Sequence[int], n: int, k: int) -> list[int | None]:
    """For each letter x of 1..n, the least b with x.R[0:k*b-1] an abelian
    k-th power, or None if there is none (see "Completing letters" above)."""
    P, shift = packed_prefixes(R)
    letter_of = {1 << (x - 1) * shift: x for x in range(1, n + 1)}
    out: list[int | None] = [None] * n
    for t in range(k - 1, len(R) + 1, k):
        x = _completed(P, t, k, letter_of)
        if x and out[x - 1] is None:
            out[x - 1] = (t + 1) // k
    return out


def find_exact_power(
    w: Word, k: int, skip_trivial: bool = False
) -> PowerOccurrence | None:
    """Like find_abelian_power but blocks must match letter for letter."""
    _require_exponent(k)
    letters = w.letters
    for end, blocks in _candidates(letters, w.alphabet_size, k, 2 if skip_trivial else 1):
        for b in blocks:
            start = end - k * b
            if letters[start : end - b] == letters[start + b : end]:
                return PowerOccurrence(start, b, k)
    return None
