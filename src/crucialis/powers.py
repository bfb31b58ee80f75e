"""Detection of abelian and exact k-th powers in words.

A factor is an abelian k-th power when it splits into k consecutive blocks of
equal length whose Parikh vectors all agree. Detection walks candidate end
positions in increasing order with block length increasing inside, so the
reported occurrence is always the one with the smallest end position, ties
broken by the smallest block length. That canonical choice is imposed here for
reproducibility; nothing in the mathematics needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .words import Word, packed_prefixes


@dataclass(frozen=True)
class PowerOccurrence:
    """One occurrence of a (possibly abelian) k-th power factor."""

    start: int
    block_length: int
    exponent: int

    @property
    def end(self) -> int:
        return self.start + self.block_length * self.exponent

    def factor(self, w: Word) -> Word:
        return Word(w.letters[self.start : self.end], w.alphabet_size)


def _require_exponent(k: int) -> None:
    if k < 2:
        raise DomainError(f"exponent k must be at least 2, got {k}")


def find_abelian_power(
    w: Word, k: int, skip_trivial: bool = False
) -> PowerOccurrence | None:
    """First abelian k-th power by (end position, block length), or None.

    skip_trivial ignores single-letter blocks (b = 1).
    """
    _require_exponent(k)
    p, _ = packed_prefixes(w.letters)
    lo = 2 if skip_trivial else 1
    for end in range(k * lo, len(w) + 1):
        b = _suffix_power_from_prefixes(p, end, k, lo)
        if b is not None:
            return PowerOccurrence(end - k * b, b, k)
    return None


def is_abelian_power_free(w: Word, k: int) -> bool:
    return find_abelian_power(w, k) is None


def suffix_abelian_power(w: Word, k: int) -> int | None:
    """Smallest b such that the length-k*b suffix is an abelian k-th power."""
    _require_exponent(k)
    p, _ = packed_prefixes(w.letters)
    return _suffix_power_from_prefixes(p, len(w), k)


def _suffix_power_from_prefixes(p: list[int], end: int, k: int, lo: int = 1) -> int | None:
    """Smallest b >= lo with the factor (end - k*b, end] an abelian k-th power.

    p holds packed prefix Parikh vectors (see packed_prefixes) and is read at
    positions 0..end only. This is the one suffix-power loop: the detectors
    here and the search engine's freeness cut all call it.
    """
    pe = p[end]
    for b in range(lo, end // k + 1):
        first = pe - p[end - b]
        j = 2
        while j <= k:
            if p[end - (j - 1) * b] - p[end - j * b] != first:
                break
            j += 1
        else:
            return b
    return None


def find_exact_power(
    w: Word, k: int, skip_trivial: bool = False
) -> PowerOccurrence | None:
    """Like find_abelian_power but blocks must match letter for letter."""
    _require_exponent(k)
    m = len(w)
    letters = w.letters
    b_lo = 2 if skip_trivial else 1
    for end in range(k * b_lo, m + 1):
        for b in range(b_lo, end // k + 1):
            start = end - k * b
            for i in range(start, end - b):
                if letters[i] != letters[i + b]:
                    break
            else:
                return PowerOccurrence(start, b, k)
    return None
