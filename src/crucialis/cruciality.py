"""Cruciality and maximality predicates, suffix-chain decomposition, profiles.

A word W over {1..n} is crucial for exponent k when W itself contains no
abelian k-th power but W.x gains one (necessarily as a suffix) for every
letter x. For such a word each letter x determines a minimal suffix D_x with
D_x.x an abelian k-th power; after renaming letters so the suffix lengths
increase, the chain D_1 < D_2 < ... < D_n nests and D_n spans the whole word
whenever the word is minimal. decompose() materializes that chain; normalize()
computes the renaming.

A verdict is memoised per Word object: is_crucial, normalize and decompose on
one word share one freeness scan and one completion pass, and the word that
normalize returns carries its own verdict, so decomposing it scans nothing.

The occurrence profile (a0; a1 <= ... <= a_{n-1}) records how often letter n
occurs (a0) and the sorted counts of the remaining letters. For exponent 3 a
short list of profiles is impossible in crucial words; profile_violations
flags them.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .errors import DomainError, IncompleteChainError, NamingError, NotCrucialError
from .powers import _require_exponent, is_abelian_power_free, prefix_completions
from .powers import suffix_abelian_power  # noqa: F401  (kept importable here; perfbench traces it)
from .words import Word, _Record, _setfield, _word_of


def _completions(w: Word, k: int) -> list[int | None]:
    """b_x for each letter x: the least b with w.x ending in an abelian k-th
    power of block length b (x.reverse(w) starting with one), or None."""
    return prefix_completions(w.letters[::-1], w.alphabet_size, k)


_MEMO = "_block_lengths_by_k"  # the Word's own __dict__ entry: {k: _block_lengths(w, k)}


def _block_lengths(w: Word, k: int) -> tuple[int | None, ...] | None:
    """The completions of the candidate w, or None when w is not free: the
    checks of every cruciality verdict, in order, with one freeness scan.

    The answer is memoised on w itself, keyed by k, so is_crucial, normalize
    and decompose on one Word object scan it once. The memo is a plain dict in
    the instance's __dict__: Word's eq, hash and repr read only its fields.
    """
    _require_exponent(k)
    if len(w) == 0:
        raise DomainError("the empty word is never a crucial-word candidate")
    memo = w.__dict__.setdefault(_MEMO, {})
    if k not in memo:
        memo[k] = tuple(_completions(w, k)) if is_abelian_power_free(w, k) else None
    return memo[k]


def is_crucial(w: Word, k: int) -> bool:
    """True iff w is abelian-k-power-free and every letter extension is not."""
    bs = _block_lengths(w, k)
    return bs is not None and None not in bs


def is_maximal(w: Word, k: int) -> bool:
    """True iff w is free but gains a power on appending or prepending any letter
    (a power that x.w gains is a prefix, which prefix_completions reads)."""
    return is_crucial(w, k) and None not in prefix_completions(w.letters, w.alphabet_size, k)


class CrucialDecomposition(_Record):
    """The nested suffix chain of a crucial word.

    delta_lengths[i-1] is |D_i|; gaps[i-2] is the factor Y_i with
    D_i = Y_i D_{i-1} for i = 2..n; blocks[i-1] holds the k blocks of the
    abelian power D_i.i (the appended letter i included in the last block).
    """

    word: Word
    exponent: int
    delta_lengths: tuple[int, ...]
    gaps: tuple[Word, ...]
    blocks: tuple[tuple[Word, ...], ...]

    def __init__(
        self,
        word: Word,
        exponent: int,
        delta_lengths: tuple[int, ...],
        gaps: tuple[Word, ...],
        blocks: tuple[tuple[Word, ...], ...],
    ) -> None:
        _setfield(self, "word", word)
        _setfield(self, "exponent", exponent)
        _setfield(self, "delta_lengths", delta_lengths)
        _setfield(self, "gaps", gaps)
        _setfield(self, "blocks", blocks)

    def delta(self, i: int) -> Word:
        """The suffix D_i of the input word."""
        if type(i) is not int:  # a bool or float is no letter
            raise DomainError(f"i must be an int, got {i!r}")
        if not 1 <= i <= len(self.delta_lengths):
            raise IndexError(f"no suffix D_{i} in a chain of {len(self.delta_lengths)}")
        m = len(self.word)
        return _word_of(self.word.letters[m - self.delta_lengths[i - 1] :], self.word.alphabet_size)


def _crucial_block_lengths(w: Word, k: int, caller: str) -> tuple[int, ...]:
    """The completions of w, which must be crucial (NotCrucialError otherwise)."""
    bs = _block_lengths(w, k)
    if bs is None or None in bs:
        raise NotCrucialError(f"{caller} is only defined for crucial words")
    return bs


def _rank_by_block_length(bs: Sequence[int]) -> tuple[int, ...]:
    """Renaming that sorts letters by completing-suffix length.

    Returns perm with perm[x-1] = new name of letter x. The lengths are
    distinct: each block length completes at most one letter.
    """
    order = sorted(range(len(bs)), key=lambda i: bs[i])
    perm = [0] * len(bs)
    for rank, idx in enumerate(order, start=1):
        perm[idx] = rank
    return tuple(perm)


def decompose(w: Word, k: int) -> CrucialDecomposition:
    """Materialize the suffix chain of a crucial word.

    The letters must already be named so the chain nests (NamingError
    otherwise; run normalize first). The final suffix D_n must span the whole
    word, which holds for minimal crucial words but can fail for longer ones
    (IncompleteChainError).
    """
    bs = _crucial_block_lengths(w, k, "decompose")
    n = w.alphabet_size
    m = len(w)
    lengths = [k * b - 1 for b in bs]
    for i in range(n - 1):
        if lengths[i] > lengths[i + 1]:
            raise NamingError(
                f"suffix of letter {i + 1} is longer than that of letter {i + 2}; "
                "letters are not named in chain order (run normalize first)"
            )
    if lengths[-1] != m:
        raise IncompleteChainError(
            f"longest suffix D_{n} has length {lengths[-1]} but the word has length {m}"
        )
    # slices of the checked w and the letters 1..n: no letter needs a re-check
    gaps = tuple(
        _word_of(w.letters[m - lengths[i] : m - lengths[i - 1]], n) for i in range(1, n)
    )
    blocks = []
    for i in range(1, n + 1):
        b = bs[i - 1]
        s = m - (k * b - 1)  # D_i starts here; its last block ends with the letter i
        row = [_word_of(w.letters[s + j * b : s + (j + 1) * b], n) for j in range(k - 1)]
        row.append(_word_of(w.letters[s + (k - 1) * b :] + (i,), n))
        blocks.append(tuple(row))
    return CrucialDecomposition(
        word=w,
        exponent=k,
        delta_lengths=tuple(lengths),
        gaps=gaps,
        blocks=tuple(blocks),
    )


def normalize(w: Word, k: int) -> tuple[Word, tuple[int, ...]]:
    """Rename letters so the suffix chain lengths increase with the letter.

    Returns (renamed word, perm) where perm[x-1] is the new name of original
    letter x. Words already in chain order come back unchanged with the
    identity renaming.

    The renamed word u carries its own verdict, so decompose(u, k) does not
    scan it again. Renaming letters is a bijection on Parikh vectors: two
    factors of w have equal counts iff their images in u do. So u is free iff
    w is, and with y = perm[x-1], u.y ends in an abelian k-th power of block
    length b iff w.x does: letter y of u completes at bs[x-1]. perm ranks the
    letters by bs, so the completions of u, letter by letter, are sorted(bs).
    """
    bs = _crucial_block_lengths(w, k, "normalize")
    perm = _rank_by_block_length(bs)
    renamed = _word_of(tuple(perm[a - 1] for a in w.letters), w.alphabet_size)
    renamed.__dict__[_MEMO] = {k: tuple(sorted(bs))}
    return renamed, perm


class OccurrenceProfile(_Record):
    """(a0; a1 <= ... <= a_{n-1}): count of letter n, then sorted other counts."""

    a0: int
    rest: tuple[int, ...]

    def __init__(self, a0: int, rest: tuple[int, ...]) -> None:
        if not isinstance(rest, tuple):
            rest = tuple(rest)
        for a in (a0, *rest):
            if type(a) is not int or a < 0:  # a bool or float is no count
                raise DomainError(f"counts must be non-negative ints, got {a!r}")
        if any(b < a for a, b in zip(rest, rest[1:])):
            raise DomainError("rest counts must be non-decreasing")
        _setfield(self, "a0", a0)
        _setfield(self, "rest", rest)

    def __str__(self) -> str:
        return f"({self.a0}; {', '.join(str(a) for a in self.rest)})"


def occurrence_profile(w: Word) -> OccurrenceProfile:
    counts = [0] * w.alphabet_size
    for a in w.letters:
        counts[a - 1] += 1
    return OccurrenceProfile(a0=counts[-1], rest=tuple(sorted(counts[:-1])))


class ViolationTag(enum.Enum):
    """Profile constraints that crucial abelian-cube-free words cannot break."""

    DIVISIBILITY = "DIVISIBILITY"
    PAIR_3_3 = "PAIR_3_3"
    TRIPLE_6_6_6 = "TRIPLE_6_6_6"
    TRIPLE_3_6_6 = "TRIPLE_3_6_6"
    QUINT_2_3_6_9_9 = "QUINT_2_3_6_9_9"


class ViolationReport(list):
    """List of ViolationTag with an optional applicability note."""

    note: str | None = None


def profile_violations(p: OccurrenceProfile, k: int = 3) -> ViolationReport:
    """Every constraint the profile breaks; empty means consistent.

    The four structural constraints are proved for exponent 3 only. For any
    other exponent the check degrades to the divisibility congruences (each
    rest count divisible by k, a0 congruent to k-1 mod k) and the report
    carries a note saying so.
    """
    _require_exponent(k)
    report = ViolationReport()
    if p.a0 % k != k - 1 or any(a % k for a in p.rest):
        report.append(ViolationTag.DIVISIBILITY)
    if k != 3:
        report.note = "structural constraints are proved for exponent 3 only; divisibility checked"
        return report
    rest = p.rest
    threes = rest.count(3)
    sixes = rest.count(6)
    if threes >= 2:
        report.append(ViolationTag.PAIR_3_3)
    if sixes >= 3:
        report.append(ViolationTag.TRIPLE_6_6_6)
    if threes >= 1 and sixes >= 2:
        report.append(ViolationTag.TRIPLE_3_6_6)
    if p.a0 == 2 and rest[:4] == (3, 6, 9, 9):
        report.append(ViolationTag.QUINT_2_3_6_9_9)
    return report
