"""Core word representation, Parikh machinery, and text I/O.

Words are finite sequences of 1-based letters from {1..n}. The alphabet size n
is carried on the word itself rather than inferred per operation, because
cruciality depends on n even when a candidate prefix does not yet use every
letter. All factor ranges are half-open (start, end].
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FormatError, ParseError

MAX_ALPHABET = 64
_SHIFT = 16  # per-letter lane width in packed Parikh prefixes


class WordFormat(enum.Enum):
    COMPACT = "compact"
    SPACED = "spaced"


@dataclass(frozen=True)
class Word:
    """Immutable word over the alphabet {1..alphabet_size}.

    cruciality memoises its verdicts in the instance's __dict__; equality,
    hashing and repr read only the two fields.
    """

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        _check(self.letters, self.alphabet_size)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __str__(self) -> str:
        fmt = WordFormat.COMPACT if self.alphabet_size <= 9 else WordFormat.SPACED
        return render_word(self, fmt)

    def concat(self, other: "Word") -> "Word":
        n = max(self.alphabet_size, other.alphabet_size)
        return _word_of(self.letters + other.letters, n)

    def append(self, letter: int) -> "Word":
        # letter may exceed the current alphabet; the alphabet widens to fit
        n = max(self.alphabet_size, letter) if isinstance(letter, int) else self.alphabet_size
        _check((letter,), n)
        return _word_of(self.letters + (letter,), n)

    def reversed(self) -> "Word":
        return _word_of(self.letters[::-1], self.alphabet_size)


def _check(letters: tuple, n: int) -> None:
    """DomainError unless n is an int in 1..MAX_ALPHABET and every letter is an int in 1..n."""
    if type(n) is not int or not 1 <= n <= MAX_ALPHABET:  # a bool or float is no size
        raise DomainError(f"alphabet_size must be in 1..{MAX_ALPHABET}, got {n}")
    for a in letters:
        if type(a) is not int or not 1 <= a <= n:  # a bool is no letter
            raise DomainError(f"letter {a!r} outside alphabet 1..{n}")


def _word_of(letters: tuple[int, ...], n: int) -> Word:
    """The Word (letters, n), built without checking its letters.

    Precondition: letters is a tuple of ints in 1..n and 1 <= n <= MAX_ALPHABET.
    The caller has checked them already, or derived them from a checked word
    (a slice, reversal, join or renaming) or built them itself from 1..n.
    Letters are checked once, where a word enters the package: by Word(...),
    word(...), parse_word and Word.append.
    """
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "alphabet_size", n)
    return w


def word(letters: Iterable[int], alphabet_size: int | None = None) -> Word:
    """Build a Word, inferring the alphabet from the max letter when not given."""
    ls = tuple(letters)
    if alphabet_size is None:
        alphabet_size = max(ls) if ls else 1
    return Word(ls, alphabet_size)


EMPTY_WORD = Word((), 1)


def parikh(w: Word, start: int, end: int) -> tuple[int, ...]:
    """Parikh vector of the factor (start, end] as a plain tuple."""
    if type(start) is not int or type(end) is not int:  # a bool or float is no index
        raise DomainError(f"start and end must be ints, got {start!r}, {end!r}")
    if not 0 <= start <= end <= len(w):
        raise IndexError(f"factor range ({start}, {end}] invalid for length {len(w)}")
    counts = [0] * w.alphabet_size
    for i in range(start, end):
        counts[w.letters[i] - 1] += 1
    return tuple(counts)


def packed_prefixes(letters: Sequence[int]) -> tuple[list[int], int]:
    """Prefix Parikh vectors packed into single integers, one lane per letter.

    Lanes are _SHIFT = 16 bits wide, which is collision-free for words up to
    65535 letters; longer words get lanes twice as wide. Returns (prefixes,
    shift) where prefixes[i] encodes the length-i prefix and block
    comparisons reduce to integer subtraction.
    """
    shift = _SHIFT if len(letters) < (1 << _SHIFT) else 2 * _SHIFT
    p = 0
    out = [0] * (len(letters) + 1)
    for i, a in enumerate(letters):
        p += 1 << ((a - 1) * shift)
        out[i + 1] = p
    return out, shift


def parse_word(
    text: str,
    fmt: WordFormat = WordFormat.COMPACT,
    alphabet_size: int | None = None,
) -> Word:
    """Parse a word from text.

    Compact is a contiguous digit string (letters 1..9); Spaced is
    whitespace-separated ASCII decimal integers. The alphabet defaults to the
    largest letter seen; an explicit alphabet_size may widen it.
    """
    if fmt is WordFormat.COMPACT:
        letters = []
        for ch in text.strip():
            if ch == "0":
                raise ParseError("letter 0 is not part of any alphabet")
            if not "1" <= ch <= "9":  # ASCII only: str.isdigit also holds for '²' and '٣'
                raise ParseError(f"compact words are digit strings, got {ch!r}")
            letters.append(int(ch))
    elif fmt is WordFormat.SPACED:
        letters = []
        for tok in text.split():
            # ASCII digits only: int() also reads '٣', '３', '1_0' and '+2'
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"expected an integer letter, got {tok!r}")
            v = int(tok)
            if v < 1:
                raise ParseError(f"letters are positive, got {v}")
            letters.append(v)
    else:
        raise ParseError(f"unknown word format {fmt!r}")
    inferred = max(letters) if letters else 1
    if alphabet_size is not None:
        if type(alphabet_size) is not int:
            raise ParseError(f"alphabet_size must be an int, got {alphabet_size!r}")
        if alphabet_size < inferred:
            raise ParseError(
                f"alphabet_size {alphabet_size} smaller than largest letter {inferred}"
            )
        inferred = alphabet_size
    if inferred > MAX_ALPHABET:
        raise ParseError(f"alphabet size {inferred} exceeds the maximum {MAX_ALPHABET}")
    return _word_of(tuple(letters), inferred)  # every letter checked above


def render_word(w: Word, fmt: WordFormat = WordFormat.COMPACT) -> str:
    if fmt is WordFormat.COMPACT:
        if w.alphabet_size > 9:
            raise FormatError("compact format requires alphabet_size <= 9")
        return "".join(str(a) for a in w.letters)
    if fmt is WordFormat.SPACED:
        return " ".join(str(a) for a in w.letters)
    raise FormatError(f"unknown word format {fmt!r}")


def read_corpus(source: str | os.PathLike | Iterable[str]) -> list[Word]:
    """Read spaced-format words, one per line; '#' lines are comments."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    out = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(parse_word(stripped, WordFormat.SPACED))
    return out
