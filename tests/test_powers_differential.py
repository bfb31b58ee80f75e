"""The mod-k filtered power scans against the per-end scan that visits every pair.

The cases are the long structured words the filter is for: every family word
at the sizes the benchmark checks, each of its one-letter extensions, and
words with a planted power behind a free prefix; plus exact powers on random
short words.
"""

import random

import pytest

from crucialis.constructions import FamilyId, construct_D, construct_family
from crucialis.powers import find_abelian_power, find_exact_power
from crucialis.words import Word

import per_end_scan

FAMILY_WORDS = (
    [("dnk", n, k) for n in (8, 16, 32, 64) for k in range(2, 7)]
    + [("wnk", n, k) for n, k in ((4, 3), (8, 4), (16, 5), (32, 6), (64, 10))]
    + [("doublingk", n, k) for n, k in ((4, 3), (8, 3), (6, 4), (5, 5))]
    + [("zimink", n, k) for n, k in ((3, 3), (5, 2), (4, 4), (6, 3), (5, 5))]
    + [("dnk", 5, 2), ("smallopt", 3, 3), ("smallopt", 4, 3), ("zimink", 2, 4), ("zimink", 2, 5)]
)


def as_pair(occ):
    return None if occ is None else (occ.start, occ.block_length)


@pytest.mark.parametrize("fam,n,k", FAMILY_WORDS, ids=lambda v: str(v))
def test_family_word_and_its_extensions_match_per_end_scan(fam, n, k):
    w = construct_family(FamilyId(fam), n, k)
    assert per_end_scan.first_abelian_power(w.letters, k) is None
    assert find_abelian_power(w, k) is None
    assert find_exact_power(w, k) is None
    # w is free, so the per-end scan of w.x first stops at the last end
    m = len(w)
    for x in range(1, n + 1):
        ext = w.letters + (x,)
        P = per_end_scan.packed(ext)
        for skip_trivial in (False, True):
            b = per_end_scan.suffix_power(P, m + 1, k, 2 if skip_trivial else 1)
            want = None if b is None else (m + 1 - k * b, b)
            assert as_pair(find_abelian_power(Word(ext, n), k, skip_trivial)) == want, (x, skip_trivial)


@pytest.mark.parametrize("k", range(2, 7))
def test_planted_power_is_found_where_planted(k):
    """A free prefix F, then B^k with B a run of distinct fresh letters, then
    anything: the first power is B^k at (|F|, |B|). A power that ends in B^k
    and starts in F has a block with a letter of F and one without; inside B^k
    consecutive blocks shorter than |B| hold different letters."""
    rng = random.Random(k)
    free = construct_D(8, k).letters
    for _ in range(40):
        f = free[: rng.randint(0, len(free))]
        r = rng.randint(1, 5)
        block = tuple(rng.sample(range(9, 9 + r), r))
        tail = tuple(rng.randint(1, 8 + r) for _ in range(rng.randint(0, 12)))
        w = Word(f + block * k + tail, 8 + r)
        assert per_end_scan.first_abelian_power(w.letters, k) == (len(f), r)
        assert as_pair(find_abelian_power(w, k)) == (len(f), r)
        assert as_pair(find_exact_power(w, k)) == (len(f), r)


@pytest.mark.parametrize("k", range(2, 7))
def test_planted_abelian_power_matches_per_end_scan(k):
    """Blocks that are anagrams of one another, over the prefix's own letters,
    so shorter powers and their candidates cross the planted one."""
    rng = random.Random(100 + k)
    free = construct_D(8, k).letters
    for _ in range(60):
        f = free[: rng.randint(0, len(free))]
        b = rng.randint(1, 9)
        base = [rng.randint(1, 8) for _ in range(b)]
        power = []
        for _ in range(k):
            rng.shuffle(base)
            power += base
        tail = tuple(rng.randint(1, 8) for _ in range(rng.randint(0, 12)))
        w = Word(f + tuple(power) + tail, 8)
        want = per_end_scan.first_abelian_power(w.letters, k)
        assert want is not None and want[0] + k * want[1] <= len(f) + k * b
        for skip_trivial in (False, True):
            got = find_abelian_power(w, k, skip_trivial)
            assert as_pair(got) == per_end_scan.first_abelian_power(w.letters, k, skip_trivial)


@pytest.mark.parametrize("skip_trivial", [False, True])
def test_exact_power_matches_letter_by_letter_scan(skip_trivial):
    rng = random.Random(2024 + skip_trivial)
    for _ in range(3000):
        n = rng.randint(1, 4)
        letters = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 40)))
        k = rng.randint(2, 5)
        got = find_exact_power(Word(letters, n), k, skip_trivial)
        assert as_pair(got) == per_end_scan.first_exact_power(letters, k, skip_trivial), (letters, k)
