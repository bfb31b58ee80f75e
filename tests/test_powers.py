"""Abelian and exact power detection against an independent naive checker."""

import random
from collections import Counter

import pytest

from crucialis.errors import DomainError
from crucialis.powers import (
    PowerOccurrence,
    find_abelian_power,
    find_exact_power,
    is_abelian_power_free,
    suffix_abelian_power,
)
from crucialis.words import Word, parse_word


def naive_find(letters, k, skip_trivial=False):
    """Scan every (end, block) pair in canonical order with Counter equality."""
    m = len(letters)
    for end in range(1, m + 1):
        b_lo = 2 if skip_trivial else 1
        for b in range(b_lo, end // k + 1):
            start = end - k * b
            blocks = [
                Counter(letters[start + j * b : start + (j + 1) * b]) for j in range(k)
            ]
            if all(c == blocks[0] for c in blocks[1:]):
                return (start, b)
    return None


def as_pair(occ):
    return None if occ is None else (occ.start, occ.block_length)


class TestFindAbelianPower:
    def test_fourth_power_in_example(self):
        w = parse_word("13243232323243")
        occ = find_abelian_power(w, 4)
        assert (occ.start, occ.block_length, occ.exponent) == (4, 2, 4)
        assert str(occ.factor(w)) == "32323232"

    def test_square_in_example(self):
        w = parse_word("13243232323243")
        occ = find_abelian_power(w, 2)
        # the canonical occurrence is a valid square, and so is 4323232324
        assert occ is not None
        assert as_pair(occ) == naive_find(w.letters, 2) == (4, 2)
        blocks = [Counter(w.letters[3:8]), Counter(w.letters[8:13])]
        assert blocks[0] == blocks[1]
        assert str(w)[3:13] == "4323232324"

    def test_cube_free_example(self):
        w = parse_word("1234324")
        assert find_abelian_power(w, 3) is None
        assert is_abelian_power_free(w, 3)
        assert not is_abelian_power_free(w, 2)

    def test_trivial_power_single_letter(self):
        occ = find_abelian_power(parse_word("121122"), 2)
        assert (occ.start, occ.block_length) == (2, 1)

    def test_skip_trivial_flag(self):
        w = parse_word("1221")
        assert as_pair(find_abelian_power(w, 2)) == (1, 1)
        assert as_pair(find_abelian_power(w, 2, skip_trivial=True)) == (0, 2)

    def test_canonical_is_smallest_end_then_smallest_block(self):
        w = parse_word("2112")
        got = find_abelian_power(w, 2)
        naive = naive_find(w.letters, 2)
        assert as_pair(got) == naive == (1, 1)

    def test_rejects_exponent_below_two(self):
        with pytest.raises(DomainError):
            find_abelian_power(parse_word("11"), 1)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_rejects_non_int_exponent(self, k):
        with pytest.raises(DomainError):
            find_abelian_power(parse_word("11"), k)

    def test_empty_word_is_free(self):
        assert find_abelian_power(Word((), 1), 2) is None


class TestSuffixAbelianPower:
    @pytest.mark.parametrize(
        "text,k,expect",
        [
            ("212112", 3, 2),
            ("212111", 3, 1),
            ("12", 2, None),
            ("11", 2, 1),
            ("1", 2, None),
            ("121212", 2, 2),
        ],
    )
    def test_known_values(self, text, k, expect):
        assert suffix_abelian_power(parse_word(text), k) == expect

    def test_returns_smallest_block(self):
        # suffix 12 21 and suffix 2 2 both end the word; block 1 is reported
        w = parse_word("121221")
        naive_best = None
        m = len(w)
        for b in range(1, m // 2 + 1):
            blocks = [Counter(w.letters[m - 2 * b + j * b : m - 2 * b + (j + 1) * b]) for j in range(2)]
            if blocks[0] == blocks[1]:
                naive_best = b
                break
        assert suffix_abelian_power(w, 2) == naive_best


class TestFindExactPower:
    def test_exact_fourth_power(self):
        w = parse_word("13243232323243")
        occ = find_exact_power(w, 4)
        assert str(occ.factor(w)) == "32323232"

    def test_abelian_but_not_exact(self):
        w = parse_word("123312213")
        assert find_abelian_power(w, 3) is not None
        assert find_exact_power(w, 3) is None

    def test_single_letter_cube(self):
        occ = find_exact_power(parse_word("12111"), 3)
        assert (occ.start, occ.block_length) == (2, 1)

    def test_period_two_square(self):
        occ = find_exact_power(parse_word("31212"), 2)
        assert (occ.start, occ.block_length) == (1, 2)

    def test_exact_implies_abelian(self):
        rng = random.Random(11)
        for _ in range(300):
            letters = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 16)))
            w = Word(letters, 3)
            for k in (2, 3):
                if find_exact_power(w, k) is not None:
                    assert find_abelian_power(w, k) is not None


class TestOccurrenceType:
    def test_end_and_factor(self):
        occ = PowerOccurrence(start=1, block_length=2, exponent=3)
        assert occ.end == 7
        w = parse_word("21212121")
        assert occ.factor(w).letters == (1, 2, 1, 2, 1, 2)


class TestNaiveAgreementSampled:
    """Randomized cross-check; the exhaustive sweep lives in the acceptance suite."""

    def test_random_words_agree(self):
        rng = random.Random(20260819)
        for trial in range(2000):
            n = rng.randint(1, 4)
            L = rng.randint(0, 24)
            letters = tuple(rng.randint(1, n) for _ in range(L))
            w = Word(letters, n)
            k = rng.choice((2, 3, 4))
            assert as_pair(find_abelian_power(w, k)) == naive_find(letters, k), (
                letters,
                k,
            )

    def test_random_words_agree_skipping_trivial(self):
        rng = random.Random(77)
        for trial in range(500):
            n = rng.randint(1, 3)
            letters = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 18)))
            w = Word(letters, n)
            got = find_abelian_power(w, 2, skip_trivial=True)
            assert as_pair(got) == naive_find(letters, 2, skip_trivial=True)


class TestProperties:
    def test_power_survives_embedding(self):
        # a word containing a non-free factor is itself not free
        rng = random.Random(5)
        core = parse_word("1212")
        for _ in range(50):
            pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
            post = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
            w = Word(pre + core.letters + post, 3)
            assert not is_abelian_power_free(w, 2)

    def test_suffix_matches_full_scan_at_word_end(self):
        rng = random.Random(13)
        for _ in range(400):
            n = rng.randint(1, 3)
            L = rng.randint(1, 20)
            letters = tuple(rng.randint(1, n) for _ in range(L))
            k = rng.choice((2, 3))
            best = None
            for b in range(1, L // k + 1):
                start = L - k * b
                blocks = [
                    Counter(letters[start + j * b : start + (j + 1) * b])
                    for j in range(k)
                ]
                if all(c == blocks[0] for c in blocks[1:]):
                    best = b
                    break
            assert suffix_abelian_power(Word(letters, n), k) == best
