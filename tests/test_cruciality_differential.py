"""The cruciality predicates against their definitions.

_completions reads the one letter each block length can complete off the
letter counts; its definition tries every letter: the least b with w.x ending
in an abelian k-th power of block length b, which is suffix_abelian_power of
w.x. is_maximal's definition is the power detector run on x.w and w.x. The
cases are random short words, every family word at the sizes the benchmark
checks (whole and less its first letter), and one word long enough for the
32-bit lanes of packed_prefixes.
"""

import random

import pytest

from crucialis.constructions import FamilyId, construct_family, construct_zimin
from crucialis.cruciality import _completions, is_crucial, is_maximal
from crucialis.powers import find_abelian_power, suffix_abelian_power
from crucialis.words import Word

from test_powers_differential import FAMILY_WORDS


def completions_by_definition(w: Word, k: int) -> list[int | None]:
    return [suffix_abelian_power(w.append(x), k) for x in range(1, w.alphabet_size + 1)]


def maximal_by_definition(w: Word, k: int) -> bool:
    n = w.alphabet_size
    return find_abelian_power(w, k) is None and all(
        find_abelian_power(Word((x,) + w.letters, n), k) is not None
        and find_abelian_power(w.append(x), k) is not None
        for x in range(1, n + 1)
    )


def random_words(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(1, 5), rng.randint(2, 5)
        yield Word(tuple(rng.randint(1, n) for _ in range(rng.randint(1, 40))), n), k


@pytest.mark.parametrize("seed", range(4))
def test_random_words_match_definitions(seed):
    for w, k in random_words(seed, 1500):
        assert _completions(w, k) == completions_by_definition(w, k), (w, k)
        assert is_maximal(w, k) == maximal_by_definition(w, k), (w, k)


def test_random_words_include_free_and_maximal_ones():
    words = list(random_words(0, 1500))
    assert sum(find_abelian_power(w, k) is None for w, k in words) > 100
    assert any(is_maximal(w, k) for w, k in words)


@pytest.mark.parametrize("fam,n,k", FAMILY_WORDS, ids=lambda v: str(v))
def test_family_word_and_its_cut_match_definition(fam, n, k):
    w = construct_family(FamilyId(fam), n, k)
    cut = Word(w.letters[1:], n)
    assert _completions(w, k) == completions_by_definition(w, k)
    assert _completions(cut, k) == completions_by_definition(cut, k)
    assert is_crucial(w, k) and not is_crucial(cut, k)


def test_wide_lanes():
    """131,071 letters: packed_prefixes switches to 32-bit lanes."""
    w = construct_zimin(17, 2)
    assert len(w) >= 1 << 16
    assert is_crucial(w, 2)
    cut = Word(w.letters[1:], w.alphabet_size)
    assert not is_crucial(cut, 2)
    assert _completions(cut, 2) == completions_by_definition(cut, 2)
