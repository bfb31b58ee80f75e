"""The reverse-direction engine against a plain forward scan and the residue lemma."""

import functools
from itertools import permutations

import pytest

from crucialis.cruciality import is_crucial
from crucialis.powers import suffix_abelian_power
from crucialis.search import (
    EnumerateAllCrucialAtLength,
    SearchConfig,
    VerifyNoneBelow,
    _branches,
    _scan_branch,
    _walk,
    enumerate_crucial,
    search_minimal,
    verify_none_below,
)
from crucialis.words import Word

import forward_search
from test_search import KNOWN_MINIMA

MINIMA_CELLS = [(n, k) for n, k, _, _ in KNOWN_MINIMA] + [(5, 2), (2, 4), (2, 5)]
ENUM_CELLS = [(2, 3), (3, 2), (4, 2), (3, 3), (2, 4)]
ENUM_LENGTHS = range(1, 12)
# (n, k, top length) for cells with larger minima; (2, 5) has crucial words
# from length 14 on, and the slot-matching cut reads half determined slots at
# every k, so the squares are here too
FAR_CELLS = [
    (4, 2, 13),
    (5, 2, 13),
    (4, 3, 11),
    (3, 4, 11),
    (2, 5, 16),
    (2, 6, 16),
    (3, 5, 11),
]
# without reduction the forward scan takes about 20 s to length 11 at (4, 3)
# and at (5, 2), and 3 s to length 13 at (4, 2)
PLAIN_SCAN_TOO_SLOW = {(4, 2), (5, 2), (4, 3)}


@functools.cache
def oracle_words(n, k, L, reduction=True):
    return forward_search.crucial_words(n, k, L, reduction)


@functools.cache
def oracle_minimal(n, k):
    """(minimal length, lex-least canonical witness, canonical count there)."""
    for L in range(1, 21):
        words = oracle_words(n, k, L)
        if words:
            return L, words[0], len(words)
    return None


def renamings(words, n):
    """Every renaming of the words over 1..n, in lex order."""
    perms = list(permutations(range(1, n + 1)))
    return sorted({tuple(p[a - 1] for a in w) for w in words for p in perms})


def expected_words(n, k, L, reduction):
    if reduction or (n, k) not in PLAIN_SCAN_TOO_SLOW:
        return oracle_words(n, k, L, reduction)
    return renamings(oracle_words(n, k, L), n)


@pytest.mark.parametrize("n,k", MINIMA_CELLS)
@pytest.mark.parametrize("reduction", [True, False])
def test_minimum_matches_forward_scan(n, k, reduction):
    length, witness, _ = oracle_minimal(n, k)
    result = search_minimal(SearchConfig(n=n, k=k, symmetry_reduction=reduction))
    assert result.exhaustive
    assert result.minimal_length == length
    assert result.witness.letters == witness
    assert is_crucial(result.witness, k)
    assert result.crucial_words_found == len(expected_words(n, k, length, reduction))


@pytest.mark.parametrize("n,k", MINIMA_CELLS)
def test_verify_matches_forward_scan(n, k):
    length, witness, count = oracle_minimal(n, k)
    for limit in range(1, length + 3):
        result = verify_none_below(SearchConfig(n=n, k=k, target_mode=VerifyNoneBelow(limit)))
        assert result.exhaustive
        if limit <= length:
            assert (result.minimal_length, result.witness) == (None, None), limit
            assert result.crucial_words_found == 0
        else:
            assert result.minimal_length == length
            assert result.witness.letters == witness
            assert result.crucial_words_found == count


@pytest.mark.parametrize("n,k", ENUM_CELLS)
@pytest.mark.parametrize("reduction", [True, False])
def test_enumeration_matches_forward_scan(n, k, reduction):
    for L in ENUM_LENGTHS:
        cfg = SearchConfig(
            n=n, k=k, target_mode=EnumerateAllCrucialAtLength(L), symmetry_reduction=reduction
        )
        words = list(enumerate_crucial(cfg))
        assert all(is_crucial(w, k) for w in words), L
        assert [w.letters for w in words] == oracle_words(n, k, L, reduction), L


@pytest.mark.parametrize("n,k,top", FAR_CELLS)
@pytest.mark.parametrize("reduction", [True, False])
def test_enumeration_past_small_minima_matches_forward_scan(n, k, top, reduction):
    for L in range(1, top + 1):
        cfg = SearchConfig(
            n=n, k=k, target_mode=EnumerateAllCrucialAtLength(L), symmetry_reduction=reduction
        )
        words = list(enumerate_crucial(cfg))
        assert all(is_crucial(w, k) for w in words), L
        assert [w.letters for w in words] == expected_words(n, k, L, reduction), L


@pytest.mark.parametrize("n,k", ENUM_CELLS)
def test_plain_scan_is_the_renamings_of_the_canonical_scan(n, k):
    # the oracle expected_words uses for cells whose plain scan is too slow
    for L in ENUM_LENGTHS:
        assert renamings(oracle_words(n, k, L), n) == oracle_words(n, k, L, False), L


def test_verify_four_letter_cubes_up_to_17():
    # no crucial word below 20 (tests/test_acceptance.py proves 20 minimal);
    # the forward scan confirms the lengths up to 11 above
    for limit in range(1, 18):
        result = verify_none_below(SearchConfig(n=4, k=3, target_mode=VerifyNoneBelow(limit)))
        assert result.exhaustive, limit
        assert (result.minimal_length, result.witness) == (None, None), limit
        assert result.crucial_words_found == 0


@pytest.mark.parametrize("n,k", ENUM_CELLS + [(2, 5)])
def test_longest_completing_suffix_is_crucial_residue_word(n, k):
    """For each crucial W and letter x let D_x be the shortest suffix with D_x.x
    an abelian k-th power. The longest D_x is crucial and has length k-1 (mod k)."""
    checked = 0
    for L in range(1, 15):
        for letters in oracle_words(n, k, L):
            w = Word(letters, n)
            longest = max(
                k * suffix_abelian_power(w.append(x), k) - 1 for x in range(1, n + 1)
            )
            assert longest % k == k - 1
            assert is_crucial(Word(letters[L - longest :], n), k)
            checked += 1
    assert checked > 0


WALK_CELLS = [(2, 3), (3, 3), (2, 4), (4, 3), (3, 4), (2, 5), (3, 2)]


@pytest.mark.parametrize("n,k", WALK_CELLS)
def test_branch_walks_partition_the_root_walk(n, k):
    """A walk below a branch prefix counts only the appends below it: the branch
    split plus its branch walks is the one root walk, nodes and hits alike, and
    a branch's node cap bounds exactly those appends."""
    split = 0
    for L in range(k - 1, 16, k):
        nodes, _, _, hits, tripped = _walk(n, k, L, (), True, None, None, L)
        assert not tripped
        prefixes, enum_nodes = _branches(n, k, L)
        total, joined = enum_nodes, []
        for prefix in prefixes:
            below, _, _, found, tripped = _walk(n, k, L, prefix, True, None, None, L)
            assert not tripped
            assert all(r[: len(prefix)] == prefix for r in found)
            total += below
            joined += found
            for cap in {0, 1, below // 2, below - 1, below, below + 1} - {-1}:
                capped, *_, tripped = _walk(n, k, L, prefix, False, cap, None)
                assert tripped == (below > cap), (L, prefix, cap)
                assert capped == (cap + 1 if tripped else below), (L, prefix, cap)
        assert (total, joined) == (nodes, hits), L
        split += len(prefixes) > 1
    assert split > 0


@pytest.mark.parametrize("n,k", WALK_CELLS)
def test_count_only_scan_matches_the_kept_hits(n, k):
    """Find and verify keep no word of a branch, only its count and least hit:
    those equal the count and least of the words an enumerating scan keeps."""
    for L in range(k - 1, 16, k):
        for prefix in _branches(n, k, L)[0]:
            nodes, count, least, words, tripped = _scan_branch(
                (n, k, L, prefix, False, None, None)
            )
            assert words is None and not tripped
            kept = _scan_branch((n, k, L, prefix, True, None, None))
            assert kept[0] == nodes and not kept[4]
            assert (count, least) == (len(kept[3]), min(kept[3], default=None)), (L, prefix)
