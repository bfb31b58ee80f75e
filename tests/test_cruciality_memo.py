"""The cruciality verdict memoised on the Word, against a fresh scan.

_block_lengths stores its answer in the word's __dict__, keyed by k, and
normalize seeds the renamed word's memo with the sorted completions. Every
memo must equal what a fresh Word of the same letters computes, a memo for one
k must not answer for another, and a memoised word must stay equal, hash-equal
and repr-equal to a fresh copy. The cases are random short words, every family
word at the benchmark's sizes under a seeded renaming (so normalize does rename
letters), and the (3,3) crucial words of length 14.
"""

import gc
import pickle
import random

import pytest

from crucialis.constructions import FamilyId, construct_family
from crucialis.cruciality import _MEMO, _block_lengths, decompose, is_crucial, normalize
from crucialis.errors import CrucialisError
from crucialis.search import EnumerateAllCrucialAtLength, SearchConfig, enumerate_crucial
from crucialis.words import Word

from test_cruciality_differential import random_words
from test_powers_differential import FAMILY_WORDS


def fresh(w: Word) -> Word:
    return Word(w.letters, w.alphabet_size)


def outcome(f, *args):
    """f(*args), or the type and message of the package error it raises."""
    try:
        return f(*args)
    except CrucialisError as e:
        return type(e), str(e)


def assert_memo_sound(w: Word, k: int) -> None:
    """Every verdict on w, memoised, equals the one on a fresh copy."""
    bs = _block_lengths(w, k)
    assert _block_lengths(w, k) is bs  # the second call is a memo hit
    assert w.__dict__[_MEMO][k] == bs == _block_lengths(fresh(w), k)
    assert type(bs) in (tuple, type(None))
    assert is_crucial(w, k) == is_crucial(fresh(w), k)
    got = outcome(normalize, w, k)
    assert got == outcome(normalize, fresh(w), k)
    if isinstance(got[0], Word):
        u = got[0]
        assert u.__dict__[_MEMO] == {k: _block_lengths(fresh(u), k)}
        assert outcome(decompose, u, k) == outcome(decompose, fresh(u), k)
    assert outcome(decompose, w, k) == outcome(decompose, fresh(w), k)


def assert_same_word(w: Word) -> None:
    f = fresh(w)
    assert w == f and hash(w) == hash(f) and repr(w) == repr(f)
    p = pickle.loads(pickle.dumps(w))
    assert p == f and hash(p) == hash(f) and repr(p) == repr(f)
    for k in w.__dict__.get(_MEMO, {}):
        assert _block_lengths(p, k) == _block_lengths(f, k)


def renamed_family_word(fam: str, n: int, k: int) -> Word:
    w = construct_family(FamilyId(fam), n, k)
    pi = list(range(1, n + 1))
    random.Random(f"{fam}{n},{k}").shuffle(pi)
    return Word(tuple(pi[a - 1] for a in w.letters), n)


@pytest.mark.parametrize("seed", range(4))
def test_random_words(seed):
    for w, k in random_words(seed, 1500):
        assert_memo_sound(w, k)
        assert_same_word(w)


def test_memo_is_keyed_by_exponent():
    free2 = crucial3 = 0
    for w, _ in random_words(4, 1500):
        a = _block_lengths(w, 2)
        b = _block_lengths(w, 3)
        assert a == _block_lengths(fresh(w), 2)
        assert b == _block_lengths(fresh(w), 3)
        assert w.__dict__[_MEMO] == {2: a, 3: b}
        free2 += a is not None
        crucial3 += b is not None and None not in b
    assert free2 > 100 and crucial3 > 0  # the two exponents answer differently


@pytest.mark.parametrize("fam,n,k", FAMILY_WORDS, ids=lambda v: str(v))
def test_family_word(fam, n, k):
    v = renamed_family_word(fam, n, k)
    assert is_crucial(v, k)
    assert_memo_sound(v, k)
    u, _ = normalize(v, k)
    assert_same_word(v)
    assert_same_word(u)
    cut = Word(v.letters[1:], n)
    assert not is_crucial(cut, k)
    assert_memo_sound(cut, k)


def test_family_words_are_renamed():
    # the memo that normalize seeds differs from the input's on most words
    renamed = 0
    for fam, n, k in FAMILY_WORDS:
        v = renamed_family_word(fam, n, k)
        renamed += _block_lengths(v, k) != normalize(v, k)[0].__dict__[_MEMO][k]
    assert renamed >= len(FAMILY_WORDS) // 2


def test_enumerated_crucial_words():
    cfg = SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(14))
    words = list(enumerate_crucial(cfg))
    assert len(words) == 1047
    for w in words:
        assert_memo_sound(w, 3)
        assert_same_word(w)


def test_family_path_leaves_no_cyclic_garbage():
    # the memo is a plain dict of tuples on the word: freeing a word frees it
    gc.collect()
    gc.disable()
    try:
        for fam, n, k in FAMILY_WORDS:
            v = renamed_family_word(fam, n, k)
            assert is_crucial(v, k)
            u, _ = normalize(v, k)
            decompose(u, k)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
