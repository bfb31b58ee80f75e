"""Words the package builds without re-checking their letters.

Letters are checked once, where a word enters the package. The words the
package derives from a checked word (slices, reversals, joins, renamings) or
builds itself from 1..n skip the per-letter check. Each must still be a
valid word: a tuple of ints in 1..n, equal and hash-equal to the checked
Word of the same letters.
"""

import pytest

from crucialis.constructions import FamilyId, construct_family
from crucialis.cruciality import decompose, normalize
from crucialis.powers import find_abelian_power
from crucialis.search import EnumerateAllCrucialAtLength, SearchConfig, enumerate_crucial, search_minimal
from crucialis.words import Word

from test_powers_differential import FAMILY_WORDS


def assert_valid(w):
    assert type(w.letters) is tuple
    assert all(type(a) is int and 1 <= a <= w.alphabet_size for a in w.letters)
    checked = Word(w.letters, w.alphabet_size)
    assert w == checked
    assert hash(w) == hash(checked)


@pytest.mark.parametrize("fam,n,k", FAMILY_WORDS, ids=lambda v: str(v))
def test_family_word_and_its_derived_words(fam, n, k):
    w = construct_family(FamilyId(fam), n, k)
    r = w.reversed()
    made = [w, r, w.concat(r), r.concat(Word((1,), 1))]
    u, _ = normalize(w, k)
    made.append(u)
    for x in range(1, n + 1):
        wx = w.append(x)  # crucial: w.x ends in an abelian k-th power
        made += [wx, find_abelian_power(wx, k).factor(wx)]
    dec = decompose(u, k)
    made += list(dec.gaps) + [b for blocks in dec.blocks for b in blocks]
    made += [dec.delta(i) for i in range(1, n + 1)]
    for v in made:
        assert_valid(v)


def test_enumerated_words_and_witness():
    cfg = SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(14))
    words = list(enumerate_crucial(cfg))
    assert len(words) == 1047
    for v in words + [search_minimal(SearchConfig(n=3, k=3)).witness]:
        assert_valid(v)
