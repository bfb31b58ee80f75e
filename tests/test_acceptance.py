"""Acceptance gate: known words, formulas, minima, profiles, detector, bounds.

Each test covers one shipped guarantee end to end and prints a single
ACCEPTANCE line when it holds.
"""

import random
import time
from operator import sub

import pytest

from crucialis.constructions import (
    FamilyId,
    bounds,
    construct_D,
    construct_W,
    construct_doubling_k,
    construct_family,
    construct_zimin,
    greedy_length,
    optimal_small_word,
)
from crucialis.cruciality import (
    OccurrenceProfile,
    ViolationTag,
    is_crucial,
    normalize,
    occurrence_profile,
    profile_violations,
)
from crucialis.powers import find_abelian_power, is_abelian_power_free
from crucialis.search import (
    EnumerateAllCrucialAtLength,
    SearchConfig,
    VerifyNoneBelow,
    enumerate_crucial,
    search_minimal,
    verify_none_below,
)
from crucialis.words import Word, parse_word

KNOWN_WORDS = [
    # family tag, builder args, expected text
    ("zimin", lambda: construct_zimin(1), "1"),
    ("zimin", lambda: construct_zimin(2), "121"),
    ("zimin", lambda: construct_zimin(3), "1213121"),
    ("zimin", lambda: construct_zimin(4), "121312141213121"),
    ("doubling", lambda: construct_family(FamilyId.DOUBLING, 2), "21211"),
    ("doubling", lambda: construct_family(FamilyId.DOUBLING, 3), "31213121211"),
    ("w", lambda: construct_W(4), "34423312243322143232122334"),
    ("w", lambda: construct_W(5), "45534423312254433221543243212233445"),
    ("w", lambda: construct_W(6), "56645534423312265544332216543254321223344556"),
    (
        "w",
        lambda: construct_W(7),
        "67756645534423312276655443322176543265432122334455667",
    ),
    ("e", lambda: construct_family(FamilyId.EN, 4), "34423311342311343233411"),
    ("e", lambda: construct_family(FamilyId.EN, 5), "45534423311453423113454323344511"),
    ("e", lambda: construct_family(FamilyId.EN, 6), "56645534423311564534231134565432334455611"),
    (
        "e",
        lambda: construct_family(FamilyId.EN, 7),
        "67756645534423311675645342311345676543233445566711",
    ),
    ("d", lambda: construct_D(4), "342313231"),
    ("d", lambda: construct_D(5), "4534231432341"),
    ("d", lambda: construct_D(6), "56453423154323451"),
    ("d", lambda: construct_D(7), "675645342316543234561"),
    ("dk", lambda: construct_D(4, 3), "34423311342311343233411"),
    ("dk", lambda: construct_D(5, 3), "45534423311453423113454323344511"),
    (
        "dk",
        lambda: construct_D(5, 4),
        "45553444233311145534423311134545342311133445543233344455111",
    ),
    ("dk", lambda: construct_D(4, 4), "344423331113442331113434231113344323334411" "1"),
    (
        "dk",
        lambda: construct_D(4, 5),
        "3444423333111134442333111134344233111133443423111133344432333344411" "11",
    ),
    (
        "dk",
        lambda: construct_D(6, 4),
        "5666455534442333111566455344233111345656453423111334455665432333444555"
        "66111",
    ),
    ("wk", lambda: construct_W(4, 4), "34442333122234423312243243322144332232122233344"),
    (
        "wk",
        lambda: construct_W(5, 4),
        "455534442333122245534423312254325443322155443322432122233344455",
    ),
    (
        "wk",
        lambda: construct_W(4, 5),
        "34444233331222234442333122243234423312244332243322144433322232122223333444",
    ),
]


def test_reproduces_known_words():
    t0 = time.monotonic()
    for _, builder, text in KNOWN_WORDS:
        assert str(builder()) == text
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE known words byte-exact ({len(KNOWN_WORDS)} words): PASS")


def test_length_formulas():
    t0 = time.monotonic()
    for n in range(4, 13):
        for k in range(2, 7):
            assert len(construct_D(n, k)) == k * k * (n - 1) - k - 1
            if k >= 3:
                assert len(construct_W(n, k)) == k * k * (n - 1) - 1
                if k * (k - 1) ** (n - 1) - 1 <= 1_000_000:
                    assert len(construct_doubling_k(n, k)) == k * (k - 1) ** (n - 1) - 1
            if k**n - 1 <= 1_000_000:
                assert len(construct_zimin(n, k)) == k**n - 1
        assert len(construct_family(FamilyId.EN, n)) == 9 * n - 13
        assert len(construct_W(n)) == 9 * n - 10
    assert [greedy_length(n) for n in range(1, 7)] == [2, 5, 11, 20, 38, 65]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE length formulas over the full grid: PASS")


def test_constructions_are_free_and_crucial():
    t0 = time.monotonic()
    cases = [(builder(), _exponent_of(tag, builder)) for tag, builder, _ in KNOWN_WORDS]
    for n in range(4, 11):
        for k in range(2, 6):
            cases.append((construct_D(n, k), k))
    for w, k in cases:
        assert is_abelian_power_free(w, k)
        assert is_crucial(w, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE constructions free and crucial ({len(cases)} words, {elapsed:.1f}s): PASS")


def _exponent_of(tag, builder) -> int:
    w = builder()
    if tag in ("zimin", "d"):
        return 2
    if tag in ("doubling", "w", "e"):
        return 3
    # general families: recover k from the length formula
    n = w.alphabet_size
    for k in range(2, 8):
        if len(w) in (k * k * (n - 1) - k - 1, k * k * (n - 1) - 1):
            return k
    raise AssertionError("unrecognized known word")


ROUTINE_MINIMA = [
    (1, 3, 2),
    (2, 3, 5),
    (3, 3, 11),
    (3, 2, 5),
    (4, 2, 9),
    (5, 2, 13),
    (6, 2, 17),
]


def test_routine_exhaustive_minima():
    for n, k, expected in ROUTINE_MINIMA:
        t0 = time.monotonic()
        result = search_minimal(SearchConfig(n=n, k=k))
        elapsed = time.monotonic() - t0
        assert result.exhaustive, (n, k)
        assert result.minimal_length == expected, (n, k)
        assert is_crucial(result.witness, k)
        assert elapsed < 60.0, (n, k, elapsed)
    assert all(m == 4 * n - 7 for n, k, m in ROUTINE_MINIMA if k == 2 and n >= 3)
    print("ACCEPTANCE exhaustive minima for squares and cubes on small alphabets: PASS")


# Proves the minimum by exhaustive search: 122,988 nodes, about 0.4 s on one
# core of a 2-vCPU Intel Xeon VM with Python 3.11.
def test_exhaustive_minimum_four_letter_cubes():
    result = search_minimal(SearchConfig(n=4, k=3))
    assert result.exhaustive
    assert result.minimal_length == 20
    assert result.nodes_expanded == 122_988
    assert result.crucial_words_found == 13_960
    assert is_crucial(result.witness, 3)
    assert is_crucial(optimal_small_word(4), 3)
    print("ACCEPTANCE four-letter cube minimum 20, exhaustive: PASS")


# Certifies that no crucial word for cubes over five letters is shorter than
# 32, the paper's 9n-13 at n = 5, which the family word E_5 attains:
# 817,315 nodes, about 2.6 s on one core of a 2-vCPU Intel Xeon VM with
# Python 3.11.
def test_no_five_letter_cube_word_below_32():
    e5 = construct_family(FamilyId.EN, 5)
    assert len(e5) == 32 and is_crucial(e5, 3)
    result = verify_none_below(
        SearchConfig(n=5, k=3, target_mode=VerifyNoneBelow(32))
    )
    assert result.exhaustive
    assert result.nodes_expanded == 817_315
    assert result.crucial_words_found == 0
    assert result.minimal_length is None
    print("ACCEPTANCE five-letter cube minimum 32, none below certified: PASS")


# Certifies that no crucial word for fourth powers over four letters is
# shorter than 43, the paper's k^2(n-1)-k-1 at n = k = 4, which the family
# word D_{4,4} attains, so 43 is the minimum: 13,479,305 nodes, the same
# from the thread pool as from one walk.
@pytest.mark.parametrize("workers", [1, 2])
def test_no_four_letter_fourth_power_word_below_43(tmp_path, workers):
    d44 = construct_family(FamilyId.DN_K, 4, 4)
    assert len(d44) == 43 and is_crucial(d44, 4)
    result = verify_none_below(
        SearchConfig(
            n=4,
            k=4,
            target_mode=VerifyNoneBelow(43),
            workers=workers,
            checkpoint_path=tmp_path / "n4k4.ckpt",
        )
    )
    assert result.exhaustive
    assert result.nodes_expanded == 13_479_305
    assert result.crucial_words_found == 0
    assert result.minimal_length is None
    print("ACCEPTANCE four-letter fourth-power minimum 43, none below certified: PASS")


# Proves min(2,8) = 39, attained by the binary word B_8 = (1^4 2)^6 1 2 1^7:
# 5,833,304 nodes. Find mode keeps a count and the least of the 1,080,057
# crucial words it scans at 39, not the words.
def test_two_letter_eighth_power_minimum_39():
    b8 = parse_word("11112" * 6 + "12" + "1" * 7)
    assert len(b8) == 39 and is_crucial(b8, 8)
    result = search_minimal(SearchConfig(n=2, k=8))
    assert result.exhaustive
    assert result.minimal_length == 39
    assert result.witness.letters == b8.letters
    assert result.crucial_words_found == 1_080_057
    assert result.nodes_expanded == 5_833_304
    print("ACCEPTANCE two-letter eighth-power minimum 39, exhaustive: PASS")


SYNTHETIC_VIOLATIONS = [
    (OccurrenceProfile(5, (3, 3, 9, 9)), ViolationTag.PAIR_3_3),
    (OccurrenceProfile(5, (6, 6, 6, 9)), ViolationTag.TRIPLE_6_6_6),
    (OccurrenceProfile(5, (3, 6, 6, 9)), ViolationTag.TRIPLE_3_6_6),
    (OccurrenceProfile(2, (3, 6, 9, 9)), ViolationTag.QUINT_2_3_6_9_9),
]


def test_profile_structure_of_small_optimal_family():
    t0 = time.monotonic()
    for n in range(5, 13):
        p = occurrence_profile(construct_family(FamilyId.EN, n))
        assert p.a0 == 5
        assert p.rest == (3, 6) + (9,) * (n - 3)
        assert profile_violations(p) == []
    for profile, tag in SYNTHETIC_VIOLATIONS:
        assert tag in profile_violations(profile)
    profile_elapsed = time.monotonic() - t0
    assert profile_elapsed < 10.0

    words = list(
        enumerate_crucial(
            SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11))
        )
    )
    assert len(words) == 44
    for w in words:
        renamed, _ = normalize(w, 3)
        assert profile_violations(occurrence_profile(renamed)) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print("ACCEPTANCE occurrence profiles clean on families and enumerated minima: PASS")


def _reference_occurrence(prefix_counts, length, k):
    """Abelian k-power ending at position length, smallest block; reads
    prefix_counts only up to index length."""
    def block(j, b):
        return tuple(map(sub, prefix_counts[length - j * b], prefix_counts[length - (j + 1) * b]))

    for b in range(1, length // k + 1):
        last = block(0, b)
        if all(block(j, b) == last for j in range(1, k)):  # stops at the first differing block
            return (length - k * b, length, b)
    return None


def _naive_occurrence(letters, n, k):
    """Full scan, earliest end then smallest block; independent of the library."""
    L = len(letters)
    pref = [(0,) * n]
    for a in letters:
        row = list(pref[-1])
        row[a - 1] += 1
        pref.append(tuple(row))
    for end in range(k, L + 1):
        got = _reference_occurrence(pref, end, k)
        if got is not None:
            return got
    return None


def test_power_detector_matches_reference():
    t0 = time.monotonic()
    n, maxlen, kvals = 3, 12, (2, 3, 4)
    comparisons = 0

    def against_library(letters, best):
        nonlocal comparisons
        w = Word(letters, n)
        for k in kvals:
            occ = find_abelian_power(w, k)
            lib = None if occ is None else (occ.start, occ.end, occ.block_length)
            assert lib == best[k], (letters, k)
            comparisons += 1

    def dfs(letters, pref, parent):
        L = len(letters)
        best = {}
        for k in kvals:
            got = parent[k]
            if got is None:
                got = _reference_occurrence(pref, L, k)
            best[k] = got
        against_library(letters, best)
        if L == maxlen:
            return
        for x in range(1, n + 1):
            row = list(pref[-1])
            row[x - 1] += 1
            dfs(letters + (x,), pref + [tuple(row)], best)

    none_parent = {k: None for k in kvals}
    for x in range(1, n + 1):
        row = [0] * n
        row[x - 1] = 1
        dfs((x,), [(0,) * n, tuple(row)], none_parent)
    assert comparisons == sum(3**L for L in range(1, maxlen + 1)) * len(kvals)

    rng = random.Random(20260819)
    for _ in range(100_000):
        rn = rng.randint(1, 6)
        rl = rng.randint(1, 40)
        rk = rng.choice(kvals)
        letters = tuple(rng.randint(1, rn) for _ in range(rl))
        w = Word(letters, rn)
        occ = find_abelian_power(w, rk)
        lib = None if occ is None else (occ.start, occ.end, occ.block_length)
        assert lib == _naive_occurrence(letters, rn, rk), (letters, rk)
        comparisons += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE power detector matches reference ({comparisons} comparisons, "
        f"{elapsed:.0f}s): PASS"
    )


def test_bounds_are_consistent_and_witnessed():
    t0 = time.monotonic()
    for n in range(1, 13):
        for k in range(2, 7):
            b = bounds(n, k)
            assert b.lower <= b.upper
            if b.exact is not None:
                assert b.lower <= b.exact <= b.upper
            witness = construct_family(b.upper_family, n, k)
            assert len(witness) == b.upper
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE bounds bracketed and witnessed across the grid: PASS")
