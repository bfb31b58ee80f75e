"""Construction families: exact words, length formulas, cruciality, bounds."""

import pytest

from crucialis.constructions import (
    Bounds,
    FamilyId,
    bounds,
    construct_D,
    construct_W,
    construct_doubling_k,
    construct_family,
    construct_zimin,
    family_exponent,
    family_length,
    greedy_length,
    optimal_small_word,
)
from crucialis.cruciality import is_crucial
from crucialis.errors import CapacityError, DomainError
from crucialis.powers import find_abelian_power
from crucialis.words import parse_word, render_word

import direct_families

ZIMIN_SQUARE = {
    1: "1",
    2: "121",
    3: "1213121",
    4: "121312141213121",
}

DOUBLING_CUBE = {
    2: "21211",
    3: "31213121211",
}

W_CUBE = {
    4: "344233122433221432" "32122334",
    5: "455344233122544332215432" "43212233445",
    6: "566455344233122655443322165432" "54321223344556",
    7: "677566455344233122766554433221765432" "65432122334455667",
}

E_WORDS = {
    4: "344233113423113432" "33411",
    5: "455344233114534231134543" "23344511",
    6: "566455344233115645342311345654" "32334455611",
    7: "677566455344233116756453423113456765" "43233445566711",
}

D_SQUARE = {
    4: "342313231",
    5: "4534231432341",
    6: "56453423154323451",
    7: "675645342316543234561",
}

D_GENERAL = {
    (4, 3): "344233113423113432334" "11",
    (5, 3): "455344233114534231134543233445" "11",
    (5, 4): "455534442333111455344233111345453423111334455432333444551" "11",
    (4, 4): "344423331113442331113434231113344323334411" "1",
    (4, 5): "344442333311113444233311113434423311113344342311113334443233334441" "111",
    (6, 4): "566645553444233311156645534423311134565645342311133445566543233344455566" "111",
}

W_GENERAL = {
    (4, 4): "34442333122234423312243243322144332232122233344",
    (5, 4): "4555344423331222455344233122543254433221554433224321222333444" "55",
    (4, 5): "34444233331222234442333122243234423312244332243322144433322232122223333444",
}

OPTIMAL_CUBE = {
    1: "11",
    2: "21211",
    3: "11231321211",
    4: "42131214231211321211",
}


class TestZimin:
    @pytest.mark.parametrize("n,text", sorted(ZIMIN_SQUARE.items()))
    def test_square_words(self, n, text):
        assert str(construct_zimin(n)) == text

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_length_formula(self, n, k):
        if k**n - 1 > 1_000_000:
            pytest.skip("over default cap")
        assert len(construct_zimin(n, k)) == k**n - 1

    @pytest.mark.parametrize("n,k", [(3, 2), (2, 3), (2, 4), (4, 2)])
    def test_crucial(self, n, k):
        assert is_crucial(construct_zimin(n, k), k)

    def test_cap_guard(self):
        with pytest.raises(CapacityError):
            construct_zimin(30, 2)
        with pytest.raises(CapacityError):
            construct_zimin(5, 2, length_cap=10)
        assert len(construct_zimin(5, 2, length_cap=31)) == 31

    def test_domain(self):
        with pytest.raises(DomainError):
            construct_zimin(0)
        with pytest.raises(DomainError):
            construct_zimin(3, 1)


class TestDoubling:
    @pytest.mark.parametrize("n,text", sorted(DOUBLING_CUBE.items()))
    def test_cube_words(self, n, text):
        assert str(direct_families.construct_doubling_cube(n)) == text

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cube_length(self, n):
        assert len(construct_family(FamilyId.DOUBLING, n)) == 3 * 2 ** (n - 1) - 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_general_form_specializes_to_cube(self, n):
        assert construct_doubling_k(n, 3) == direct_families.construct_doubling_cube(n)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(3, 7))
    def test_general_length(self, n, k):
        if k * (k - 1) ** (n - 1) - 1 > 1_000_000:
            pytest.skip("over default cap")
        assert len(construct_doubling_k(n, k)) == k * (k - 1) ** (n - 1) - 1

    @pytest.mark.parametrize("n,k", [(4, 3), (3, 4), (2, 5), (3, 5)])
    def test_crucial(self, n, k):
        assert is_crucial(construct_doubling_k(n, k), k)

    def test_domain(self):
        with pytest.raises(DomainError):
            construct_doubling_k(3, 2)
        with pytest.raises(DomainError):
            construct_family(FamilyId.DOUBLING, 0)


class TestWFamily:
    @pytest.mark.parametrize("n,text", sorted(W_CUBE.items()))
    def test_cube_words(self, n, text):
        assert str(construct_W(n)) == text

    @pytest.mark.parametrize("case,text", sorted(W_GENERAL.items()))
    def test_general_words(self, case, text):
        n, k = case
        assert str(construct_W(n, k)) == text

    @pytest.mark.parametrize("n", range(4, 13))
    def test_cube_length(self, n):
        assert len(construct_W(n)) == 9 * n - 10

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("k", range(3, 7))
    def test_general_length(self, n, k):
        assert len(construct_W(n, k)) == k * k * (n - 1) - 1

    @pytest.mark.parametrize("n,k", [(4, 3), (7, 3), (4, 4), (5, 4), (4, 5)])
    def test_crucial(self, n, k):
        assert is_crucial(construct_W(n, k), k)

    def test_domain(self):
        with pytest.raises(DomainError):
            construct_W(3)
        with pytest.raises(DomainError):
            construct_W(5, 2)


class TestEFamily:
    @pytest.mark.parametrize("n,text", sorted(E_WORDS.items()))
    def test_words(self, n, text):
        assert str(direct_families.construct_E(n)) == text

    @pytest.mark.parametrize("n", range(4, 13))
    def test_length(self, n):
        assert len(construct_family(FamilyId.EN, n)) == 9 * n - 13

    @pytest.mark.parametrize("n", range(4, 13))
    def test_matches_general_d_at_cube(self, n):
        assert direct_families.construct_E(n) == construct_D(n, 3)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_crucial(self, n):
        assert is_crucial(construct_family(FamilyId.EN, n), 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            construct_family(FamilyId.EN, 3)


class TestDFamily:
    @pytest.mark.parametrize("n,text", sorted(D_SQUARE.items()))
    def test_square_words(self, n, text):
        assert str(construct_D(n)) == text

    @pytest.mark.parametrize("case,text", sorted(D_GENERAL.items()))
    def test_general_words(self, case, text):
        n, k = case
        assert str(construct_D(n, k)) == text

    @pytest.mark.parametrize("n", range(4, 13))
    def test_square_length(self, n):
        assert len(construct_D(n)) == 4 * n - 7

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_general_length(self, n, k):
        assert len(construct_D(n, k)) == k * k * (n - 1) - k - 1

    @pytest.mark.parametrize("n,k", [(4, 2), (8, 2), (4, 4), (5, 4), (4, 5)])
    def test_crucial(self, n, k):
        assert is_crucial(construct_D(n, k), k)

    def test_domain(self):
        with pytest.raises(DomainError):
            construct_D(3)
        with pytest.raises(DomainError):
            construct_D(5, 1)


class TestOptimalSmall:
    @pytest.mark.parametrize("n,text", sorted(OPTIMAL_CUBE.items()))
    def test_words(self, n, text):
        assert str(optimal_small_word(n)) == text

    @pytest.mark.parametrize("n", range(1, 5))
    def test_crucial(self, n):
        assert is_crucial(optimal_small_word(n), 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_small_word(5)
        with pytest.raises(DomainError):
            optimal_small_word(0)


class TestGreedyLength:
    @pytest.mark.parametrize(
        "n,length", [(1, 2), (2, 5), (3, 11), (4, 20), (5, 38), (6, 65)]
    )
    def test_values(self, n, length):
        assert greedy_length(n) == length

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_optimum_up_to_four_letters(self, n):
        assert greedy_length(n) == len(optimal_small_word(n))

    def test_domain(self):
        for n in (0, True, 2.0):  # a bool or float is no alphabet size
            with pytest.raises(DomainError):
                greedy_length(n)


class TestFamilyDispatch:
    def test_exponents(self):
        assert family_exponent(FamilyId.ZIMIN) == 2
        assert family_exponent(FamilyId.DOUBLING) == 3
        assert family_exponent(FamilyId.WN) == 3
        assert family_exponent(FamilyId.DN) == 2
        assert family_exponent(FamilyId.EN) == 3
        assert family_exponent(FamilyId.SMALLOPT) == 3
        assert family_exponent(FamilyId.ZIMIN_K) is None
        assert family_exponent(FamilyId.DOUBLING_K) is None
        assert family_exponent(FamilyId.WN_K) is None
        assert family_exponent(FamilyId.DN_K) is None

    def test_fixed_family_accepts_matching_k(self):
        assert construct_family(FamilyId.ZIMIN, 3) == construct_zimin(3)
        assert construct_family(FamilyId.ZIMIN, 3, k=2) == construct_zimin(3)
        assert construct_family(FamilyId.EN, 5, k=3) == direct_families.construct_E(5)

    def test_fixed_family_rejects_other_k(self):
        with pytest.raises(DomainError):
            construct_family(FamilyId.ZIMIN, 3, k=3)
        with pytest.raises(DomainError):
            construct_family(FamilyId.SMALLOPT, 2, k=2)

    def test_free_family_requires_k(self):
        with pytest.raises(DomainError):
            construct_family(FamilyId.DN_K, 5)
        assert construct_family(FamilyId.DN_K, 5, k=4) == construct_D(5, 4)

    def test_value_round_trip(self):
        for fam in FamilyId:
            assert FamilyId(fam.value) is fam

    def test_length_formula_matches_built_word(self):
        four_up = {FamilyId.WN, FamilyId.WN_K, FamilyId.DN, FamilyId.EN, FamilyId.DN_K}
        for fam in FamilyId:
            fixed = family_exponent(fam)
            n_max = 4 if fam is FamilyId.SMALLOPT else 6
            k_min = 3 if fam in (FamilyId.DOUBLING_K, FamilyId.WN_K) else 2
            for n in range(4 if fam in four_up else 1, n_max + 1):
                for k in [fixed] if fixed else range(k_min, 6):
                    assert family_length(fam, n, k) == len(construct_family(fam, n, k))
        assert family_length(FamilyId.ZIMIN_K, 8, 6) == 6**8 - 1  # over the cap, not built
        with pytest.raises(DomainError):
            family_length(FamilyId.ZIMIN, 3, k=3)


# The domain of each family, restated: (least n, largest n or None, least k,
# fixed exponent or None).
FAMILY_DOMAINS = {
    FamilyId.ZIMIN: (1, None, 2, 2),
    FamilyId.ZIMIN_K: (1, None, 2, None),
    FamilyId.DOUBLING: (1, None, 3, 3),
    FamilyId.DOUBLING_K: (1, None, 3, None),
    FamilyId.WN: (4, None, 3, 3),
    FamilyId.WN_K: (4, None, 3, None),
    FamilyId.DN: (4, None, 2, 2),
    FamilyId.EN: (4, None, 3, 3),
    FamilyId.DN_K: (4, None, 2, None),
    FamilyId.SMALLOPT: (1, 4, 3, 3),
}


def paper_upper(n, k):
    """bounds()'s upper bound and family by the conditions it used to spell
    out: the first shortest of dnk (n >= 4), smallopt (k = 3, n <= 4),
    doublingk (k >= 3) and zimink."""
    candidates = []
    if n >= 4:
        candidates.append((k * k * (n - 1) - k - 1, FamilyId.DN_K))
    if k == 3 and n <= 4:
        candidates.append(((2, 5, 11, 20)[n - 1], FamilyId.SMALLOPT))
    if k >= 3:
        candidates.append((k * (k - 1) ** (n - 1) - 1, FamilyId.DOUBLING_K))
    candidates.append((k**n - 1, FamilyId.ZIMIN_K))
    return min(candidates, key=lambda c: c[0])


class TestFamilyTable:
    def test_every_family_has_a_domain(self):
        assert set(FAMILY_DOMAINS) == set(FamilyId)
        for fam, (_, _, _, fixed) in FAMILY_DOMAINS.items():
            assert family_exponent(fam) == fixed

    @pytest.mark.parametrize("fam", list(FamilyId))
    def test_corners_build_crucial_words(self, fam):
        n_min, n_max, k_min, fixed = FAMILY_DOMAINS[fam]
        k = fixed or k_min
        for n in {n_min, n_max or n_min}:
            w = construct_family(fam, n, k)
            assert len(w) == family_length(fam, n, k)
            assert w.alphabet_size == n
            assert is_crucial(w, k)

    @pytest.mark.parametrize("fam", list(FamilyId))
    def test_one_step_outside_raises(self, fam):
        n_min, n_max, k_min, fixed = FAMILY_DOMAINS[fam]
        outside = [(n_min - 1, fixed or k_min), (n_min, k_min - 1)]
        if n_max is not None:
            outside.append((n_max + 1, fixed or k_min))
        if fixed is not None:
            outside.append((n_min, fixed + 1))
            outside.append((n_min, float(fixed)))  # equal to the exponent, but no int
        else:
            outside.append((n_min, float(k_min)))  # a float is no exponent
        outside.append((float(n_min), fixed or k_min))  # nor alphabet size
        if n_min == 1:
            outside.append((True, fixed or k_min))  # a bool is no size, though True == 1
        for n, k in outside:
            with pytest.raises(DomainError):
                construct_family(fam, n, k)
            with pytest.raises(DomainError):
                family_length(fam, n, k)

    @pytest.mark.parametrize("n,k", [(True, 3), (3.0, 3), (3, 3.0), (3, True)])
    def test_bounds_rejects_non_int_arguments(self, n, k):
        with pytest.raises(DomainError):
            bounds(n, k)

    def test_bounds_upper_restates_the_paper_conditions(self):
        for n in range(1, 13):
            for k in range(2, 7):
                b = bounds(n, k)
                assert (b.upper, b.upper_family) == paper_upper(n, k), (n, k)


class TestBounds:
    @pytest.mark.parametrize(
        "n,k,expect",
        [
            (4, 3, Bounds(11, 20, 20, FamilyId.SMALLOPT)),
            (6, 3, Bounds(41, 41, 41, FamilyId.DN_K)),
            (5, 4, Bounds(43, 59, None, FamilyId.DN_K)),
            (2, 2, Bounds(3, 3, 3, FamilyId.ZIMIN_K)),
            (5, 2, Bounds(9, 13, 13, FamilyId.DN_K)),
            (1, 3, Bounds(2, 2, 2, FamilyId.SMALLOPT)),
        ],
    )
    def test_known_values(self, n, k, expect):
        assert bounds(n, k) == expect

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_bracket_invariants(self, n, k):
        b = bounds(n, k)
        assert b.lower <= b.upper
        if b.exact is not None:
            assert b.lower <= b.exact <= b.upper

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_upper_is_witnessed(self, n, k):
        b = bounds(n, k)
        witness = construct_family(b.upper_family, n, k)
        assert len(witness) == b.upper

    def test_exact_squares_formula(self):
        for n in range(3, 13):
            assert bounds(n, 2).exact == 4 * n - 7

    def test_exact_cubes(self):
        for n, length in [(1, 2), (2, 5), (3, 11), (4, 20)]:
            assert bounds(n, 3).exact == length
        for n in range(5, 13):
            assert bounds(n, 3).exact == 9 * n - 13

    def test_no_exact_claim_for_higher_exponents(self):
        for k in range(4, 7):
            for n in range(1, 13):
                assert bounds(n, k).exact is None

    def test_domain(self):
        with pytest.raises(DomainError):
            bounds(0, 3)
        with pytest.raises(DomainError):
            bounds(3, 1)


class TestFreeness:
    # every constructed word must itself avoid the power it is crucial for
    @pytest.mark.parametrize(
        "builder,k",
        [
            (lambda: construct_zimin(4), 2),
            (lambda: construct_doubling_k(4, 3), 3),
            (lambda: construct_W(6), 3),
            (lambda: construct_D(7, 3), 3),
            (lambda: construct_D(7), 2),
            (lambda: construct_D(5, 4), 4),
            (lambda: construct_W(4, 5), 5),
            (lambda: optimal_small_word(4), 3),
        ],
    )
    def test_constructions_are_free(self, builder, k):
        w = builder()
        assert find_abelian_power(w, k) is None

    def test_render_round_trip(self):
        w = construct_D(6, 4)
        assert parse_word(render_word(w)) == w
