"""Cruciality, maximality, chain decomposition, normalization, profiles."""

import random

import pytest

from crucialis.constructions import construct_D, construct_W
from crucialis.cruciality import (
    CrucialDecomposition,
    OccurrenceProfile,
    ViolationTag,
    decompose,
    is_crucial,
    is_maximal,
    normalize,
    occurrence_profile,
    profile_violations,
)
from crucialis.errors import (
    DomainError,
    IncompleteChainError,
    NamingError,
    NotCrucialError,
)
from crucialis.words import Word, parse_word, word


class TestIsCrucial:
    def test_minimal_two_letter_word(self):
        assert is_crucial(parse_word("21211"), 3)

    def test_single_letter_alphabet(self):
        assert is_crucial(parse_word("11"), 3)

    def test_prefix_is_not_crucial(self):
        # appending 1 to 2121 gives no abelian cube suffix
        assert not is_crucial(parse_word("2121"), 3)

    def test_e4_is_crucial(self):
        assert is_crucial(parse_word("34423311342311343233411"), 3)

    def test_non_free_word_is_not_crucial(self):
        assert not is_crucial(parse_word("111"), 3)

    def test_missing_letter_blocks_cruciality(self):
        # letter 3 never occurs, so no appended 3 can complete a power
        assert not is_crucial(Word((1, 1), 3), 3)

    def test_empty_word_rejected(self):
        with pytest.raises(DomainError):
            is_crucial(Word((), 1), 3)

    def test_bad_exponent_rejected(self):
        with pytest.raises(DomainError):
            is_crucial(parse_word("11"), 1)


class TestIsMaximal:
    def test_crucial_but_not_maximal(self):
        assert not is_maximal(parse_word("21211"), 3)

    def test_single_letter_maximal(self):
        assert is_maximal(parse_word("11"), 3)

    def test_non_free_is_never_maximal(self):
        assert not is_maximal(parse_word("111"), 3)

    def test_maximal_square_free_word(self):
        # both extensions of 11 by either side create squares over one letter
        assert is_maximal(parse_word("1"), 2)


class TestDecompose:
    def test_two_letter_example(self):
        dec = decompose(parse_word("21211"), 3)
        assert dec.delta_lengths == (2, 5)
        assert str(dec.delta(1)) == "11"
        assert str(dec.delta(2)) == "21211"
        assert [str(g) for g in dec.gaps] == ["212"]

    def test_e4_blocks(self):
        dec = decompose(parse_word("34423311342311343233411"), 3)
        assert dec.delta_lengths[-1] == 23
        assert [str(b) for b in dec.blocks[3]] == ["34423311", "34231134", "32334114"]

    def test_single_letter(self):
        dec = decompose(parse_word("11"), 3)
        assert dec.delta_lengths == (2,)
        assert dec.gaps == ()

    def test_block_balance(self):
        from crucialis.words import parikh

        for w, k in [
            (parse_word("21211"), 3),
            (construct_D(5, 3), 3),
            (construct_D(4, 4), 4),
        ]:
            dec = decompose(w, k)
            for blocks in dec.blocks:
                ref = parikh(blocks[0], 0, len(blocks[0]))
                for blk in blocks[1:]:
                    assert parikh(blk, 0, len(blk)) == ref

    def test_recompose_identity(self):
        for w, k in [
            (parse_word("21211"), 3),
            (construct_D(6, 3), 3),
            (construct_W(5, 4), 4),
            (construct_D(7, 2), 2),
        ]:
            dec = decompose(w, k)
            rebuilt = ()
            for gap in reversed(dec.gaps):
                rebuilt += gap.letters
            rebuilt += dec.delta(1).letters
            assert rebuilt == w.letters

    def test_not_crucial_rejected(self):
        with pytest.raises(NotCrucialError, match="^decompose is only defined for crucial words$"):
            decompose(parse_word("2121"), 3)
        with pytest.raises(NotCrucialError, match="^decompose is only defined"):
            decompose(parse_word("1211"), 2)

    def test_wrong_naming_rejected(self):
        # 12122 is crucial but letter 1 has the longer suffix
        with pytest.raises(NamingError):
            decompose(parse_word("12122"), 3)

    def test_chain_must_span_word(self):
        # 121211 is crucial for cubes but its longest suffix has length 5
        w = parse_word("121211")
        assert is_crucial(w, 3)
        with pytest.raises(IncompleteChainError):
            decompose(w, 3)

    def test_delta_accessor_bounds(self):
        dec = decompose(parse_word("21211"), 3)
        with pytest.raises(IndexError):
            dec.delta(3)
        with pytest.raises(IndexError):
            dec.delta(0)
        for i in (True, 1.0):  # a bool or float is no letter
            with pytest.raises(DomainError):
                dec.delta(i)


class TestNormalize:
    def test_identity_when_nested(self):
        w = parse_word("21211")
        renamed, perm = normalize(w, 3)
        assert renamed == w
        assert perm == (1, 2)

    def test_swap_recovers_nested_order(self):
        renamed, perm = normalize(parse_word("12122"), 3)
        assert str(renamed) == "21211"
        assert perm == (2, 1)

    def test_construction_already_nested(self):
        w = construct_D(5, 4)
        renamed, perm = normalize(w, 4)
        assert renamed == w
        assert perm == (1, 2, 3, 4, 5)

    def test_idempotent(self):
        renamed, _ = normalize(parse_word("12122"), 3)
        again, perm = normalize(renamed, 3)
        assert again == renamed
        assert perm == tuple(range(1, renamed.alphabet_size + 1))

    def test_normalized_word_decomposes(self):
        renamed, _ = normalize(parse_word("12122"), 3)
        assert decompose(renamed, 3).delta_lengths == (2, 5)

    def test_not_crucial_rejected(self):
        with pytest.raises(NotCrucialError, match="^normalize is only defined for crucial words$"):
            normalize(parse_word("2121"), 3)
        with pytest.raises(NotCrucialError, match="^normalize is only defined"):
            normalize(parse_word("1211"), 2)

    def test_relabeling_preserves_cruciality(self):
        rng = random.Random(3)
        base = construct_D(5, 3)
        n = base.alphabet_size
        for _ in range(10):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabeled = Word(tuple(perm[a - 1] for a in base.letters), n)
            assert is_crucial(relabeled, 3)
            renamed, _ = normalize(relabeled, 3)
            assert renamed == base


class TestOccurrenceProfile:
    def test_e4(self):
        p = occurrence_profile(parse_word("34423311342311343233411"))
        assert p.a0 == 5
        assert p.rest == (3, 6, 9)

    def test_e6(self):
        p = occurrence_profile(construct_D(6, 3))
        assert (p.a0, p.rest) == (5, (3, 6, 9, 9, 9))

    def test_single_letter(self):
        p = occurrence_profile(parse_word("11"))
        assert (p.a0, p.rest) == (2, ())

    def test_counts_letter_n_separately(self):
        p = occurrence_profile(Word((1, 2, 2, 3), 3))
        assert p.a0 == 1
        assert p.rest == (1, 2)

    def test_rest_must_be_sorted(self):
        with pytest.raises(DomainError):
            OccurrenceProfile(a0=2, rest=(6, 3))

    @pytest.mark.parametrize(
        "a0,rest",
        [(5.0, (3, 6)), (True, (3,)), (2, (3, 6.0)), (2, (False, 3)), (-1, (3,)), (2, (-3, 3))],
    )
    def test_counts_must_be_non_negative_ints(self, a0, rest):
        with pytest.raises(DomainError):
            OccurrenceProfile(a0, rest)

    def test_list_rest_becomes_a_tuple(self):
        p = OccurrenceProfile(2, [3, 6, 9, 9])
        assert p == OccurrenceProfile(2, (3, 6, 9, 9))
        assert profile_violations(p) == [ViolationTag.QUINT_2_3_6_9_9]

    def test_str(self):
        assert str(OccurrenceProfile(5, (3, 6, 9))) == "(5; 3, 6, 9)"


class TestProfileViolations:
    def test_consistent_profile(self):
        assert profile_violations(OccurrenceProfile(5, (3, 6, 9, 9))) == []

    @pytest.mark.parametrize(
        "profile,tags",
        [
            (OccurrenceProfile(5, (3, 3, 9, 9)), [ViolationTag.PAIR_3_3]),
            (OccurrenceProfile(5, (6, 6, 6, 9)), [ViolationTag.TRIPLE_6_6_6]),
            (OccurrenceProfile(5, (3, 6, 6, 9)), [ViolationTag.TRIPLE_3_6_6]),
            (OccurrenceProfile(2, (3, 6, 9, 9)), [ViolationTag.QUINT_2_3_6_9_9]),
        ],
    )
    def test_single_violations(self, profile, tags):
        assert profile_violations(profile) == tags

    def test_combined_violations(self):
        report = profile_violations(OccurrenceProfile(5, (3, 3, 6, 6)))
        assert ViolationTag.PAIR_3_3 in report
        assert ViolationTag.TRIPLE_3_6_6 in report

    def test_divisibility(self):
        assert profile_violations(OccurrenceProfile(3, (3, 6))) == [
            ViolationTag.DIVISIBILITY
        ]
        assert profile_violations(OccurrenceProfile(2, (4, 6))) == [
            ViolationTag.DIVISIBILITY
        ]

    def test_quint_is_prefix_shaped(self):
        # longer profiles starting 3,6,9,9 with a0=2 still violate
        report = profile_violations(OccurrenceProfile(2, (3, 6, 9, 9, 12)))
        assert ViolationTag.QUINT_2_3_6_9_9 in report

    def test_other_exponent_checks_divisibility_only(self):
        report = profile_violations(OccurrenceProfile(1, (2, 4)), k=2)
        assert report == []
        assert report.note is not None
        report = profile_violations(OccurrenceProfile(2, (3, 3)), k=4)
        assert report == [ViolationTag.DIVISIBILITY]
        assert "exponent 3" in report.note

    def test_stable_tag_names(self):
        assert [t.name for t in ViolationTag] == [
            "DIVISIBILITY",
            "PAIR_3_3",
            "TRIPLE_6_6_6",
            "TRIPLE_3_6_6",
            "QUINT_2_3_6_9_9",
        ]

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            profile_violations(OccurrenceProfile(2, (3,)), k=1)


class TestDecompositionType:
    def test_fields(self):
        dec = decompose(word((2, 1, 2, 1, 1)), 3)
        assert isinstance(dec, CrucialDecomposition)
        assert dec.exponent == 3
        assert len(dec.blocks) == 2
        assert all(len(blocks) == 3 for blocks in dec.blocks)
