"""The package's value records behave as the frozen dataclasses they replace.

Word, PowerOccurrence, CrucialDecomposition, OccurrenceProfile and Bounds are
plain classes. These tests pin what callers could rely on before: the repr
text, equality and hashing by field values within one class, positional and
keyword construction, TypeError on a bad signature, AttributeError on
assignment and deletion, pickling and positional match.
"""

import copy
import pickle

import pytest

from crucialis.constructions import Bounds, FamilyId, bounds, construct_family
from crucialis.cruciality import CrucialDecomposition, OccurrenceProfile, decompose
from crucialis.errors import DomainError
from crucialis.powers import PowerOccurrence, find_abelian_power
from crucialis.words import Word, word

# (record, its repr as the frozen dataclasses printed it, its fields)
_CASES = [
    (Word((1, 2, 1, 3), 3), "Word(letters=(1, 2, 1, 3), alphabet_size=3)", ((1, 2, 1, 3), 3)),
    (
        find_abelian_power(word((1, 2, 1, 2, 2, 1)), 2),
        "PowerOccurrence(start=0, block_length=2, exponent=2)",
        (0, 2, 2),
    ),
    (OccurrenceProfile(2, (3, 6)), "OccurrenceProfile(a0=2, rest=(3, 6))", (2, (3, 6))),
    (
        bounds(4, 3),
        "Bounds(lower=11, upper=20, exact=20, upper_family=<FamilyId.SMALLOPT: 'smallopt'>)",
        (11, 20, 20, FamilyId.SMALLOPT),
    ),
    (
        decompose(construct_family(FamilyId.SMALLOPT, 2, 3), 3),
        "CrucialDecomposition(word=Word(letters=(2, 1, 2, 1, 1), alphabet_size=2), exponent=3, "
        "delta_lengths=(2, 5), gaps=(Word(letters=(2, 1, 2), alphabet_size=2),), "
        "blocks=((Word(letters=(1,), alphabet_size=2), Word(letters=(1,), alphabet_size=2), "
        "Word(letters=(1,), alphabet_size=2)), (Word(letters=(2, 1), alphabet_size=2), "
        "Word(letters=(2, 1), alphabet_size=2), Word(letters=(1, 2), alphabet_size=2))))",
        (
            Word((2, 1, 2, 1, 1), 2),
            3,
            (2, 5),
            (Word((2, 1, 2), 2),),
            (
                (Word((1,), 2),) * 3,
                (Word((2, 1), 2), Word((2, 1), 2), Word((1, 2), 2)),
            ),
        ),
    ),
]
_IDS = [type(r).__name__ for r, _, _ in _CASES]


@pytest.fixture(params=_CASES, ids=_IDS)
def case(request):
    return request.param


def test_repr_is_the_dataclass_repr(case):
    record, text, _ = case
    assert repr(record) == text


def test_positional_and_keyword_construction(case):
    record, _, values = case
    cls = type(record)
    by_keyword = cls(**dict(zip(cls.__match_args__, values)))
    for built in (cls(*values), by_keyword):
        assert type(built) is cls
        assert built == record and hash(built) == hash(record)
        assert repr(built) == repr(record)
    assert tuple(getattr(record, f) for f in cls.__match_args__) == values


def test_equal_copies_and_no_equality_across_classes(case):
    record, _, values = case
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert other == record and hash(other) == hash(record) and repr(other) == repr(record)
        assert not other != record

    class Lookalike:
        __match_args__ = type(record).__match_args__

    twin = Lookalike()
    twin.__dict__.update(zip(Lookalike.__match_args__, values))
    assert record != twin and not record == twin
    assert record != values and record.__eq__(values) is NotImplemented


def test_bad_signature_is_a_type_error(case):
    record, _, values = case
    cls = type(record)
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        cls(*values, colour=1)


def test_fields_are_read_only(case):
    record, text, _ = case
    field = type(record).__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_positional_match(case):
    record, _, values = case
    match record:
        case Word(letters, n):
            assert (letters, n) == values
        case PowerOccurrence(start, b, k):
            assert (start, b, k) == values
        case OccurrenceProfile(a0, rest):
            assert (a0, rest) == values
        case Bounds(lower, upper, exact, family):
            assert (lower, upper, exact, family) == values
        case CrucialDecomposition(w, k, deltas, gaps, blocks):
            assert (w, k, deltas, gaps, blocks) == values
        case _:
            pytest.fail(f"no positional pattern matched {record!r}")


def test_constructors_keep_their_checks():
    assert Word([1, 2], 2).letters == (1, 2)
    assert OccurrenceProfile(a0=1, rest=[2, 3]).rest == (2, 3)
    with pytest.raises(DomainError, match="letter 3 outside alphabet 1..2"):
        Word((1, 3), 2)
    with pytest.raises(DomainError, match="alphabet_size must be in 1..64"):
        Word((1,), 65)
    with pytest.raises(DomainError, match="non-decreasing"):
        OccurrenceProfile(1, (3, 2))
    with pytest.raises(DomainError, match="non-negative ints"):
        OccurrenceProfile(True, ())
