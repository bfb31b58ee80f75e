"""Crucial words avoiding abelian k-th powers: construction, verification, search.

A word over {1..n} is crucial for exponent k when it contains no abelian
k-th power but appending any letter creates one. The package provides the
combinatorics on words core (Parikh vectors, abelian power detection), the
cruciality predicates and suffix-chain decomposition, the known construction
families with their length formulas and bounds, and an exhaustive search
engine for minimal-length words at small alphabet sizes.
"""

from .constructions import (
    DEFAULT_LENGTH_CAP,
    Bounds,
    FamilyId,
    bounds,
    construct_D,
    construct_W,
    construct_doubling_k,
    construct_family,
    construct_zimin,
    family_exponent,
    greedy_length,
    optimal_small_word,
)
from .cruciality import (
    CrucialDecomposition,
    OccurrenceProfile,
    ViolationReport,
    ViolationTag,
    decompose,
    is_crucial,
    is_maximal,
    normalize,
    occurrence_profile,
    profile_violations,
)
from .errors import (
    BudgetExhaustedError,
    CapacityError,
    CrucialisError,
    DomainError,
    FormatError,
    IncompleteChainError,
    NamingError,
    NotCrucialError,
    ParseError,
)
from .powers import (
    PowerOccurrence,
    find_abelian_power,
    find_exact_power,
    is_abelian_power_free,
    suffix_abelian_power,
)
from .search import (
    EnumerateAllCrucialAtLength,
    FindMinimalCrucial,
    SearchConfig,
    SearchResult,
    VerifyNoneBelow,
    enumerate_crucial,
    search_minimal,
    verify_none_below,
)
from .words import (
    EMPTY_WORD,
    MAX_ALPHABET,
    Word,
    WordFormat,
    parikh,
    parse_word,
    read_corpus,
    render_word,
    word,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "BudgetExhaustedError",
    "CapacityError",
    "CrucialDecomposition",
    "CrucialisError",
    "DEFAULT_LENGTH_CAP",
    "DomainError",
    "EMPTY_WORD",
    "EnumerateAllCrucialAtLength",
    "FamilyId",
    "FindMinimalCrucial",
    "FormatError",
    "IncompleteChainError",
    "MAX_ALPHABET",
    "NamingError",
    "NotCrucialError",
    "OccurrenceProfile",
    "ParseError",
    "PowerOccurrence",
    "SearchConfig",
    "SearchResult",
    "VerifyNoneBelow",
    "ViolationReport",
    "ViolationTag",
    "Word",
    "WordFormat",
    "bounds",
    "construct_D",
    "construct_W",
    "construct_doubling_k",
    "construct_family",
    "construct_zimin",
    "decompose",
    "enumerate_crucial",
    "family_exponent",
    "find_abelian_power",
    "find_exact_power",
    "greedy_length",
    "is_abelian_power_free",
    "is_crucial",
    "is_maximal",
    "normalize",
    "occurrence_profile",
    "optimal_small_word",
    "parikh",
    "parse_word",
    "profile_violations",
    "read_corpus",
    "render_word",
    "search_minimal",
    "suffix_abelian_power",
    "verify_none_below",
    "word",
]
