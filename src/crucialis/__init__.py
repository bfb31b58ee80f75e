"""Crucial words avoiding abelian k-th powers: construction, verification, search.

A word over {1..n} is crucial for exponent k when it contains no abelian
k-th power but appending any letter creates one. The package provides the
combinatorics on words core (Parikh vectors, abelian power detection), the
cruciality predicates and suffix-chain decomposition, the known construction
families with their length formulas and bounds, and an exhaustive search
engine for minimal-length words at small alphabet sizes.

Every public name loads its submodule on first use, so `import crucialis`
itself loads none of them: the CLI and a caller of one layer pay only for
the modules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "constructions": (
        "DEFAULT_LENGTH_CAP",
        "Bounds",
        "FamilyId",
        "bounds",
        "construct_D",
        "construct_W",
        "construct_doubling_k",
        "construct_family",
        "construct_zimin",
        "family_exponent",
        "greedy_length",
        "optimal_small_word",
    ),
    "cruciality": (
        "CrucialDecomposition",
        "OccurrenceProfile",
        "ViolationReport",
        "ViolationTag",
        "decompose",
        "is_crucial",
        "is_maximal",
        "normalize",
        "occurrence_profile",
        "profile_violations",
    ),
    "errors": (
        "BudgetExhaustedError",
        "CapacityError",
        "CrucialisError",
        "DomainError",
        "FormatError",
        "IncompleteChainError",
        "NamingError",
        "NotCrucialError",
        "ParseError",
    ),
    "powers": (
        "PowerOccurrence",
        "find_abelian_power",
        "find_exact_power",
        "is_abelian_power_free",
        "suffix_abelian_power",
    ),
    "search": (
        "EnumerateAllCrucialAtLength",
        "FindMinimalCrucial",
        "SearchConfig",
        "SearchResult",
        "VerifyNoneBelow",
        "enumerate_crucial",
        "search_minimal",
        "verify_none_below",
    ),
    "words": (
        "EMPTY_WORD",
        "MAX_ALPHABET",
        "Word",
        "WordFormat",
        "parikh",
        "parse_word",
        "read_corpus",
        "render_word",
        "word",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"_native", "cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
