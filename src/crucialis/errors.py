"""Exception types shared across the package."""


class CrucialisError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CrucialisError, ValueError):
    """Word text could not be parsed in the requested format."""


class FormatError(CrucialisError, ValueError):
    """Word cannot be rendered in the requested format (e.g. compact with n > 9)."""


class DomainError(CrucialisError, ValueError):
    """Arguments fall outside an operation's validity domain."""


class CapacityError(CrucialisError):
    """A construction would exceed the configured length cap."""


class NotCrucialError(CrucialisError):
    """The word is not crucial, so the requested analysis is undefined."""


class NamingError(CrucialisError):
    """The suffix chain is not nested under the current letter naming.

    Calling normalize() first and retrying on its output resolves this.
    """


class IncompleteChainError(CrucialisError):
    """The longest suffix in the chain does not span the whole word.

    Happens for non-minimal crucial words; the decomposition type requires
    the final suffix to equal the input word.
    """


class BudgetExhaustedError(CrucialisError):
    """A node or time budget tripped while a stream was being produced."""
