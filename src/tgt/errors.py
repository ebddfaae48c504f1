"""Exception types shared across the package."""


class TgtError(Exception):
    """Base class for all library errors."""


class DimensionError(TgtError):
    """Operands have incompatible shapes."""


class ParameterError(TgtError):
    """A scalar parameter is out of its valid range."""


class ParseError(TgtError):
    """A serialized matrix or vector file is malformed."""


class BudgetError(TgtError):
    """An exhaustive enumeration would exceed the configured work budget."""


class ConstructionError(TgtError):
    """Randomized construction failed verification on every attempt."""


class VerificationError(TgtError):
    """A matrix failed a requested property check (used by the CLI)."""
