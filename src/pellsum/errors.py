"""Exception hierarchy. Everything raised on purpose derives from PellsumError."""


class PellsumError(Exception):
    """Base class for all toolkit errors."""


class MixedFieldError(PellsumError):
    """Arithmetic attempted between elements of different quadratic fields."""


class NotSquarefreeError(PellsumError, ValueError):
    """d failed validation (not squarefree, or one of the excluded values)."""


class RepeatedRootError(PellsumError):
    """Characteristic polynomial has a repeated root; no simple closed form."""


class UnsupportedOrderError(PellsumError):
    """Recurrence order outside what the exact machinery can handle."""


class TupleTooLargeError(PellsumError, ValueError):
    """Subset-sum certification refused: 2^t subsets is past the cap."""


class TooManyIndicesError(PellsumError, ValueError):
    """Partition analysis refused: Bell(n) blows up past n = 8."""


class SearchBudgetError(PellsumError, ValueError):
    """Refused: a work estimate is past the documented budget."""


class UnknownRemarkError(PellsumError, ValueError):
    """No shipped fixture with the requested id."""


class InvariantViolationError(PellsumError):
    """An internal consistency check failed. Maps to CLI exit code 2."""
