"""Exception types shared across the library."""


class MultifractalError(Exception):
    """Base class for every library-specific error."""


class ArityError(MultifractalError):
    """System vectors have mismatched lengths or fewer than two entries."""


class WeightSumError(MultifractalError):
    """Probability weights do not sum to one within tolerance."""


class RangeError(MultifractalError):
    """A numeric component lies outside its admissible range."""


class OverlapError(MultifractalError):
    """Translated intervals violate interior disjointness inside [0, 1]."""


class FormatError(MultifractalError):
    """A serialized document does not match the expected schema."""


class EmptyWordError(MultifractalError):
    """An operation that needs at least one symbol received an empty word."""


class BracketError(MultifractalError):
    """A Newton loop did not settle within system.NEWTON_CAP steps."""


class DomainError(MultifractalError):
    """An argument lies outside the mathematical domain of the operation."""


class ConsistencyError(MultifractalError):
    """Two independent evaluations of the same quantity disagree."""


class PrefixTooShort(MultifractalError):
    """The supplied word prefix is shorter than a requested depth."""


class WindowRangeError(MultifractalError):
    """Requested window lengths do not fit inside the available prefix."""


class SizeCapError(MultifractalError):
    """An enumeration would exceed the configured size cap."""


class EmptyAlphabetError(MultifractalError):
    """A block alphabet with no blocks cannot support this operation."""


class NeedLargerN(MultifractalError):
    """Block length too small for the requested dimension margin."""

    def __init__(self, message: str, achieved: float | None = None,
                 required: float | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.required = required


class BudgetError(MultifractalError):
    """A tree traversal exceeded its node budget."""


class NoGeometryError(MultifractalError):
    """The system carries no translations, so 1D geometry is unavailable."""


class UsageError(MultifractalError):
    """Invalid command-line usage."""


class IoError(MultifractalError):
    """Reading a system file or writing an output sink failed."""
