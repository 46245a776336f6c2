"""Exception types shared across the package, and the one check of a
cost ledger."""

_COST_LIMIT = 2**63 - 1


class BlockSketchError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(BlockSketchError):
    pass


class NotUnitaryError(BlockSketchError):
    pass


class NotNormalizedError(BlockSketchError):
    pass


class NormTooLargeError(BlockSketchError):
    pass


class DimensionMismatchError(BlockSketchError):
    pass


class LengthMismatchError(BlockSketchError):
    pass


class EmptySumError(BlockSketchError):
    pass


class OutOfRangeError(BlockSketchError, ValueError):
    pass


class DegreeTooLargeError(OutOfRangeError):
    """A polynomial's degree would exceed the ceiling MAX_WINDOW_DEGREE."""


class InvalidProjectorError(BlockSketchError):
    pass


class BadIntervalError(BlockSketchError):
    pass


class RangeViolationError(BlockSketchError):
    pass


class PolyNotBoundedError(BlockSketchError):
    pass


class InexactInputError(BlockSketchError):
    pass


class GridOutOfRangeError(BlockSketchError):
    pass


class CostOverflowError(BlockSketchError, OverflowError):
    pass


def _checked_cost(cost, what: str):
    """Raise CostOverflowError unless cost is finite and at most 2^63 - 1,
    the limit of every cost ledger."""
    if not cost <= _COST_LIMIT:
        raise CostOverflowError(f"{what} is {cost:.6g}, not at most 2^63 - 1")


class CertificationError(BlockSketchError):
    """A polynomial failed its sup-norm certificate or its window proof."""


class ParseError(BlockSketchError):
    """Input file could not be parsed; message names file and line."""


class ValidationError(BlockSketchError):
    pass
