"""Exception types shared across the package."""


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
    """A window polynomial would exceed the degree guard."""


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


class CertificationError(BlockSketchError):
    """A polynomial failed its sup-norm or region certificate."""


class ParseError(BlockSketchError):
    """Input file could not be parsed; message names file and line."""


class ValidationError(BlockSketchError):
    pass
