"""Exception hierarchy shared by all sigmak modules."""


class SigmaKError(Exception):
    """Base class for every error raised by this package."""


class ZeroPolynomial(SigmaKError):
    """An operation received the zero polynomial where a nonzero one is required."""


class DegreeTooLow(SigmaKError):
    """The polynomial degree is below the minimum the operation supports."""


class DegreeOutOfRange(SigmaKError):
    """The degree is outside the range the operation supports."""


class DimensionMismatch(SigmaKError):
    """A point or equation has the wrong number of coordinates."""


class InvalidPoint(SigmaKError):
    """A point coordinate is a bool, not a real number, or not finite."""


class NotStableEquation(SigmaKError):
    """The operation requires a (strictly) stable equation."""


class NotCertified(SigmaKError):
    """The operation requires a successful chain certificate."""


class SamplingExhausted(SigmaKError):
    """Region sampling exceeded its retry budget."""


class OutOfDeformationRange(SigmaKError):
    """The deformation parameter lies outside the admissible root window."""


class DegenerateWindow(SigmaKError):
    """The top root has full multiplicity, so its deformation window is a single point."""


class EmptySampleRange(SigmaKError):
    """The deformation rows would sample above ``x_max``, an empty range."""


class NonPositiveConstant(SigmaKError):
    """A preset constant that must be positive is not."""


class HypothesisViolated(SigmaKError):
    """Preset coefficients violate the hypothesis that guarantees stability."""


class PhaseOutOfRange(SigmaKError):
    """The phase angle lies in neither admissible branch."""


class PrecisionOutOfRange(SigmaKError):
    """A requested number of decimal digits is not a non-negative integer."""
