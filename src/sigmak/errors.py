"""Exception hierarchy shared by all sigmak modules."""


class SigmaKError(Exception):
    """Base class for every error raised by this package."""


class ZeroPolynomial(SigmaKError):
    """An operation received the zero polynomial where a nonzero one is required."""


class DegreeTooLow(SigmaKError):
    """The polynomial degree is below the minimum the operation supports."""


class DegreeOutOfRange(SigmaKError):
    """The degree is outside the range covered by a closed-form criterion."""


class NoRealRoot(SigmaKError):
    """The polynomial has no real root."""


class DimensionMismatch(SigmaKError):
    """A point or equation has the wrong number of coordinates."""


class BadSubsetSize(SigmaKError):
    """A partial restriction was requested for an invalid subset size."""


class NotStableEquation(SigmaKError):
    """The operation requires a (strictly) stable equation."""


class NotCertified(SigmaKError):
    """The operation requires a successful chain certificate."""


class DenominatorNotPositive(SigmaKError):
    """The graph denominator is not positive at the given base point."""


class SamplingExhausted(SigmaKError):
    """Region sampling exceeded its retry budget."""


class CriticalPoint(SigmaKError):
    """The derivative vanishes at the evaluation point."""


class OutOfDeformationRange(SigmaKError):
    """The deformation parameter lies outside the admissible root window."""


class ZeroCoordinate(SigmaKError):
    """A point coordinate is zero where division by it is required."""


class NotOnLevelSet(SigmaKError):
    """The point does not lie on the zero level set."""


class TopCoefficientNotZero(SigmaKError):
    """The operation requires the top-order coefficient to vanish (translate first)."""


class NonPositiveConstant(SigmaKError):
    """A preset constant that must be positive is not."""


class HypothesisViolated(SigmaKError):
    """Preset coefficients violate the hypothesis that guarantees stability."""


class PhaseOutOfRange(SigmaKError):
    """The phase angle lies in neither admissible branch."""


class DegeneratePhase(SigmaKError):
    """The phase makes the top coefficient of the phase equation vanish."""


class PrecisionOutOfRange(SigmaKError):
    """A requested number of decimal digits is not a non-negative integer."""


class RootBracketNotCertified(SigmaKError):
    """A high-precision root bracket failed its exact check at every precision tried."""
