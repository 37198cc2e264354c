"""Exception types shared across the package."""


class PlatoonError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(PlatoonError):
    """An operation received the zero polynomial where it is undefined."""


class ZeroDenominator(PlatoonError):
    """A rational function was built with (or divided by) zero."""


class PoleAtPoint(PlatoonError):
    """Evaluation was requested at, or numerically at, a pole."""


class IllPosed(PlatoonError):
    """The feedback interconnection 1 + p*c is identically zero."""


class NonPositiveGamma(PlatoonError):
    """Frequency scaling requires gamma > 0."""


class ParseError(PlatoonError):
    """A controller expression could not be parsed."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class StabilityCheckFailed(PlatoonError):
    """A controller that must internally stabilise the plant does not."""


class PeakExceedsBudget(PlatoonError):
    """The closed-loop peak is above the 1 + epsilon budget."""


class SearchExhausted(PlatoonError):
    """The (gamma_a, gamma_b) scan grid ran out before certification passed.

    This signals that the scan bounds failed, not the construction itself.
    """


class BandwidthViolation(PlatoonError):
    """A family member amplifies above the design bandwidth."""


class InvalidRange(PlatoonError):
    """A numeric parameter is outside its documented range."""


class DivergentAtOrigin(PlatoonError):
    """The sensitivity integral requires T(0) = 1."""
