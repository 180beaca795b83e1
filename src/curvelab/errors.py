"""Exception types shared across the curvature-flow laboratory."""


class CurveLabError(Exception):
    """Base class for all library-specific failures."""


class ConeViolation(CurveLabError):
    """Curvature vector left the Garding cone required by the operation."""


class NotStarshaped(CurveLabError):
    """Radial function is not positive everywhere."""


class DegenerateMetric(CurveLabError):
    """Induced metric lost positive-definiteness (non-finite input data)."""


class ConvexityLost(CurveLabError):
    """Support-function Hessian b = hess(h) + h*e stopped being positive."""


class NonpositiveSupport(CurveLabError):
    """Support value <X, nu> is nonpositive somewhere (origin outside body)."""


class ZeroMeanCurvature(CurveLabError):
    """Mean curvature vanishes at a node where a quotient needs it."""


class NonpositiveDensity(CurveLabError):
    """Density f must be strictly positive for the inequality functionals."""


class AssumptionViolated(CurveLabError):
    """A speed-profile admissibility condition failed.

    ``kind`` is a short tag ("not-positive", "no-zero", "not-increasing",
    "support-profile"); ``where`` locates the offending point or
    subinterval of the working interval.
    """

    def __init__(self, kind, message, where=None):
        super().__init__(message)
        self.kind = kind
        self.where = where


class StepCollapse(CurveLabError):
    """No step from the current time succeeded.  Carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InsufficientData(CurveLabError):
    """Not enough usable samples for a statistical estimate."""


class ConfigError(CurveLabError):
    """Invalid or incomplete experiment configuration.

    ``field`` names the offending configuration entry (dotted path).
    """

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field
