"""Shared exception types for the landau package."""


class LandauError(Exception):
    """Base class for all package errors."""


class SingularPoint(LandauError):
    """Kernel evaluation requested at a point where it is unbounded."""


class NegativeInput(LandauError):
    """A field that must be nonnegative contains significant negative values."""


class GammaOutOfRange(LandauError):
    """Kernel exponent outside the moderately soft range (-2, 0)."""


class OrderTooHigh(LandauError):
    """Requested derivative order exceeds the configured diagnostic cap."""


class InsufficientPoints(LandauError):
    """Too few samples inside the fit window."""


class NonPositiveValue(LandauError):
    """Log-log fit requested on a series with nonpositive entries."""


class GridMismatch(LandauError):
    """Two fields that must share a grid do not."""


class ZeroMass(LandauError):
    """Fit requested on a field with (numerically) zero mass."""


class ConstraintViolated(LandauError):
    """Maxwellian parameter constraint (Q positive definite) fails."""


class QuadratureFailure(LandauError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class BranchMismatch(LandauError):
    """Exponent nu routed to the wrong convolution-inequality branch."""


class CflViolation(LandauError):
    """Collision substep would need more sub-cycles than the configured cap."""


class NanDetected(LandauError):
    """Nonfinite values appeared during time stepping."""


class ClipBudgetExceeded(LandauError):
    """Cumulative clipped negative mass exceeded its budget; run aborted."""


class WeightOverflow(LandauError):
    """Gaussian velocity weight exceeds the floating-point range at v_max."""


class ConfigInvalid(LandauError):
    """A run configuration violates a named gate check."""

    def __init__(self, gate: str, message: str = ""):
        self.gate = gate
        super().__init__(f"{gate}: {message}" if message else gate)


class CheckpointInvalid(LandauError):
    """A checkpoint file is not a whole LNDK checkpoint of a finite field."""


class ParseError(LandauError):
    """Configuration file is malformed."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")
