"""Exception types shared across the package, and the integer-argument
check that raises one."""

import math
import numbers


class HomspaceError(Exception):
    """Base class for all package errors."""


class ParameterError(HomspaceError):
    """Invalid parameter (nonpositive size, exponent out of range, ...)."""


class FormatError(HomspaceError):
    """Malformed document (asymmetric distance table, bad weights, ...)."""


class CertificationError(HomspaceError):
    """A declared geometric constant fails verification.

    Carries the violating triple when the quasi-triangle inequality is the
    failed certificate.
    """

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class ConvergenceError(HomspaceError):
    """An iterative construction failed to reach its tolerance."""


class RangeError(HomspaceError):
    """Requested level/scale outside the built range."""


class FlavorMismatchError(HomspaceError):
    """Homogeneous/inhomogeneous flavor of spec and stack disagree."""


class IllConditionedFrameError(HomspaceError):
    """Frame solve did not converge; carries the measured lower frame bound."""

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class ExperimentError(HomspaceError):
    """An experiment's hypotheses are violated or all probes degenerate."""


def integer_arg(name, value):
    """``value`` as an int: an integer, or an integral float such as 3.0.
    A bool, a non-number or a fractional value raises ParameterError
    instead of being truncated."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral)
            or (math.isfinite(value) and float(value).is_integer())):
        return int(value)
    raise ParameterError(f"{name} must be an integer, got {value!r}")
