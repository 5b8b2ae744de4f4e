"""Exception types shared across the package, the argument checks that
raise one (every spec's range rules are written with them), and `Frozen`,
the base of the immutable objects that are not dataclasses."""

import math
import numbers
from dataclasses import FrozenInstanceError


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


class Frozen:
    """No attribute can be rebound or deleted: the constructor fills the
    instance dict through ``vars(self)``, as `cached_property` does."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def integer_arg(name, value, low=None):
    """``value`` as an int: an integer, or an integral float such as 3.0, at
    least `low` if given.  A bool, a non-number or a fractional value raises
    ParameterError instead of being truncated."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral)
            or (math.isfinite(value) and float(value).is_integer())) and (
            low is None or value >= low):
        return int(value)
    bound = "" if low is None else f" >= {low}"
    raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")


def real_arg(name, value, ok=lambda v: True, want="a real number"):
    """``value`` if it is a real number (not a bool or NaN) for which `ok`
    holds, else ParameterError: `name` must be `want`."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not math.isnan(value) and ok(value)):
        return value
    raise ParameterError(f"{name} must be {want}, got {value!r}")


def choice_arg(name, value, choices):
    """``value`` if it is one of `choices`, else ParameterError."""
    if isinstance(value, str) and value in choices:
        return value
    raise ParameterError(f"unknown {name} {value!r}; choose one of "
                         f"{', '.join(choices)}")


def resolve(spec, section, choice, defaults, *optional):
    """The one rule for leaves that depend on a choice: each field of `spec`
    named in `optional` that the choice reads is a key of `defaults` and
    takes its default when null; a set one it does not read raises."""
    for name in optional:
        value = getattr(spec, name)
        if name in defaults and value is None:
            object.__setattr__(spec, name, defaults[name])
        elif name not in defaults and value is not None:
            raise ParameterError(f"{choice}, so {section}.{name} would be "
                                 f"ignored")
