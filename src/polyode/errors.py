"""Exception hierarchy shared across the package, and its argument checks."""

import cmath
import math
import numbers


class PolyOdeError(Exception):
    """Base class for all package errors; ``exit_code`` is the CLI's exit status."""
    exit_code = 1


class ValidationError(PolyOdeError, ValueError):
    """Malformed input: bad dimensions, bad schema, out-of-domain arguments."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not. The exact type is
    tested first, since the ``numbers.Integral`` check is an ABC lookup."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer >= ``minimum`` (a bool is
    not an integer); anything else is a ValidationError."""
    if not is_integer(value) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> float:
    """``value`` as a float if it is a finite real > 0 (a bool is not a
    real); anything else is a ValidationError."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer or fraction beyond the double range
        number = math.inf
    if not (math.isfinite(number) and number > 0):
        raise ValidationError(f"{name} must be finite and positive, got {value!r}")
    return number


def check_complex(name: str, value) -> complex:
    """``value`` as a complex if it is a finite number (a bool is not a
    number); anything else is a ValidationError."""
    number = isinstance(value, numbers.Complex) and not isinstance(value, bool)
    try:
        z = complex(value) if number else complex(math.nan)
    except OverflowError:  # an integer or fraction beyond the double range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return z


def check_type(name: str, value, cls: type):
    """``value`` if it is an instance of ``cls``; anything else is a
    ValidationError naming ``name`` and the type it got."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


class ConstraintNotSatisfied(ValidationError):
    """Instance construction rejected: algebraic constraint residual too large."""


class SingularSystem(PolyOdeError):
    """Linear solve for the selected unknowns is rank-deficient."""
    exit_code = 3


class SingularJacobian(PolyOdeError):
    """Newton step unsolvable: Jacobian numerically singular."""
    exit_code = 3


class NoConvergence(PolyOdeError):
    """Newton iteration failed to reach the requested residual tolerance."""
    exit_code = 2


class NegativeTime(ValidationError):
    """Closed-form evaluation requested at t < 0."""


class SingularTime(PolyOdeError):
    """Closed-form evaluation requested at or beyond the blow-up singularity."""
    exit_code = 3


class ZeroOmega(ValidationError):
    """Periodization requested with omega = 0."""


class SingularBracket(PolyOdeError):
    """The bracket of the periodic closed form vanishes on the real time axis."""
    exit_code = 3


class GridTooCoarse(ValidationError):
    """Sample grid too coarse to track the bracket's phase continuously.
    No longer raised by polyode (the periodic closed form is exact on any
    grid); kept for code that catches it."""


class NotClosed(PolyOdeError):
    """Numerical closure check contradicts the predicted period."""
    exit_code = 2


class StepUnderflow(PolyOdeError):
    """Adaptive integrator step fell below the minimum step (blow-up proximity)."""
    exit_code = 3

    def __init__(self, t_reached: float):
        self.t_reached = t_reached
        super().__init__(f"step size underflow at t = {t_reached!r}")


class MaxStepsExceeded(PolyOdeError):
    """Adaptive integrator exceeded its step budget or step history: it gave
    up before t_end, so the check it serves has failed."""
    exit_code = 2
