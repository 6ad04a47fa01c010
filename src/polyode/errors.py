"""Exception hierarchy shared across the package, and its argument checks."""

import math
import numbers


class PolyOdeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PolyOdeError, ValueError):
    """Malformed input: bad dimensions, bad schema, out-of-domain arguments."""


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer >= ``minimum`` (a bool is
    not an integer); anything else is a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
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


class ConstraintNotSatisfied(ValidationError):
    """Instance construction rejected: algebraic constraint residual too large."""


class SingularSystem(PolyOdeError):
    """Linear solve for the selected unknowns is rank-deficient."""


class SingularJacobian(PolyOdeError):
    """Newton step unsolvable: Jacobian numerically singular."""


class NoConvergence(PolyOdeError):
    """Newton iteration failed to reach the requested residual tolerance."""


class NegativeTime(ValidationError):
    """Closed-form evaluation requested at t < 0."""


class SingularTime(PolyOdeError):
    """Closed-form evaluation requested at or beyond the blow-up singularity."""


class ZeroOmega(ValidationError):
    """Periodization requested with omega = 0."""


class SingularBracket(PolyOdeError):
    """The bracket of the periodic closed form vanishes on the real time axis."""


class GridTooCoarse(ValidationError):
    """Sample grid too coarse to track the bracket's phase continuously.
    No longer raised by polyode (the periodic closed form is exact on any
    grid); kept for code that catches it."""


class NotClosed(PolyOdeError):
    """Numerical closure check contradicts the predicted period."""


class StepUnderflow(PolyOdeError):
    """Adaptive integrator step fell below the minimum step (blow-up proximity)."""

    def __init__(self, t_reached: float, message: str | None = None):
        self.t_reached = t_reached
        super().__init__(message or f"step size underflow at t = {t_reached!r}")


class MaxStepsExceeded(PolyOdeError):
    """Adaptive integrator exceeded its step budget."""
