"""Explicit solution of a solvable instance on the real time axis:

    z_n(t) = z_n(0) * (1 + K t)^(1/(1-M)) ,

valid for t >= 0 up to the blow-up time (the positive real root of
1 + K t = 0, which exists only for real negative K).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .constraints import SolvableInstance
from .errors import NegativeTime, SingularTime, ValidationError, check_count
from .polysys import as_state

BRACKET_GUARD = 1e-12


@dataclass(frozen=True, eq=False)
class ClosedFormSolution:
    z0: np.ndarray
    k: complex
    m: int

    def __post_init__(self):
        k = complex(self.k)
        if not cmath.isfinite(k):
            raise ValidationError(f"K must be finite, got {k}")
        object.__setattr__(self, "m", check_count("m", self.m, 2))
        object.__setattr__(self, "z0", as_state(self.z0, np.size(self.z0)))
        object.__setattr__(self, "k", k)

    @classmethod
    def from_instance(cls, instance: SolvableInstance) -> "ClosedFormSolution":
        return cls(instance.z0, instance.k, instance.system.m)


def blow_up_time(sol: ClosedFormSolution) -> float | None:
    """Positive real root of 1 + K t = 0, or None when there is none.

    Exists exactly when K is real (|Im K| < 1e-14) and negative; for
    complex or nonnegative-real K the bracket never vanishes for t >= 0.
    """
    k = sol.k
    if abs(k.imag) < 1e-14 and k.real < 0:
        return -1.0 / k.real
    return None


def eval_closed_form(sol: ClosedFormSolution, t) -> np.ndarray:
    """Evaluate the closed-form solution at time t >= 0, or at each time of
    a 1-D array (one state per row). Returns z0 exactly at t = 0.

    Uses the principal branch of the complex power; on [0, t*) the bracket
    1 + K t never crosses the negative real axis, so the branch is
    continuous there. Refuses (for the whole call) a non-finite time, t < 0,
    |1 + K t| < 1e-12 and t at or beyond blow-up.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.isfinite(times).all():
        raise ValidationError("closed form needs one finite time or a 1-D array of them")
    if (times < 0).any():
        raise NegativeTime(f"closed form is defined for t >= 0, got t={times.min()}")
    t_star = blow_up_time(sol)
    if t_star is not None and (times >= t_star - BRACKET_GUARD).any():
        raise SingularTime(f"t={times.max()} at or beyond blow-up time t*={t_star}")
    bracket = 1 + sol.k * times
    gap = np.abs(bracket).min(initial=np.inf)
    if gap < BRACKET_GUARD:
        raise SingularTime(f"|1 + K t| = {gap:.3e} below guard")
    states = np.multiply.outer(bracket ** (1.0 / (1 - sol.m)), sol.z0)
    states[times == 0] = sol.z0
    return states
