"""Explicit solution of a solvable instance on the real time axis:

    z_n(t) = z_n(0) * (1 + K t)^(1/(1-M)) ,

valid for t >= 0 up to the blow-up time (the positive real root of
1 + K t = 0, which exists only for real negative K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import SolvableInstance
from .errors import NegativeTime, SingularTime, ValidationError, check_complex, check_count
from .errors import check_type
from .polysys import as_array, as_state
from .trajectory import Trajectory

# The absolute floor on |1 + K t| at an evaluated time, also kept as the
# time margin before blow-up.
MIN_BRACKET_MODULUS = 1e-12


@dataclass(frozen=True, eq=False)
class ClosedFormSolution:
    z0: np.ndarray
    k: complex
    m: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_complex("K", self.k))
        object.__setattr__(self, "m", check_count("m", self.m, 2))
        z0 = as_array(self.z0, complex, "state")
        object.__setattr__(self, "z0", as_state(z0, z0.size))

    @classmethod
    def from_instance(cls, instance: SolvableInstance) -> "ClosedFormSolution":
        check_type("instance", instance, SolvableInstance)
        return cls(instance.z0, instance.k, instance.system.m)


def blow_up_time(sol: ClosedFormSolution) -> float | None:
    """Positive real root of 1 + K t = 0, or None when there is none.

    Exists exactly when K is real (|Im K| < 1e-14) and negative; for
    complex or nonnegative-real K the bracket never vanishes for t >= 0.
    """
    check_type("sol", sol, ClosedFormSolution)
    k = sol.k
    if abs(k.imag) < 1e-14 and k.real < 0:
        return -1.0 / k.real
    return None


def eval_closed_form(sol: ClosedFormSolution, t_grid) -> Trajectory:
    """Evaluate the closed-form solution on a 1-D grid of strictly
    increasing times t >= 0. Returns z0 exactly at t = 0.

    Uses the principal branch of the complex power; on [0, t*) the bracket
    1 + K t never crosses the negative real axis, so the branch is
    continuous there. Refuses (for the whole call) a non-finite time, t < 0,
    |1 + K t| < 1e-12 and t at or beyond blow-up.
    """
    check_type("sol", sol, ClosedFormSolution)
    times = as_array(t_grid, float, "time grid")
    if times.ndim != 1 or not np.logical_and.reduce(np.isfinite(times)):
        raise ValidationError("closed form needs a 1-D array of finite times")
    if np.logical_or.reduce(times < 0):
        raise NegativeTime(f"closed form is defined for t >= 0, got t={times.min()}")
    t_star = blow_up_time(sol)
    if t_star is not None and np.logical_or.reduce(times >= t_star - MIN_BRACKET_MODULUS):
        raise SingularTime(f"t={times.max()} at or beyond blow-up time t*={t_star}")
    bracket = 1 + sol.k * times
    gap = np.minimum.reduce(np.abs(bracket), initial=np.inf)
    if gap < MIN_BRACKET_MODULUS:
        raise SingularTime(f"|1 + K t| = {gap:.3e} below guard")
    states = np.multiply.outer(bracket ** (1.0 / (1 - sol.m)), sol.z0)
    states[times == 0] = sol.z0
    return Trajectory(times, states)
