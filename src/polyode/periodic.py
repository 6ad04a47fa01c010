"""Periodic variant via complexification.

Substituting w_n(t) = exp(i*omega*t/(M-1)) * z_n(tau) with
tau = (exp(i*omega*t) - 1)/(i*omega) turns the homogeneous system into the
autonomous system

    dw_n/dt = i*(omega/(M-1))*w_n + sum_m c_{n,m} prod_l w_l^{m_l} ,

whose 2N real components (x_n, y_n) = (Re w_n, Im w_n) satisfy the rotated
real form. On the solvable family the solution is

    zeta_n(t) = z_n(0) * exp((i*omega*t - log g(t))/(M-1)) ,
    g(t) = 1 + K*(exp(i*omega*t) - 1)/(i*omega) = c + a*exp(i*omega*t) ,

with a = K/(i*omega) and c = 1 - a. The bracket g traces a circle of radius
|a| about c once per base period 2*pi/|omega|, so its continuous logarithm
and its winding number q about the origin are exact: q = 0 when |c| > |a|,
q = sgn(omega) when |c| < |a|, and the circle passes through the origin
when |c| = |a|. Every trajectory is periodic with period an integer
multiple of the base period, unless g hits zero on the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import SolvableInstance
from .errors import NotClosed, SingularBracket, ValidationError, ZeroOmega, check_positive
from .polysys import PolynomialSystem, as_state
from .polysys import evaluate_rhs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .trajectory import Trajectory

BRACKET_GUARD = 1e-10
DEFAULT_CLOSURE_TOL = 1e-8


def _checked_omega(omega) -> float:
    omega = float(omega)
    if omega == 0:
        raise ZeroOmega("omega must be nonzero")
    if not math.isfinite(omega):
        raise ValidationError(f"omega must be finite, got {omega}")
    return omega


@dataclass(frozen=True)
class PeriodicSystem:
    """Autonomous complexified system: linear rotation at frequency
    omega/(M-1) plus the original homogeneous polynomial part."""

    base: PolynomialSystem
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_omega(self.omega))

    @property
    def rotation_rate(self) -> float:
        return self.omega / (self.base.m - 1)

    def rhs(self, w: np.ndarray) -> np.ndarray:
        """The right-hand sides at ``w``, unchecked: ``w`` must be a finite
        complex array of shape (n,). ``eval_periodic_rhs`` validates first."""
        return self.base.rhs(w) + 1j * self.rotation_rate * w


def eval_periodic_rhs(psys: PeriodicSystem, w) -> np.ndarray:
    """Right-hand side of the complexified system at state w (autonomous):
    w is validated, then passed to the unchecked ``PeriodicSystem.rhs``."""
    return psys.rhs(as_state(w, psys.base.n))


@dataclass(frozen=True, eq=False)
class PeriodicClosedForm:
    """Closed-form solution of the periodized system, built from a valid
    solvable instance and a finite nonzero frequency."""

    instance: SolvableInstance
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_omega(self.omega))

    @property
    def z0(self) -> np.ndarray:
        return self.instance.z0

    @property
    def k(self) -> complex:
        return self.instance.k

    @property
    def m(self) -> int:
        return self.instance.system.m

    @property
    def base_period(self) -> float:
        return 2 * math.pi / abs(self.omega)

    def system(self) -> PeriodicSystem:
        return PeriodicSystem(self.instance.system, self.omega)


def bracket_values(pcf: PeriodicClosedForm, times: np.ndarray) -> np.ndarray:
    """g(t) = 1 + K*(exp(i*omega*t) - 1)/(i*omega) on the given times."""
    times = np.asarray(times, dtype=float)
    return 1 + pcf.k * (np.exp(1j * pcf.omega * times) - 1) / (1j * pcf.omega)


def _log_bracket(pcf: PeriodicClosedForm, times: np.ndarray) -> tuple[np.ndarray, int]:
    """Continuous log g(t) on the given times, and the winding number q of g
    about the origin per base period.

    With g = c + a*exp(i*omega*t), factor out the larger of the circle's
    centre c and radius |a|: the remaining log1p argument has modulus below
    1, so its principal branch is continuous. At t = 0 both forms give 0
    (q = 0 forces Re c > 1/2, otherwise Re a > 1/2). min |g| over the
    circle is ||c| - |a||; a margin below BRACKET_GUARD*(|a| + |c|) raises
    SingularBracket, which also covers the cancellation in c = 1 - a at
    tiny omega.
    """
    omega = pcf.omega
    a = pcf.k / (1j * omega)
    c = 1 - a
    margin = abs(abs(c) - abs(a))
    if not margin >= BRACKET_GUARD * (abs(a) + abs(c)):
        raise SingularBracket(
            f"bracket circle passes within {margin:.3e} of 0; trajectory not globally defined"
        )
    phase = 1j * omega * times
    if abs(c) > abs(a):
        return np.log(c) + np.log1p((a / c) * np.exp(phase)), 0
    return np.log(a) + phase + np.log1p((c / a) * np.exp(-phase)), 1 if omega > 0 else -1


def eval_periodic_closed_form(pcf: PeriodicClosedForm, t_grid) -> Trajectory:
    """Evaluate zeta on strictly increasing finite times, with the
    fractional power of the bracket taken on its continuous logarithm.
    Returns z0 exactly at t = 0."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValidationError("time grid must be one-dimensional and finite")
    log_g, _ = _log_bracket(pcf, times)
    states = np.multiply.outer(np.exp((1j * pcf.omega * times - log_g) / (pcf.m - 1)), pcf.z0)
    states[times == 0] = pcf.z0
    return Trajectory(times, states)


@dataclass(frozen=True)
class PeriodReport:
    """Winding number of the bracket, period multiplier, period, and the
    numerically confirmed closure error."""

    q: int
    k: int
    T: float
    closure_error: float

    def as_dict(self) -> dict:
        return {"q": self.q, "k": self.k, "T": self.T, "closure_error": self.closure_error}


def winding_number(pcf: PeriodicClosedForm) -> int:
    """Winding number of g around the origin over one base period."""
    return _log_bracket(pcf, np.empty(0))[1]


def detect_period(pcf: PeriodicClosedForm, tol: float = DEFAULT_CLOSURE_TOL) -> PeriodReport:
    """Predict the period multiplier from the bracket winding number and
    confirm it by evaluating the closed form at whole base periods.

    Per base period the rotation prefactor advances the phase by
    2*pi*sgn(omega)/(M-1) and the continued power by -2*pi*q/(M-1); the
    solution closes after k base periods where k cancels both, i.e.
    k = (M-1)/gcd(M-1, (1 - q*sgn(omega)) mod (M-1)), k = 1 when the
    residue vanishes. The numeric closure check is authoritative.
    """
    tol = check_positive("closure tolerance", tol)
    m = pcf.m
    q = winding_number(pcf)
    sign = 1 if pcf.omega > 0 else -1
    residue = (1 - q * sign) % (m - 1)
    k = 1 if residue == 0 else (m - 1) // math.gcd(m - 1, residue)
    t_b = pcf.base_period
    traj = eval_periodic_closed_form(pcf, t_b * np.arange(k + 1))
    errors = np.abs(traj.states - pcf.z0).max(axis=1)
    closure = float(errors[k])
    if not closure <= tol:
        raise NotClosed(f"closure error {closure:.3e} at k={k} exceeds tol {tol:.1e}")
    early = np.flatnonzero(errors[1:k] <= tol)
    if early.size:
        raise NotClosed(f"trajectory already closes at {early[0] + 1} base periods, predicted {k}")
    return PeriodReport(q=q, k=k, T=k * t_b, closure_error=closure)
