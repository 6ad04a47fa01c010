"""Periodic variant via complexification.

Substituting w_n(t) = exp(i*omega*t/(M-1)) * z_n(tau) with
tau = (exp(i*omega*t) - 1)/(i*omega) turns the homogeneous system into the
autonomous system

    dw_n/dt = i*(omega/(M-1))*w_n + sum_m c_{n,m} prod_l w_l^{m_l} ,

whose 2N real components (x_n, y_n) = (Re w_n, Im w_n) satisfy the rotated
real form. On the solvable family the solution is

    zeta_n(t) = z_n(0) * exp(i*omega*t/(M-1)) * g(t)^(1/(1-M)) ,
    g(t) = 1 + K*(exp(i*omega*t) - 1)/(i*omega) ,

with the fractional power continued continuously in t (unwrapped phase of
g). All such trajectories are periodic with period an integer multiple of
the base period 2*pi/|omega|, unless g hits zero on the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import SolvableInstance
from .errors import (
    GridTooCoarse,
    NotClosed,
    SingularBracket,
    ValidationError,
    ZeroOmega,
)
from .polysys import PolynomialSystem, evaluate_rhs
from .trajectory import SOURCE_CLOSED_FORM, Trajectory

BRACKET_GUARD = 1e-10
MAX_PHASE_STEP = math.pi / 4
DEFAULT_GRID = 4096
DEFAULT_CLOSURE_TOL = 1e-8


@dataclass(frozen=True)
class PeriodicSystem:
    """Autonomous complexified system: linear rotation at frequency
    omega/(M-1) plus the original homogeneous polynomial part."""

    base: PolynomialSystem
    omega: float

    def __post_init__(self):
        if self.omega == 0:
            raise ZeroOmega("omega must be nonzero")
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def rotation_rate(self) -> float:
        return self.omega / (self.base.m - 1)


def periodize(system: PolynomialSystem, omega: float) -> PeriodicSystem:
    """Attach the rotation term of frequency omega/(M-1) to a base system."""
    return PeriodicSystem(system, omega)


def eval_periodic_rhs(psys: PeriodicSystem, w) -> np.ndarray:
    """Right-hand side of the complexified system at state w (autonomous);
    ``evaluate_rhs`` validates w."""
    return evaluate_rhs(psys.base, w) + 1j * psys.rotation_rate * np.asarray(w)


@dataclass(frozen=True, eq=False)
class PeriodicClosedForm:
    """Closed-form solution of the periodized system, built from a valid
    solvable instance and a nonzero frequency."""

    instance: SolvableInstance
    omega: float

    def __post_init__(self):
        if self.omega == 0:
            raise ZeroOmega("omega must be nonzero")
        object.__setattr__(self, "omega", float(self.omega))

    @classmethod
    def from_instance(cls, instance: SolvableInstance, omega: float) -> "PeriodicClosedForm":
        return cls(instance, omega)

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
        return periodize(self.instance.system, self.omega)


def bracket_values(pcf: PeriodicClosedForm, times: np.ndarray) -> np.ndarray:
    """g(t) = 1 + K*(exp(i*omega*t) - 1)/(i*omega) on the given times."""
    times = np.asarray(times, dtype=float)
    return 1 + pcf.k * (np.exp(1j * pcf.omega * times) - 1) / (1j * pcf.omega)


def _unwrapped_bracket_arg(g: np.ndarray) -> np.ndarray:
    """Cumulative argument of g along the grid, increments wrapped to
    (-pi, pi]; rejects steps that rotate g by more than pi/4."""
    if np.abs(g).min() < BRACKET_GUARD:
        raise SingularBracket(
            f"|g| reaches {np.abs(g).min():.3e}; trajectory not globally defined"
        )
    increments = np.angle(g[1:] / g[:-1])
    if increments.size and np.abs(increments).max() > MAX_PHASE_STEP:
        raise GridTooCoarse(
            f"bracket phase step {np.abs(increments).max():.3f} rad exceeds pi/4"
        )
    arg = np.empty(g.size)
    arg[0] = np.angle(g[0])
    np.cumsum(increments, out=arg[1:])
    arg[1:] += arg[0]
    return arg


def eval_periodic_closed_form(pcf: PeriodicClosedForm, t_grid) -> Trajectory:
    """Evaluate zeta on a grid starting at 0, with the fractional power of
    the bracket continued continuously (phase unwrapping along the grid)."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or times[0] != 0:
        raise ValidationError("time grid must be one-dimensional and start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("time grid must be strictly increasing")
    g = bracket_values(pcf, times)
    arg = _unwrapped_bracket_arg(g)
    exponent = 1.0 / (1 - pcf.m)
    power = np.exp(exponent * (np.log(np.abs(g)) + 1j * arg))
    prefactor = np.exp(1j * pcf.omega * times / (pcf.m - 1))
    states = pcf.z0[None, :] * (prefactor * power)[:, None]
    states[0] = pcf.z0
    return Trajectory(times, states, SOURCE_CLOSED_FORM)


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


def winding_number(pcf: PeriodicClosedForm, grid: int = DEFAULT_GRID) -> int:
    """Winding number of g around the origin over one base period."""
    times = np.linspace(0.0, pcf.base_period, grid + 1)
    g = bracket_values(pcf, times)
    arg = _unwrapped_bracket_arg(g)
    total = (arg[-1] - arg[0]) / (2 * math.pi)
    q = round(total)
    if abs(total - q) > 1e-3:
        raise NotClosed(f"bracket phase change {total:.6f} turns is not an integer")
    return q


def detect_period(
    pcf: PeriodicClosedForm,
    tol: float = DEFAULT_CLOSURE_TOL,
    grid: int = DEFAULT_GRID,
) -> PeriodReport:
    """Predict the period multiplier from the bracket winding number and
    confirm it by evaluating the closed form.

    Per base period the rotation prefactor advances the phase by
    2*pi*sgn(omega)/(M-1) and the continued power by -2*pi*q/(M-1); the
    solution closes after k base periods where k cancels both, i.e.
    k = (M-1)/gcd(M-1, (1 - q*sgn(omega)) mod (M-1)), k = 1 when the
    residue vanishes. The numeric closure check is authoritative.
    """
    m = pcf.m
    q = winding_number(pcf, grid)
    sign = 1 if pcf.omega > 0 else -1
    residue = (1 - q * sign) % (m - 1)
    k = 1 if residue == 0 else (m - 1) // math.gcd(m - 1, residue)
    t_b = pcf.base_period
    traj = eval_periodic_closed_form(pcf, np.linspace(0.0, k * t_b, k * grid + 1))
    closure = float(np.abs(traj.states[-1] - pcf.z0).max())
    if closure > tol:
        raise NotClosed(f"closure error {closure:.3e} at k={k} exceeds tol {tol:.1e}")
    for j in range(1, k):
        early = float(np.abs(traj.states[j * grid] - pcf.z0).max())
        if early <= tol:
            raise NotClosed(f"trajectory already closes at {j} base periods, predicted {k}")
    return PeriodReport(q=q, k=k, T=k * t_b, closure_error=closure)
