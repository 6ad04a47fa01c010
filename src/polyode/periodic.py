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
when |c| = |a|. Every other trajectory is periodic: it closes after one
base period when the circle winds round the origin and after M - 1 when
it misses it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .constraints import SolvableInstance
from .errors import NotClosed, SingularBracket, ValidationError, ZeroOmega
from .errors import check_complex, check_type
from .polysys import PolynomialSystem, as_array, as_state
from .polysys import evaluate_rhs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .trajectory import Trajectory

# The least distance ||c| - |a|| of the bracket circle from the origin,
# relative to |a| + |c|.
MIN_CIRCLE_MARGIN = 1e-10
# The acceptance bound on a detected period's closure error.
CLOSURE_TOL = 1e-8


@dataclass(frozen=True)
class PeriodicSystem:
    """Autonomous complexified system: linear rotation at frequency
    omega/(M-1) plus the original homogeneous polynomial part. ``omega``
    must be a finite nonzero real (a bool is not one); zero is a ZeroOmega.
    Like ``PolynomialSystem`` it has a dimension ``n``, an unchecked
    ``kernel()`` that writes the RHS into a given array through work arrays
    of its own, and ``rhs(w)``, the same arithmetic into a new array."""

    base: PolynomialSystem
    omega: float

    def __post_init__(self):
        check_type("base", self.base, PolynomialSystem)
        if isinstance(self.omega, bool) or not isinstance(self.omega, numbers.Real):
            raise ValidationError(f"omega must be a real number, got {self.omega!r}")
        omega = check_complex("omega", self.omega).real
        if omega == 0:
            raise ZeroOmega("omega must be nonzero")
        object.__setattr__(self, "omega", omega)
        # The linear part's factor i * omega / (M - 1), formed once.
        object.__setattr__(self, "_spin", 1j * (omega / (self.base.m - 1)))

    @property
    def n(self) -> int:
        return self.base.n

    def kernel(self):
        """``store(w, out)``: the base kernel writes the polynomial part into
        ``out``, then the rotation i*omega/(M-1)*w is added in place through
        one more work array of n entries. Unchecked, like the base kernel;
        its work arrays belong to the returned function alone."""
        base, spin = self.base.kernel(), self._spin
        turn = np.empty(self.n, dtype=complex)

        def store(w, out):
            base(w, out)
            out += np.multiply(spin, w, out=turn)

        return store

    def rhs(self, w: np.ndarray) -> np.ndarray:
        """The right-hand sides at ``w`` as a new array: the ``kernel``
        arithmetic, applied once. A ``w`` whose shape is not (n,) is a
        ValidationError; its values are not checked. ``eval_periodic_rhs``
        validates them first."""
        if getattr(w, "shape", None) != (self.n,):
            raise ValidationError(f"state has shape {np.shape(w)}, expected ({self.n},)")
        out = np.empty(self.n, dtype=complex)
        self.kernel()(w, out)
        return out


def eval_periodic_rhs(psys: PeriodicSystem, w) -> np.ndarray:
    """Right-hand side of the complexified system at state w (autonomous):
    w is validated, then passed to ``PeriodicSystem.rhs``."""
    check_type("psys", psys, PeriodicSystem)
    return psys.rhs(as_state(w, psys.n))


@dataclass(frozen=True, eq=False)
class PeriodicClosedForm:
    """Closed-form solution of the periodized system, built from a valid
    solvable instance and a finite nonzero frequency whose bracket circle
    keeps clear of the origin, so the trajectory is defined for all t.

    ``system`` is the complexified system it solves, which checks omega.
    ``a`` = K/(i*omega) and ``c`` = 1 - a are the circle's radius and
    centre, and ``q`` its winding number about the origin per base period.
    min |g| over the circle is ||c| - |a||; a margin below
    MIN_CIRCLE_MARGIN * (|a| + |c|) raises SingularBracket, which also
    covers the cancellation in c = 1 - a at tiny omega.
    """

    instance: SolvableInstance
    omega: float
    system: PeriodicSystem = field(init=False)
    a: complex = field(init=False)
    c: complex = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        check_type("instance", self.instance, SolvableInstance)
        system = PeriodicSystem(self.instance.system, self.omega)
        omega = system.omega
        a = self.instance.k / (1j * omega)
        c = 1 - a
        margin = abs(abs(c) - abs(a))
        if not margin >= MIN_CIRCLE_MARGIN * (abs(a) + abs(c)):
            raise SingularBracket(
                f"bracket circle passes within {margin:.3e} of 0; trajectory not globally defined"
            )
        q = 0 if abs(c) > abs(a) else (1 if omega > 0 else -1)
        for name, value in (("omega", omega), ("system", system), ("a", a), ("c", c), ("q", q)):
            object.__setattr__(self, name, value)

    @property
    def base_period(self) -> float:
        return 2 * math.pi / abs(self.omega)


def bracket_values(pcf: PeriodicClosedForm, times: np.ndarray) -> np.ndarray:
    """g(t) = 1 + K*(exp(i*omega*t) - 1)/(i*omega) on the given times."""
    check_type("pcf", pcf, PeriodicClosedForm)
    times = as_array(times, float, "time grid")
    return 1 + pcf.instance.k * (np.exp(1j * pcf.omega * times) - 1) / (1j * pcf.omega)


def _log_bracket(pcf: PeriodicClosedForm, phase: np.ndarray) -> np.ndarray:
    """Continuous log g(t) at the phases i*omega*t.

    With g = c + a*exp(i*omega*t), factor out the larger of the circle's
    centre c and radius |a|: the remaining log1p argument has modulus below
    1, so its principal branch is continuous. At t = 0 both forms give 0
    (q = 0 forces Re c > 1/2, otherwise Re a > 1/2).
    """
    a, c = pcf.a, pcf.c
    if pcf.q == 0:
        return np.log(c) + np.log1p((a / c) * np.exp(phase))
    return np.log(a) + phase + np.log1p((c / a) * np.exp(-phase))


def eval_periodic_closed_form(pcf: PeriodicClosedForm, t_grid) -> Trajectory:
    """Evaluate zeta on strictly increasing finite times, with the
    fractional power of the bracket taken on its continuous logarithm.
    Returns z0 exactly at t = 0. A time whose phase omega*t overflows is
    refused with the grid's other faults."""
    check_type("pcf", pcf, PeriodicClosedForm)
    times = as_array(t_grid, float, "time grid")
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 1j * pcf.omega * times
    if times.ndim != 1 or not np.logical_and.reduce(np.isfinite(phase)):
        raise ValidationError("time grid must be one-dimensional, with omega * t finite")
    z0, m = pcf.instance.z0, pcf.instance.system.m
    states = np.multiply.outer(np.exp((phase - _log_bracket(pcf, phase)) / (m - 1)), z0)
    states[times == 0] = z0
    return Trajectory(times, states)


@dataclass(frozen=True)
class PeriodReport:
    """Winding number of the bracket, period multiplier, period, and the
    numerically confirmed closure error."""

    q: int
    k: int
    T: float
    closure_error: float


def detect_period(pcf: PeriodicClosedForm) -> PeriodReport:
    """Predict the period multiplier from the bracket winding number and
    confirm it by evaluating the closed form at whole base periods.

    Per base period the exponent (i*omega*t - log g)/(M-1) advances by
    2*pi*i*(sgn(omega) - q)/(M-1). A circle round the origin has
    q = sgn(omega), so the solution closes after k = 1 base period; one that
    misses it has q = 0, so k = M - 1. The numeric closure check is
    authoritative.
    """
    check_type("pcf", pcf, PeriodicClosedForm)
    m, q, z0 = pcf.instance.system.m, pcf.q, pcf.instance.z0
    k = 1 if q else m - 1
    t_b = pcf.base_period
    traj = eval_periodic_closed_form(pcf, t_b * np.arange(k + 1))
    errors = np.maximum.reduce(np.abs(traj.states - z0), axis=1)
    closure = float(errors[k])
    if not closure <= CLOSURE_TOL:
        raise NotClosed(f"closure error {closure:.3e} at k={k} exceeds tol {CLOSURE_TOL:.1e}")
    early = np.flatnonzero(errors[1:k] <= CLOSURE_TOL)
    if early.size:
        raise NotClosed(f"trajectory already closes at {early[0] + 1} base periods, predicted {k}")
    return PeriodReport(q=q, k=k, T=k * t_b, closure_error=closure)
