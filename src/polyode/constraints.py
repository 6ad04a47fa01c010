"""Algebraic constraints tying the rate parameter K, the coefficients and
the initial data together, plus the solvers that enforce them.

The constraint for equation n reads

    K * z_n(0) - (1 - M) * [rhs(z(0))]_n = 0 .

Given initial data, the constraints are affine in the coefficients and in K
(linear selection solve); given coefficients and K they are polynomial in
the initial data (damped Newton solve).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintNotSatisfied,
    NoConvergence,
    SingularJacobian,
    SingularSystem,
    ValidationError,
    check_count,
    check_positive,
)
from .polysys import (
    MultiIndex,
    PolynomialSystem,
    as_state,
    evaluate_rhs,
    exponent_rows,
    factor_indices,
    monomials,
)


@dataclass(frozen=True)
class RateK:
    """Designates the rate parameter K as an unknown."""


RATE_K = RateK()


@dataclass(frozen=True)
class CoefficientSlot:
    """Designates coefficient (eq, index) as an unknown."""

    eq: int
    index: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(self.index))


@dataclass(frozen=True)
class UnknownSelection:
    """The N unknowns to solve the constraints for: coefficient slots,
    optionally with K in place of one of them."""

    slots: tuple

    def __post_init__(self):
        slots = tuple(self.slots)
        if len(set(slots)) != len(slots):
            raise ValidationError("selection contains duplicate slots")
        if sum(isinstance(s, RateK) for s in slots) > 1:
            raise ValidationError("selection contains more than one K slot")
        for s in slots:
            if not isinstance(s, (RateK, CoefficientSlot)):
                raise ValidationError(f"unsupported unknown designator {s!r}")
        object.__setattr__(self, "slots", slots)

    @property
    def has_rate_k(self) -> bool:
        return any(isinstance(s, RateK) for s in self.slots)


def constraint_residual(system: PolynomialSystem, z0, k) -> np.ndarray:
    """Residual of the solvability constraints at (system, z0, K)."""
    z0 = as_state(z0, system.n)
    return _residual(system.m, z0, complex(k), evaluate_rhs(system, z0))


def residual_scale(system: PolynomialSystem, z0, k) -> float:
    """Magnitude of the largest constraint term; floor 1 (absolute scale)."""
    z0 = as_state(z0, system.n)
    return _scale(system.m, z0, complex(k), evaluate_rhs(system, z0))


def _residual(m: int, z0: np.ndarray, k: complex, f: np.ndarray) -> np.ndarray:
    """The constraint residual K z0 - (1 - M) f, from f = rhs(z0)."""
    return k * z0 - (1 - m) * f


def _scale(m: int, z0: np.ndarray, k: complex, f: np.ndarray) -> float:
    """The ``residual_scale``, from f = rhs(z0)."""
    return max(1.0, float(np.abs(k * z0).max(initial=0.0)),
               (m - 1) * float(np.abs(f).max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class SolvableInstance:
    """A polynomial system together with initial data and a finite rate
    parameter K satisfying the solvability constraints to within ``tol``
    (relative to the largest constraint term)."""

    system: PolynomialSystem
    z0: np.ndarray
    k: complex
    tol: float = 1e-10

    def __post_init__(self):
        z0 = as_state(self.z0, self.system.n)
        k = complex(self.k)
        if not cmath.isfinite(k):
            raise ValidationError(f"K must be finite, got {k}")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "k", k)
        f = evaluate_rhs(self.system, z0)
        res = np.abs(_residual(self.system.m, z0, k, f)).max()
        scale = _scale(self.system.m, z0, k, f)
        if not res <= self.tol * scale:
            raise ConstraintNotSatisfied(
                f"constraint residual {res:.3e} exceeds {self.tol:.1e} * scale {scale:.3e}"
            )

    def residual(self) -> np.ndarray:
        return constraint_residual(self.system, self.z0, self.k)


def _gauss_solve(a: np.ndarray, b: np.ndarray, exc_type) -> np.ndarray:
    """Dense complex Gaussian elimination with partial pivoting.

    Declares rank deficiency (raising ``exc_type``) when a pivot modulus
    falls below 1e-13 times the largest initial matrix entry.
    """
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = b.size
    threshold = 1e-13 * float(np.abs(a).max(initial=0.0))
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) <= threshold:
            raise exc_type(f"pivot {abs(a[piv, col]):.3e} below threshold {threshold:.3e}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def solve_linear_selection(
    system: PolynomialSystem,
    z0,
    k_given,
    selection: UnknownSelection,
) -> SolvableInstance:
    """Solve the constraints for the selected coefficient slots (and
    optionally K), with the initial data given.

    Any values the input system stores at selected slots are discarded; the
    solved values replace them. Raises SingularSystem on rank deficiency.
    """
    z0 = as_state(z0, system.n)
    slots = selection.slots
    if len(slots) != system.n:
        raise ValidationError(f"selection has {len(slots)} slots, expected {system.n}")
    if selection.has_rate_k:
        if k_given is not None:
            raise ValidationError("K is a selected unknown; do not pass k_given")
    elif k_given is None:
        raise ValidationError("K is not among the unknowns; k_given is required")
    picked = [s for s in slots if isinstance(s, CoefficientSlot)]
    for s in picked:
        if not 1 <= s.eq <= system.n:
            raise ValidationError(f"slot equation index {s.eq} outside 1..{system.n}")
    exponent_rows([s.index for s in picked], system.n, system.m)

    # The system over its basis plus the slots' multi-indices, with the
    # selected entries masked: one vector of monomials at z0 gives both the
    # base residual and the columns of the linear system.
    own = [tuple(index) for index in system.exponents.tolist()]
    indices = sorted(set(own).union(s.index for s in picked), reverse=True)
    column = {index: u for u, index in enumerate(indices)}
    coeffs = np.zeros((system.n, len(indices)), dtype=complex)
    coeffs[:, [column[index] for index in own]] = system.coeffs
    coeffs[[s.eq - 1 for s in picked], [column[s.index] for s in picked]] = 0
    exponents = np.array(indices, dtype=np.intp)
    values = monomials(z0, factor_indices(exponents))

    # The fixed terms are summed over the columns they use, as the rhs of a
    # system holding only them would sum them: an all-zero column shifts
    # the BLAS summation order, and with it the last bits of the solution.
    stored = coeffs.any(axis=0)
    k0 = 0j if selection.has_rate_k else complex(k_given)
    base = _residual(system.m, z0, k0, coeffs.compress(stored, axis=1).dot(values[stored]))

    a = np.zeros((system.n, system.n), dtype=complex)
    for col, slot in enumerate(slots):
        if isinstance(slot, RateK):
            a[:, col] = z0
        else:
            a[slot.eq - 1, col] = -(1 - system.m) * values[column[slot.index]]
    solution = _gauss_solve(a, -base, SingularSystem)

    k = k0
    for slot, value in zip(slots, solution):
        if isinstance(slot, RateK):
            k = complex(value)
        else:
            coeffs[slot.eq - 1, column[slot.index]] = value
    solved = PolynomialSystem(system.n, system.m, coeffs=coeffs, exponents=exponents)
    return SolvableInstance(solved, z0, k)


def jacobian(system: PolynomialSystem, z, k) -> np.ndarray:
    """Analytic Jacobian of the constraint residual with respect to z.

    Entry (n, j) is K*delta_{nj} - (1-M) * sum_m c_{n,m} m_j z^{m - e_j}.
    """
    z = as_state(z, system.n)
    rows, cols, multiplicity, factors = system._derivatives
    # deriv[u, j] = m_j z^{m - e_j} for basis monomial u = z^m.
    deriv = np.zeros((len(system.exponents), system.n), dtype=complex)
    deriv[rows, cols] = multiplicity * monomials(z, factors)
    return complex(k) * np.eye(system.n, dtype=complex) - (1 - system.m) * (system.coeffs @ deriv)


def newton_solve_initial_data(
    system: PolynomialSystem,
    k,
    guess,
    tol: float = 1e-10,
    max_iter: int = 50,
    history: list | None = None,
) -> np.ndarray:
    """Damped Newton iteration on the constraint residual over the initial
    data, with coefficients and K given.

    The step is halved (at most 30 times) until the residual max-modulus
    decreases. Returns z0 with residual max-modulus <= tol. ``history``,
    if supplied, collects the residual norm after each accepted iterate.
    """
    tol = check_positive("tol", tol)
    max_iter = check_count("max_iter", max_iter, 1)
    k = complex(k)
    z = as_state(guess, system.n).copy()
    res = constraint_residual(system, z, k)
    norm = float(np.abs(res).max())
    if history is not None:
        history.append(norm)
    for _ in range(max_iter):
        if norm <= tol:
            return z
        jac = jacobian(system, z, k)
        step = _gauss_solve(jac, -res, SingularJacobian)
        lam = 1.0
        for _ in range(31):
            z_new = z + lam * step
            res_new = constraint_residual(system, z_new, k)
            norm_new = float(np.abs(res_new).max())
            if norm_new < norm:
                break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"damping exhausted at residual {norm:.3e} (tol {tol:.1e})"
            )
        z, res, norm = z_new, res_new, norm_new
        if history is not None:
            history.append(norm)
    if norm <= tol:
        return z
    raise NoConvergence(f"no convergence after {max_iter} iterations, residual {norm:.3e}")
