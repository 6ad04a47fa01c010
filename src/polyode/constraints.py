"""Algebraic constraints tying the rate parameter K, the coefficients and
the initial data together, plus the solvers that enforce them.

The constraint for equation n reads

    K * z_n(0) - (1 - M) * [rhs(z(0))]_n = 0 .

Given initial data, the constraints are affine in the coefficients and in K
(linear selection solve); given coefficients and K they are polynomial in
the initial data (damped Newton solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintNotSatisfied,
    NoConvergence,
    SingularJacobian,
    SingularSystem,
    ValidationError,
    check_complex,
    check_positive,
    check_type,
)
from .polysys import (
    MAX_BASIS_SIZE,
    PolynomialSystem,
    as_state,
    coefficient_keys,
    evaluate_rhs,
    factor_indices,
    monomials,
)


def constraint_residual(system: PolynomialSystem, z0, k) -> np.ndarray:
    """Residual of the solvability constraints at (system, z0, K)."""
    check_type("system", system, PolynomialSystem)
    z0 = as_state(z0, system.n)
    return _residual(system.m, z0, check_complex("K", k), evaluate_rhs(system, z0))


def residual_scale(system: PolynomialSystem, z0, k) -> float:
    """max(1, max_n |K z0_n|, (M - 1) max_n |rhs(z0)_n|), the residual's
    scale. After a solve rhs(z0) can be a cancelled sum of much larger
    terms, whose rounding this scale does not cover."""
    check_type("system", system, PolynomialSystem)
    z0 = as_state(z0, system.n)
    return _scale(system.m, z0, check_complex("K", k), evaluate_rhs(system, z0))


def _residual(m: int, z0: np.ndarray, k: complex, f: np.ndarray) -> np.ndarray:
    """The constraint residual K z0 - (1 - M) f, from f = rhs(z0)."""
    return k * z0 - (1 - m) * f


def _scale(m: int, z0: np.ndarray, k: complex, f: np.ndarray) -> float:
    """The ``residual_scale``, from f = rhs(z0)."""
    return max(1.0, float(np.maximum.reduce(np.abs(k * z0), initial=0.0)),
               (m - 1) * float(np.maximum.reduce(np.abs(f), initial=0.0)))


# The acceptance bound on the constraint residual, relative to ``residual_scale``.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SolvableInstance:
    """A polynomial system together with initial data and a finite rate
    parameter K satisfying the solvability constraints to within the one
    bound, ``RESIDUAL_TOL`` times the ``residual_scale``."""

    system: PolynomialSystem
    z0: np.ndarray
    k: complex

    def __post_init__(self):
        check_type("system", self.system, PolynomialSystem)
        z0, k = as_state(self.z0, self.system.n), check_complex("K", self.k)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "k", k)
        # A finite z0 can overflow the RHS or the residual. The result is then
        # refused, and an infinite scale must not admit an infinite residual.
        with np.errstate(over="ignore", invalid="ignore"):
            f = evaluate_rhs(self.system, z0)
            res = np.maximum.reduce(np.abs(_residual(self.system.m, z0, k, f)))
            scale = _scale(self.system.m, z0, k, f)
        if not res <= RESIDUAL_TOL * scale < math.inf:
            raise ConstraintNotSatisfied(
                f"constraint residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} * scale {scale:.3e}"
            )


# A linear-selection pivot, or a Jacobian singular value, at most this
# fraction of the largest counts as zero: the system is singular.
SINGULAR_RATIO = 1e-13


def solve_linear_selection(system: PolynomialSystem, z0, k, unknowns) -> SolvableInstance:
    """Solve the constraints for the coefficients named by ``unknowns``, and
    for K when ``k`` is None, with the initial data given.

    ``unknowns`` holds keys (eq, multi-index) of ``PolynomialSystem.coefficients``,
    stored or not: N of them when K is given, N - 1 when it is not. Any
    values the input system stores at the keys are discarded; the solved
    values replace them.

    An unknown coefficient enters only its own equation, so the system is
    triangular: K, when unknown, is read off the one equation without a
    key, then each key's equation is solved by one division. Two keys in one
    equation, or a diagonal entry whose modulus is at most ``SINGULAR_RATIO``
    times the largest matrix entry, raise SingularSystem.

    The solved system's basis is the union of the system's multi-indices
    and the keys'. When no key adds a row, as in generation, the union is
    the system's own basis, and the solve reuses its shared exponents and
    factors and a copy of its coefficients. Monomials of z0 that overflow
    end in the ValidationError of a non-finite coefficient.
    """
    check_type("system", system, PolynomialSystem)
    z0 = as_state(z0, system.n)
    keys = coefficient_keys(unknowns, system.n, system.m)
    k_unknown = k is None
    expected = system.n - k_unknown
    if len(keys) != expected:
        state = "unknown" if k_unknown else "given"
        raise ValidationError(f"{len(keys)} unknowns with K {state}, expected {expected}")
    if len(set(keys)) != len(keys):
        raise ValidationError("unknowns contain a duplicate key")
    k = 0j if k_unknown else check_complex("K", k)
    rows = [eq - 1 for eq, _ in keys]
    if len(set(rows)) < len(rows):
        raise SingularSystem("two unknowns share an equation")

    # The system over the union of its basis and the keys' multi-indices,
    # with the unknown entries masked: one vector of monomials at z0 gives
    # both the base residual and the pivots. When every key is a row of the
    # system's basis, the union is that basis, factored already.
    basis = system._basis
    cols = [basis.column.get(index) for _, index in keys]
    if None in cols:
        own = list(basis.column)
        indices = sorted({index for _, index in keys}.union(own), reverse=True)
        column = {index: u for u, index in enumerate(indices)}
        coeffs = np.zeros((system.n, len(indices)), dtype=complex)
        coeffs[:, [column[index] for index in own]] = system.coeffs
        exponents = np.array(indices, dtype=np.intp)
        cols = [column[index] for _, index in keys]
        factors = factor_indices(exponents)
    else:
        coeffs, exponents, factors = system.coeffs.copy(), basis.exponents, basis.factors
    coeffs[rows, cols] = 0

    # A finite z0 can overflow the monomials; the solved coefficients are
    # then refused by PolynomialSystem, not warned about by numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        values = monomials(z0, factors)
        # The fixed terms are summed over the columns they use, as the rhs of
        # a system holding only them would sum them: an all-zero column
        # shifts the BLAS summation order, and with it the last bits of the
        # solution.
        stored = np.logical_or.reduce(coeffs, axis=0)
        b = -_residual(system.m, z0, k, coeffs.compress(stored, axis=1).dot(values[stored]))
        pivots = -(1 - system.m) * values[cols]
        diagonal, entries = pivots, pivots
        if k_unknown:
            (free,) = set(range(system.n)).difference(rows)
            diagonal, entries = np.append(pivots, z0[free]), np.append(pivots, z0)
        smallest = float(np.minimum.reduce(np.abs(diagonal)))
        threshold = SINGULAR_RATIO * float(np.maximum.reduce(np.abs(entries)))
        # A NaN pivot passes; its NaN coefficient is refused by PolynomialSystem.
        if smallest <= threshold:
            raise SingularSystem(f"pivot {smallest:.3e} at or below threshold {threshold:.3e}")
        if k_unknown:
            k = complex(b[free] / z0[free])
            b = b - k * z0
        coeffs[rows, cols] = b[rows] / pivots
    solved = PolynomialSystem(system.n, system.m, coeffs=coeffs, exponents=exponents)
    return SolvableInstance(solved, z0, k)


def _check_jacobian_size(n: int) -> None:
    """Refuse, before anything is allocated, a dimension whose n x n
    Jacobian would exceed ``MAX_BASIS_SIZE`` entries."""
    if n * n > MAX_BASIS_SIZE:
        raise ValidationError(f"an n x n Jacobian at n = {n} exceeds {MAX_BASIS_SIZE} entries")


def jacobian(system: PolynomialSystem, z, k) -> np.ndarray:
    """Analytic Jacobian of the constraint residual with respect to z.

    Entry (n, j) is K*delta_{nj} - (1-M) * sum_m c_{n,m} m_j z^{m - e_j}.
    """
    check_type("system", system, PolynomialSystem)
    _check_jacobian_size(system.n)
    z, k = as_state(z, system.n), check_complex("K", k)
    rows, cols, multiplicity, factors = system._derivatives
    # deriv[u, j] = m_j z^{m - e_j} for basis monomial u = z^m.
    deriv = np.zeros((len(system.exponents), system.n), dtype=complex)
    deriv[rows, cols] = multiplicity * monomials(z, factors)
    return k * np.eye(system.n, dtype=complex) - (1 - system.m) * (system.coeffs @ deriv)


# The residual max-modulus a Newton solve reaches unless told otherwise, and
# the steps it may take to reach it.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def newton_solve_initial_data(system: PolynomialSystem, k, guess, tol=NEWTON_TOL) -> np.ndarray:
    """Damped Newton iteration on the constraint residual over the initial
    data, with coefficients and K given.

    Each step is one least-squares solve of J step = -residual (LAPACK
    xGELSD). A Jacobian with a singular value at most ``SINGULAR_RATIO``
    times the largest has numerical rank below n: SingularJacobian. The
    step is halved (at most 30 times) until the residual max-modulus
    decreases; an overflowing trial state fails its trial. Returns z0 with
    residual max-modulus <= tol within ``NEWTON_MAX_ITER`` steps; otherwise,
    or when the residual or Jacobian overflows, raises NoConvergence. A
    system whose n x n Jacobian would exceed ``MAX_BASIS_SIZE`` entries is
    a ValidationError, raised before anything is allocated.
    """
    check_type("system", system, PolynomialSystem)
    _check_jacobian_size(system.n)
    tol = check_positive("tol", tol)
    k = check_complex("K", k)
    z = as_state(guess, system.n).copy()
    # A finite state can overflow the residual or the Jacobian. That ends in
    # NoConvergence, not in a numpy warning or in LAPACK's LinAlgError.
    with np.errstate(over="ignore", invalid="ignore"):
        res = constraint_residual(system, z, k)
        norm = float(np.maximum.reduce(np.abs(res)))
        iterations = 0
        while not norm <= tol:  # a NaN residual has not converged
            if iterations == NEWTON_MAX_ITER:
                raise NoConvergence(
                    f"no convergence after {NEWTON_MAX_ITER} iterations, residual {norm:.3e}"
                )
            iterations += 1
            jac = jacobian(system, z, k)
            if not (math.isfinite(norm) and np.logical_and.reduce(np.isfinite(jac), axis=None)):
                raise NoConvergence(f"residual {norm:.3e} or its Jacobian is not finite")
            step, _, rank, singular = np.linalg.lstsq(jac, -res, rcond=SINGULAR_RATIO)
            if rank < system.n:
                raise SingularJacobian(
                    f"Jacobian rank {rank} < {system.n}: singular values "
                    f"{singular[-1]:.3e} to {singular[0]:.3e}"
                )
            lam = 1.0
            for _ in range(31):
                z_new = z + lam * step
                if np.logical_and.reduce(np.isfinite(z_new)):
                    res_new = constraint_residual(system, z_new, k)
                    norm_new = float(np.maximum.reduce(np.abs(res_new)))
                    if norm_new < norm:
                        break
                lam *= 0.5
            else:
                raise NoConvergence(f"damping exhausted at residual {norm:.3e} (tol {tol:.1e})")
            z, res, norm = z_new, res_new, norm_new
    return z
