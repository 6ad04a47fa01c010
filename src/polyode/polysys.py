"""Systems of N first-order ODEs with homogeneous polynomial right-hand sides.

A system of dimension N and degree M is a sparse complex coefficient tensor:
coefficient c[(eq, exponents)] multiplies the monomial
z_1^{m_1} * ... * z_N^{m_N} on the right-hand side of equation ``eq``,
where the exponents are nonnegative integers summing to M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ValidationError

# A multi-index is a plain tuple of N nonnegative integers summing to M.
MultiIndex = tuple


def enumerate_multi_indices(n: int, m: int) -> list[MultiIndex]:
    """All tuples of ``n`` nonnegative integers summing to ``m``.

    Canonical order: lexicographically descending on the exponents. The
    length is always binomial(m + n - 1, n - 1).
    """
    if n < 1:
        raise ValidationError(f"need at least one variable, got n={n}")
    if m < 0:
        raise ValidationError(f"degree must be nonnegative, got m={m}")
    if n == 1:
        return [(m,)]
    out = []
    for first in range(m, -1, -1):
        for rest in enumerate_multi_indices(n - 1, m - first):
            out.append((first,) + rest)
    return out


def canonical_sort_key(key: tuple[int, MultiIndex]):
    """Sort key for (equation, multi-index) pairs: equation ascending, then
    exponents in descending lexicographic order."""
    eq, index = key
    return (eq, tuple(-e for e in index))


def validate_multi_index(index, n: int, m: int) -> MultiIndex:
    index = tuple(index)
    if len(index) != n:
        raise ValidationError(f"multi-index {index} has length {len(index)}, expected {n}")
    if any(not isinstance(e, (int, np.integer)) or e < 0 for e in index):
        raise ValidationError(f"multi-index {index} must hold nonnegative integers")
    if sum(index) != m:
        raise ValidationError(f"multi-index {index} sums to {sum(index)}, expected {m}")
    return tuple(int(e) for e in index)


def _finite_complex(value) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"non-finite complex value {z!r}")
    return z


def as_state(z, n: int) -> np.ndarray:
    """Validate and convert a state to a length-``n`` complex array."""
    arr = np.asarray(z, dtype=complex)
    if arr.shape != (n,):
        raise ValidationError(f"state has shape {arr.shape}, expected ({n},)")
    if not np.isfinite(arr).all():
        raise ValidationError("state contains non-finite components")
    return arr


@dataclass(frozen=True)
class PolynomialSystem:
    """Sparse homogeneous polynomial system of dimension ``n`` and degree ``m``.

    ``coefficients`` maps (equation index in 1..n, multi-index) to a nonzero
    complex coefficient; absent keys are zero. The mapping is normalized to
    canonical iteration order at construction.
    """

    n: int
    m: int
    coefficients: Mapping[tuple[int, MultiIndex], complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise ValidationError(f"need n >= 2 and m >= 2, got n={self.n}, m={self.m}")
        normalized = {}
        for (eq, index), value in self.coefficients.items():
            if not 1 <= eq <= self.n:
                raise ValidationError(f"equation index {eq} outside 1..{self.n}")
            index = validate_multi_index(index, self.n, self.m)
            value = _finite_complex(value)
            if value == 0:
                raise ValidationError(
                    f"stored coefficient for eq {eq}, index {index} is exactly zero"
                )
            if (eq, index) in normalized:
                raise ValidationError(f"duplicate coefficient key ({eq}, {index})")
            normalized[(eq, index)] = value
        ordered = dict(sorted(normalized.items(), key=lambda kv: canonical_sort_key(kv[0])))
        object.__setattr__(self, "coefficients", ordered)

    @cached_property
    def _basis(self):
        """The system over one basis, the U multi-indices stored in any
        equation (canonical order): the (n x U) coefficient matrix, the
        (U x n) exponent matrix and its (U x M) ``factor_indices``."""
        indices = sorted({index for _, index in self.coefficients}, reverse=True)
        column = {index: u for u, index in enumerate(indices)}
        coeffs = np.zeros((self.n, len(indices)), dtype=complex)
        for (eq, index), value in self.coefficients.items():
            coeffs[eq - 1, column[index]] = value
        exponents = np.array(indices, dtype=np.intp).reshape(len(indices), self.n)
        return coeffs, exponents, factor_indices(exponents)

    @cached_property
    def _derivatives(self):
        """The first derivatives of the basis monomials: for each pair
        (u, j) with e_uj > 0 (u-major order), u, j, e_uj and the
        ``factor_indices`` of z^(e_u - e_j)."""
        _, exponents, _ = self._basis
        rows, cols = np.nonzero(exponents)
        reduced = exponents[rows]
        reduced[np.arange(rows.size), cols] -= 1
        return rows, cols, exponents[rows, cols], factor_indices(reduced)

    def coefficient(self, eq: int, index) -> complex:
        return self.coefficients.get((eq, tuple(index)), 0j)

    def rhs(self, z: np.ndarray) -> np.ndarray:
        """The right-hand sides at ``z``, unchecked: ``z`` must be a finite
        complex array of shape (n,). ``evaluate_rhs`` validates first."""
        coeffs, _, factors = self._basis
        return coeffs.dot(monomials(z, factors))


def factor_indices(exponents) -> np.ndarray:
    """The factors of each monomial z^e as variable indices, for the rows e
    of an integer exponent array (..., n) with equal row sums d: index j
    repeated e_j times, ascending, so the result has shape (..., d)."""
    exponents = np.asarray(exponents, dtype=np.intp)
    degree = int(exponents.sum(axis=-1).max(initial=0))
    variables = np.broadcast_to(np.arange(exponents.shape[-1]), exponents.shape)
    factors = np.repeat(variables.ravel(), exponents.ravel())
    return factors.reshape(exponents.shape[:-1] + (degree,))


def monomials(z: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Values of the monomials whose ``factor_indices`` are ``factors``,
    unchecked (``z`` is a complex array of shape (n,)).

    Each monomial is the product of its factors gathered from ``z``, taken
    in factor order; a monomial with no factors is 1.
    """
    return z.take(factors).prod(axis=-1)


def evaluate_rhs(system: PolynomialSystem, z) -> np.ndarray:
    """Evaluate the polynomial right-hand sides at state ``z``.

    The state is validated, then passed to the unchecked kernel
    ``PolynomialSystem.rhs``. Each monomial is a product of its factors in
    factor order, and the monomials of the system's basis are summed by one
    BLAS matrix-vector product, so the summation order is BLAS's, not
    canonical multi-index order; the result is deterministic for a given
    input.
    """
    return system.rhs(as_state(z, system.n))
