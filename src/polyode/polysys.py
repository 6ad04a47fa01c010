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
        (U x n) exponent matrix and its ``power_positions``."""
        indices = sorted({index for _, index in self.coefficients}, reverse=True)
        column = {index: u for u, index in enumerate(indices)}
        coeffs = np.zeros((self.n, len(indices)), dtype=complex)
        for (eq, index), value in self.coefficients.items():
            coeffs[eq - 1, column[index]] = value
        exponents = np.array(indices, dtype=np.intp).reshape(len(indices), self.n)
        return coeffs, exponents, power_positions(exponents)

    def coefficient(self, eq: int, index) -> complex:
        return self.coefficients.get((eq, tuple(index)), 0j)


def power_positions(exponents) -> np.ndarray:
    """Positions in the flattened power table of ``monomials`` of the
    factors z_j^e_j, for each row e of an integer exponent array (..., n)."""
    exponents = np.asarray(exponents, dtype=np.intp)
    return exponents * exponents.shape[-1] + np.arange(exponents.shape[-1])


def monomials(z: np.ndarray, positions: np.ndarray, degree: int) -> np.ndarray:
    """Values z^e of the monomials whose exponent rows e (none above
    ``degree``) map to ``positions`` (see ``power_positions``).

    Powers are built by repeated multiplication (exact for integer
    exponents, 0^0 = 1); each monomial is the product of its n factors.
    """
    pows = np.empty((degree + 1, z.size), dtype=complex)
    pows[0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(pows[e - 1], z, out=pows[e])
    return pows.ravel().take(positions).prod(axis=-1)


def evaluate_rhs(system: PolynomialSystem, z) -> np.ndarray:
    """Evaluate the polynomial right-hand sides at state ``z``.

    The state is validated on every call. The monomials of the system's
    basis are summed by one BLAS matrix-vector product, so the summation
    order is BLAS's, not canonical multi-index order; the result is
    deterministic for a given input.
    """
    z = as_state(z, system.n)
    coeffs, _, positions = system._basis
    return coeffs.dot(monomials(z, positions, system.m))
