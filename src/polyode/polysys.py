"""Systems of N first-order ODEs with homogeneous polynomial right-hand sides.

A system of dimension N and degree M is a complex coefficient matrix over a
basis of monomials: coefficient c[eq, u] multiplies the monomial
z_1^{m_1} * ... * z_N^{m_N} of basis row u on the right-hand side of
equation ``eq``, where the exponents are nonnegative integers summing to M.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ValidationError, check_count

# A multi-index is a plain tuple of N nonnegative integers summing to M.
MultiIndex = tuple

# Largest number of exponent and factor entries, U * (n + M) for U
# multi-indices, that a system, enumeration or generation may allocate.
# (10, 6), the largest size tested, has 5,005 * 16 = 80,080.
MAX_BASIS_SIZE = 2_000_000


def check_basis_size(n: int, m: int, terms: int | None = None) -> None:
    """Refuse a basis of ``terms`` multi-indices of (n, m), by default all
    binomial(m + n - 1, n - 1) of them, whose (U x n) exponents and
    (U x M) ``factor_indices`` would exceed ``MAX_BASIS_SIZE`` entries.
    The binomial is built one factor at a time and abandoned once it is
    too large, so the check is cheap for any n and m."""
    limit = MAX_BASIS_SIZE // (n + m)
    if terms is None:
        k = min(n - 1, m)
        terms = 1
        for i in range(1, k + 1):
            terms = terms * (m + n - 1 - k + i) // i  # binomial(m + n - 1 - k + i, i)
            if terms > limit:
                break
    if terms > limit:
        raise ValidationError(
            f"(n, m) = ({n}, {m}) with {terms} or more multi-indices exceeds "
            f"{MAX_BASIS_SIZE} exponent and factor entries"
        )


def enumerate_multi_indices(n: int, m: int) -> list[MultiIndex]:
    """All tuples of ``n`` nonnegative integers summing to ``m``.

    Canonical order: lexicographically descending on the exponents. The
    length is always binomial(m + n - 1, n - 1). Sizes that
    ``check_basis_size`` refuses raise ValidationError before anything is
    allocated.
    """
    n, m = check_count("n", n, 1), check_count("m", m, 0)
    check_basis_size(n, m)
    return _multi_indices(n, m)


def _multi_indices(n: int, m: int) -> list[MultiIndex]:
    if n == 1:
        return [(m,)]
    return [
        (first,) + rest for first in range(m, -1, -1) for rest in _multi_indices(n - 1, m - first)
    ]


def exponent_rows(rows, n: int, m: int) -> np.ndarray:
    """``rows`` as a (U x n) integer array of multi-indices, each ``n``
    integers in 0..m summing to ``m``; anything else is a ValidationError."""
    try:
        exponents = np.asarray(rows)
    except ValueError as exc:
        raise ValidationError(f"malformed exponent rows: {exc}") from exc
    if exponents.dtype.kind not in "iu" or exponents.ndim != 2 or exponents.shape[1] != n:
        raise ValidationError(
            f"exponents must be integer rows of length {n}, got {exponents.dtype} {exponents.shape}"
        )
    exponents = exponents.astype(np.intp)
    bad = ((exponents < 0) | (exponents > m)).any(axis=1) | (exponents.sum(axis=1) != m)
    if bad.any():
        index = exponents[bad.argmax()].tolist()
        raise ValidationError(f"multi-index {index} is not {n} nonnegative integers summing to {m}")
    return exponents


def as_state(z, n: int) -> np.ndarray:
    """Validate and convert a state to a length-``n`` complex array."""
    arr = np.asarray(z, dtype=complex)
    if arr.shape != (n,):
        raise ValidationError(f"state has shape {arr.shape}, expected ({n},)")
    if not np.isfinite(arr).all():
        raise ValidationError("state contains non-finite components")
    return arr


@dataclass(frozen=True, eq=False)
class PolynomialSystem:
    """Homogeneous polynomial system of dimension ``n`` and degree ``m``.

    The state is two arrays over the system's U monomials. ``exponents``
    (U x n, integer) holds their multi-indices, unique and in canonical
    order (strictly descending lexicographically). ``coeffs`` (n x U,
    complex) holds the coefficient of monomial u in equation eq at
    ``coeffs[eq - 1, u]``. A zero coefficient is an absent term, and
    columns that are zero in every equation are dropped, so a sparse system
    pays only for the monomials it stores. Both arrays are read-only.

    ``PolynomialSystem(n, m, {(eq, multi-index): value})`` builds the arrays
    from a mapping of nonzero coefficients, with eq in 1..n;
    ``PolynomialSystem(n, m, coeffs=..., exponents=...)`` takes them as
    they are. Either way ``__post_init__`` validates them, once.
    ``coefficients`` is the derived read-only mapping, in canonical order:
    equation ascending, then exponents descending. Systems compare by
    identity.
    """

    n: int
    m: int
    terms: InitVar[Mapping | None] = None
    coeffs: np.ndarray = field(default=None, kw_only=True)
    exponents: np.ndarray = field(default=None, kw_only=True)

    def __post_init__(self, terms):
        n, m = check_count("n", self.n, 2), check_count("m", self.m, 2)
        coeffs, exponents = self.coeffs, self.exponents
        given = coeffs is not None or exponents is not None
        if terms is not None and given:
            raise ValidationError("give the coefficients as a mapping or as arrays, not both")
        try:
            if not given:
                coeffs, exponents = _arrays_from_terms(n, m, {} if terms is None else terms)
            coeffs = np.array(coeffs, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed coefficients: {exc}") from exc
        exponents = exponent_rows(exponents, n, m)
        if coeffs.shape != (n, len(exponents)):
            raise ValidationError(
                f"coefficients {coeffs.shape} do not fit exponents {exponents.shape}"
            )
        # Row u precedes row u + 1 iff their first differing exponent drops.
        step = exponents[:-1] - exponents[1:]
        if (step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0).any():
            raise ValidationError("exponent rows must be unique and in descending order")
        if not np.isfinite(coeffs).all():
            raise ValidationError("coefficients contain non-finite values")
        stored = coeffs.any(axis=0)
        if not stored.all():
            coeffs, exponents = coeffs.compress(stored, axis=1), exponents[stored]
        coeffs.flags.writeable = exponents.flags.writeable = False
        for name, value in (("n", n), ("m", m), ("coeffs", coeffs), ("exponents", exponents)):
            object.__setattr__(self, name, value)

    @cached_property
    def coefficients(self) -> Mapping[tuple[int, MultiIndex], complex]:
        rows, cols = np.nonzero(self.coeffs)
        indices = [tuple(index) for index in self.exponents.tolist()]
        values = self.coeffs[rows, cols].tolist()
        return MappingProxyType(
            {(eq + 1, indices[u]): v for eq, u, v in zip(rows.tolist(), cols.tolist(), values)}
        )

    @cached_property
    def _factors(self) -> np.ndarray:
        return factor_indices(self.exponents)

    @cached_property
    def _derivatives(self):
        """The first derivatives of the basis monomials: for each pair
        (u, j) with e_uj > 0 (u-major order), u, j, e_uj and the
        ``factor_indices`` of z^(e_u - e_j)."""
        rows, cols = np.nonzero(self.exponents)
        reduced = self.exponents[rows]
        reduced[np.arange(rows.size), cols] -= 1
        return rows, cols, self.exponents[rows, cols], factor_indices(reduced)

    def rhs(self, z: np.ndarray) -> np.ndarray:
        """The right-hand sides at ``z``, unchecked: ``z`` must be a finite
        complex array of shape (n,). ``evaluate_rhs`` validates first."""
        return self.coeffs.dot(monomials(z, self._factors))


def _arrays_from_terms(n: int, m: int, terms: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, exponents) of a mapping {(eq, multi-index): nonzero value}:
    one column per distinct multi-index, in canonical order. The
    constructor validates the exponents."""
    columns = {}
    for (eq, index), value in terms.items():
        if isinstance(eq, bool) or not isinstance(eq, numbers.Integral) or not 1 <= eq <= n:
            raise ValidationError(f"equation index {eq!r} outside 1..{n}")
        if value == 0:
            raise ValidationError(f"stored coefficient for eq {eq}, index {index} is exactly zero")
        columns.setdefault(tuple(index), []).append((eq - 1, value))
    check_basis_size(n, m, len(columns))
    indices = sorted(columns, reverse=True)
    coeffs = np.zeros((n, len(indices)), dtype=complex)
    for u, index in enumerate(indices):
        for row, value in columns[index]:
            coeffs[row, u] = value
    return coeffs, np.array(indices) if indices else np.zeros((0, n), dtype=np.intp)


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
