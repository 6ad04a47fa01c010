"""Systems of N first-order ODEs with homogeneous polynomial right-hand sides.

A system of dimension N and degree M is a complex coefficient matrix over a
basis of monomials: coefficient c[eq, u] multiplies the monomial
z_1^{m_1} * ... * z_N^{m_N} of basis row u on the right-hand side of
equation ``eq``, where the exponents are nonnegative integers summing to M.

A basis is a value. ``full_basis(n, M)`` holds all multi-indices of
(n, M) in canonical order, made once per (n, M) and canonical by
construction, so never checked. A system shares a basis passed as its
exponents (the generator's ``full_basis``, the selection solve's),
checking only its row length and degree, and shares ``full_basis`` when
its exponents equal that array, as a file's may. Dropping a system's
zero columns takes rows of its basis, which are sorted and valid
already, along with any factors built. Any other exponents (a sparse
file, a list of a few terms) are validated, and the system owns them. A
basis holds the read-only exponents and, built on first use, their
``factor_indices``, a multi-index -> row map and the derivatives'
factors. A system owns its coefficients and compares by identity.

The right-hand sides have two contracts. ``kernel()`` gives the
integrator an unchecked in-place ``store(z, out)``; every other caller
uses ``evaluate_rhs``, which checks the state and returns a new array
with the same bits.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import ValidationError, check_count, check_type, is_integer

# Largest number of exponent and factor entries, U * (n + M) for U
# multi-indices, that a system, enumeration or generation may allocate.
# (10, 6), the largest size tested, has 5,005 * 16 = 80,080.
MAX_BASIS_SIZE = 2_000_000


def _full_rows(n: int, m: int) -> int:
    """binomial(m + n - 1, n - 1), built one factor at a time: once it
    exceeds ``MAX_BASIS_SIZE // (n + m)``, the first partial product past it."""
    limit = MAX_BASIS_SIZE // (n + m)
    k = min(n - 1, m)
    terms = 1
    for i in range(1, k + 1):
        terms = terms * (m + n - 1 - k + i) // i  # binomial(m + n - 1 - k + i, i)
        if terms > limit:
            break
    return terms


def check_basis_size(n: int, m: int, terms: int | None = None) -> None:
    """Refuse a basis of ``terms`` multi-indices of (n, m), by default all
    ``_full_rows(n, m)`` of them, whose (U x n) exponents and (U x M)
    ``factor_indices`` would exceed ``MAX_BASIS_SIZE`` entries."""
    terms = _full_rows(n, m) if terms is None else terms
    if terms > MAX_BASIS_SIZE // (n + m):
        raise ValidationError(
            f"(n, m) = ({n}, {m}) with {terms} or more multi-indices exceeds "
            f"{MAX_BASIS_SIZE} exponent and factor entries"
        )


def enumerate_multi_indices(n: int, m: int) -> list[tuple]:
    """All tuples of ``n`` nonnegative integers summing to ``m``.

    Canonical order: lexicographically descending on the exponents. The
    length is always binomial(m + n - 1, n - 1). Sizes that
    ``check_basis_size`` refuses raise ValidationError before anything is
    allocated.
    """
    n, m = check_count("n", n, 1), check_count("m", m, 0)
    check_basis_size(n, m)
    return _multi_indices(n, m)


def _multi_indices(n: int, m: int) -> list[tuple]:
    if n == 1:
        return [(m,)]
    return [
        (first,) + rest for first in range(m, -1, -1) for rest in _multi_indices(n - 1, m - first)
    ]


def exponent_rows(rows, n: int, m: int) -> np.ndarray:
    """``rows`` as a (U x n) integer array of multi-indices, each ``n``
    integers in 0..m summing to ``m`` (a bool is not an integer); an empty
    ``rows`` of shape (0,) is zero rows. Anything else is a ValidationError."""
    try:
        exponents = np.asarray(rows)
        if exponents.shape == (0,):  # [] holds no row length
            exponents = np.zeros((0, n), dtype=np.intp)
    except ValueError as exc:  # ragged rows, or n beyond numpy's dimensions
        raise ValidationError(f"malformed exponent rows: {exc}") from exc
    if exponents.dtype.kind not in "iu" or exponents.ndim != 2 or exponents.shape[1] != n:
        raise ValidationError(
            f"exponents must be integer rows of length {n}, got {exponents.dtype} {exponents.shape}"
        )
    # np.asarray reads True among integers as 1; an integer array holds none.
    entries = () if isinstance(rows, np.ndarray) else chain.from_iterable(rows)
    if not {bool, np.bool_}.isdisjoint(map(type, entries)):
        raise ValidationError("a multi-index holds a bool; exponents must be integers")
    exponents = exponents.astype(np.intp)
    # ufunc reductions: the ndarray methods add a Python wrapper per call.
    bad = np.logical_or.reduce((exponents < 0) | (exponents > m), axis=1)
    bad |= np.add.reduce(exponents, axis=1) != m
    if np.logical_or.reduce(bad):
        index = exponents[bad.argmax()].tolist()
        raise ValidationError(f"multi-index {index} is not {n} nonnegative integers summing to {m}")
    return exponents


def as_array(value, dtype, name: str) -> np.ndarray:
    """``value`` as an array of ``dtype``; a value that numpy cannot convert
    (a string, a ragged list, a complex as a float, an integer beyond the
    dtype's range) is a ValidationError."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not an array of numbers: {exc}") from exc


def as_state(z, n: int) -> np.ndarray:
    """Validate and convert a state to a non-empty length-``n`` complex array."""
    arr = as_array(z, complex, "state")
    if n == 0 or arr.shape != (n,):
        raise ValidationError(f"state has shape {arr.shape}, expected a non-empty ({n},)")
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValidationError("state contains non-finite components")
    return arr


class _Basis:
    """Read-only (U x n) exponents, sorted and valid, and, built on first
    use, their factors, {multi-index: row} and the derivative factors. The
    factors stay writable: ``take`` costs 0.15 us more with read-only ones."""

    def __init__(self, exponents: np.ndarray):
        exponents.flags.writeable = False
        self.exponents = exponents

    @cached_property
    def factors(self) -> np.ndarray:
        return factor_indices(self.exponents)

    @cached_property
    def column(self) -> dict[tuple, int]:
        return {tuple(index): u for u, index in enumerate(self.exponents.tolist())}

    @cached_property
    def derivatives(self) -> tuple:
        """For each pair (u, j) with e_uj > 0 (u-major order): u, j, e_uj
        and the ``factor_indices`` of z^(e_u - e_j), from d(z^e_u)/dz_j."""
        rows, cols = np.nonzero(self.exponents)
        reduced = self.exponents[rows]
        reduced[np.arange(rows.size), cols] -= 1
        return rows, cols, self.exponents[rows, cols], factor_indices(reduced)

    def subset(self, mask: np.ndarray) -> _Basis:
        """The rows under a boolean mask, as sorted and valid as these, so
        not checked; factors built already are taken by row, not rebuilt."""
        basis = _Basis(self.exponents[mask])
        if "factors" in self.__dict__:
            basis.factors = self.factors[mask]
        return basis


@lru_cache(maxsize=8)
def full_basis(n: int, m: int) -> _Basis:
    """The basis of all ``enumerate_multi_indices(n, m)``, kept for 8 (n, m)."""
    return _Basis(np.array(enumerate_multi_indices(n, m), dtype=np.intp))


def _basis_of(rows, n: int, m: int) -> _Basis:
    """``rows`` itself if it is a ``_Basis`` of (n, m): its rows are valid,
    so only their length and degree are checked. ``full_basis(n, m)`` if
    ``rows`` equal its exponents (the row count decides whether to
    compare, so a refused size is never enumerated); else a checked basis
    of their own. Rows not in an intp array (a list may hold a bool) are
    read first."""
    if isinstance(rows, _Basis):
        shape = rows.exponents.shape
        degree = int(np.add.reduce(rows.exponents[0])) if shape[0] else m
        if (shape[1], degree) != (n, m):
            raise ValidationError(f"a basis of (n, m) = ({shape[1]}, {degree}), not ({n}, {m})")
        return rows
    read = not isinstance(rows, np.ndarray) or rows.dtype != np.intp
    if read:
        rows = exponent_rows(rows, n, m)
    count = _full_rows(n, m)
    if rows.shape == (count, n) and count <= MAX_BASIS_SIZE // (n + m):
        full = full_basis(n, m)
        # ufuncs: np.array_equal adds a Python wrapper per call.
        if np.logical_and.reduce(rows == full.exponents, axis=None):
            return full
    if not read:
        rows = exponent_rows(rows, n, m)
    # Row u precedes row u + 1 iff their first differing exponent drops.
    step = rows[:-1] - rows[1:]
    if np.logical_or.reduce(step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0):
        raise ValidationError("exponent rows must be unique and in descending order")
    return _Basis(rows)


@dataclass(frozen=True, eq=False)
class PolynomialSystem:
    """Homogeneous polynomial system of dimension ``n`` and degree ``m``.

    ``PolynomialSystem(n, m, coeffs=..., exponents=...)`` holds two arrays
    over the system's U monomials. ``exponents`` (U x n, integer) holds
    their multi-indices, unique and in canonical order (strictly descending
    lexicographically); an empty ``[]`` is zero rows. ``coeffs`` (n x U,
    complex) holds the coefficient of monomial u in equation eq at
    ``coeffs[eq - 1, u]``. A zero coefficient is an absent term, and columns
    that are zero in every equation are dropped, so a sparse system pays
    only for the monomials it stores, as unchecked rows of its basis.
    ``__post_init__`` shares a basis passed as ``exponents`` (the
    generator's, the selection solve's), once its rows have length n and
    degree m, and ``full_basis(n, m)`` when the exponents equal its array;
    else it validates them into a read-only copy that the system owns. It
    checks the coefficients of every system, stores a read-only copy, and
    refuses what ``check_basis_size`` does. ``coefficients`` is the derived
    read-only mapping {(eq, multi-index): value}, in canonical order:
    equation ascending, then exponents descending. Systems compare by
    identity, not by their arrays. The integrator evaluates the RHS by
    ``kernel()``, any other caller by ``evaluate_rhs``.
    """

    n: int
    m: int
    coeffs: np.ndarray = field(kw_only=True)
    exponents: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        n, m = check_count("n", self.n, 2), check_count("m", self.m, 2)
        check_basis_size(n, m, 1)  # bounds n before an empty basis builds any array
        try:
            coeffs = np.array(self.coeffs, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed coefficients: {exc}") from exc
        basis = _basis_of(self.exponents, n, m)
        if coeffs.shape != (n, len(basis.exponents)):
            raise ValidationError(
                f"coefficients {coeffs.shape} do not fit exponents {basis.exponents.shape}"
            )
        if not np.logical_and.reduce(np.isfinite(coeffs), axis=None):
            raise ValidationError("coefficients contain non-finite values")
        stored = np.logical_or.reduce(coeffs, axis=0)
        if not np.logical_and.reduce(stored):
            coeffs = coeffs.compress(stored, axis=1)
            basis = basis.subset(stored)
        check_basis_size(n, m, len(basis.exponents))
        coeffs.flags.writeable = False
        for name, value in (
            ("n", n), ("m", m), ("coeffs", coeffs), ("exponents", basis.exponents), ("_basis", basis)
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def coefficients(self) -> Mapping[tuple[int, tuple], complex]:
        rows, cols = np.nonzero(self.coeffs)
        indices = [tuple(index) for index in self.exponents.tolist()]
        values = self.coeffs[rows, cols].tolist()
        return MappingProxyType(
            {(eq + 1, indices[u]): v for eq, u, v in zip(rows.tolist(), cols.tolist(), values)}
        )

    def kernel(self):
        """The right-hand sides as ``store(z, out)``, which writes f(z) into
        the complex (n,) array ``out``, unchecked: ``z`` must be a complex
        array of shape (n,), since the gather clips an index past its end.
        Its work arrays, the gathered factors (U x M) and the monomials (U),
        are allocated here, once, and belong to the returned function alone:
        make one kernel per integration or thread, and nothing is kept on the
        system. Each monomial is the product of its factors in factor order,
        and the monomials are summed by one BLAS matrix-vector product. The
        three calls are bound here, so a call looks none of them up."""
        factors = self._basis.factors
        taken = np.empty(factors.shape, dtype=complex)
        values = np.empty(len(factors), dtype=complex)
        take, product, dot = np.ndarray.take, np.multiply.reduce, self.coeffs.dot

        def store(z, out):
            take(z, factors, out=taken, mode="clip")
            product(taken, axis=-1, out=values)
            dot(values, out=out)

        return store


def coefficient_keys(keys, n: int, m: int) -> list[tuple[int, tuple]]:
    """``keys`` as ``PolynomialSystem.coefficients`` keys (eq, multi-index
    tuple): eq an integer in 1..n (a bool is not an integer), the
    multi-index one that ``exponent_rows`` accepts; else a ValidationError."""
    try:
        keys = list(keys)
    except TypeError as exc:
        raise ValidationError(f"coefficient keys {keys!r} are not iterable") from exc
    pairs = []
    for key in keys:
        try:
            eq, index = key
            index = tuple(index)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"coefficient key {key!r} is not (eq, multi-index)") from exc
        if not is_integer(eq) or not 1 <= eq <= n:
            raise ValidationError(f"equation index must be an integer in 1..{n}, got {eq!r}")
        pairs.append((eq, index))
    exponent_rows([index for _, index in pairs], n, m)
    return pairs


def factor_indices(exponents) -> np.ndarray:
    """The factors of each monomial z^e as variable indices, for the rows e
    of an integer exponent array (..., n) with equal row sums d: index j
    repeated e_j times, ascending, so the result has shape (..., d)."""
    exponents = np.asarray(exponents, dtype=np.intp)
    degree = int(np.maximum.reduce(np.add.reduce(exponents, axis=-1), axis=None, initial=0))
    # Filled in place: np.broadcast_to and ndarray.max are Python wrappers,
    # whose cost a small basis notices.
    variables = np.empty_like(exponents)
    variables[...] = np.arange(exponents.shape[-1])
    factors = variables.ravel().repeat(exponents.ravel())
    return factors.reshape(exponents.shape[:-1] + (degree,))


def monomials(z: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Values of the monomials whose ``factor_indices`` are ``factors``,
    unchecked (``z`` is a complex array of shape (n,)).

    Each monomial is the product of its factors gathered from ``z``, taken
    in factor order; a monomial with no factors is 1.
    """
    # ufunc.reduce, not ndarray.prod, which goes through a Python wrapper.
    return np.multiply.reduce(z.take(factors), axis=-1)


def evaluate_rhs(system: PolynomialSystem, z) -> np.ndarray:
    """The polynomial right-hand sides at state ``z``, validated by
    ``as_state``, as a new array: bit for bit what ``system.kernel()``
    writes. The monomials are summed by one BLAS matrix-vector product, in
    BLAS's order, not canonical multi-index order; deterministic."""
    check_type("system", system, PolynomialSystem)
    return system.coeffs.dot(monomials(as_state(z, system.n), system._basis.factors))
