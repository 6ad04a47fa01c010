"""Seeded random generation of solvable instances.

Generation fixes the initial data, the rate parameter and all but N
coefficients, then solves for the remaining N linearly: those of the
"pure" monomials, exponent M on the equation's own variable. Their
linear-solve coefficient is z_n(0)^M, which is nonzero because the initial
data is drawn bounded away from 0. A draw whose solve is singular, or
whose solved instance misses the constraint tolerance (at large M the
solved coefficients are cancelled sums), is replaced by the next attempt's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .constraints import SolvableInstance, solve_linear_selection
from .errors import (
    ConstraintNotSatisfied,
    SingularSystem,
    ValidationError,
    check_count,
    check_positive,
)
from .polysys import PolynomialSystem, full_basis
from .polysys import enumerate_multi_indices  # noqa: F401  (wrapped here by perfbench/tracing.py)

_RESEED_ATTEMPTS = 16
# The signs of z0's parts, indexed as ``rng.choice([-1.0, 1.0])`` reads its
# stream: one integer draw in {0, 1} each.
_SIGNS = np.array([-1.0, 1.0])


def generate_random_instance(
    n: int,
    m: int,
    seed: int,
    density: float = 1.0,
    k_cap: float | None = None,
) -> SolvableInstance:
    """Deterministic random solvable instance for the given seed.

    Initial data components have |Re| and |Im| in [0.2, 1]; the free
    coefficients (a subset of the non-pure ones per ``density``) and K are
    drawn uniformly from [-1, 1]^2. ``k_cap`` rescales K to that modulus
    when exceeded (used for the small-K periodic regime).
    """
    n, m = check_count("n", n, 2), check_count("m", m, 2)
    seed = check_count("seed", seed, 0)
    if check_positive("density", density) > 1:
        raise ValidationError(f"density must be in (0, 1], got {density!r}")
    if k_cap is not None:
        k_cap = check_positive("k_cap", k_cap)
    pure, template, free, free_count = _layout(n, m)
    last_error = None
    for attempt in range(_RESEED_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        mags = rng.uniform(0.2, 1.0, size=(n, 2))
        signs = _SIGNS[rng.integers(0, 2, size=(n, 2))]
        z0 = signs[:, 0] * mags[:, 0] + 1j * signs[:, 1] * mags[:, 1]

        coeffs = template.copy()
        coeffs[free], k = _free_values_and_k(rng, free_count, density)
        if k_cap is not None and abs(k) > k_cap:
            k *= k_cap / abs(k)

        system = PolynomialSystem(n, m, coeffs=coeffs, exponents=full_basis(n, m))
        try:
            return solve_linear_selection(system, z0, k, pure)
        except (SingularSystem, ConstraintNotSatisfied) as exc:
            last_error = exc
    raise last_error


@lru_cache(maxsize=8)
def _layout(n: int, m: int) -> tuple:
    """What every draw of (n, m) shares over ``full_basis(n, m)``, read-only:
    the pure keys, coefficients with 1 at each pure entry (which the solve
    replaces, so a sparse draw keeps its pure columns and is solved on its
    own basis), and the mask and count of the free entries. The mask lists
    them in draw order: equation by equation, each over the basis in
    canonical order, skipping the equation's pure monomial."""
    column = full_basis(n, m).column
    pure = tuple((eq + 1, (0,) * eq + (m,) + (0,) * (n - 1 - eq)) for eq in range(n))
    free = np.ones((n, len(column)), dtype=bool)
    free[range(n), [column[own] for _, own in pure]] = False
    template = np.where(free, 0j, 1 + 0j)
    template.flags.writeable = free.flags.writeable = False
    return pure, template, free, int(np.add.reduce(free, axis=None))


def _free_values_and_k(rng, count: int, density: float) -> tuple[list[complex], complex]:
    """Values of ``count`` free entries, then K, read in order from one block
    of 3 * count + 2 uniforms u: an entry is kept when its first u is below
    ``density`` and takes the next two as -1 + 2u (exactly
    ``rng.uniform(-1, 1)``); a dropped entry is 0 and reads one u. K takes
    the two u after the last entry. Nothing is drawn from ``rng`` after K,
    so the unread tail of the block changes no instance."""
    block = memoryview(rng.random(3 * count + 2))
    values = [0j] * count
    i = 0
    for entry in range(count):
        if block[i] < density:
            values[entry] = complex(-1 + 2 * block[i + 1], -1 + 2 * block[i + 2])
            i += 3
        else:
            i += 1
    return values, complex(-1 + 2 * block[i], -1 + 2 * block[i + 1])
