"""Seeded random generation of solvable instances.

Generation fixes the initial data, the rate parameter and all but N
coefficients, then solves the remaining N slots linearly. The solved slots
are the "pure" monomials (exponent M on the slot's own variable): their
linear-solve coefficient is z_n(0)^M, which is nonzero because the initial
data is drawn bounded away from 0.
"""

from __future__ import annotations

import numpy as np

from .constraints import (
    CoefficientSlot,
    SingularSystem,
    SolvableInstance,
    UnknownSelection,
    solve_linear_selection,
)
from .errors import ValidationError
from .polysys import PolynomialSystem, enumerate_multi_indices

_RESEED_ATTEMPTS = 16


def _pure_slot(eq: int, n: int, m: int) -> CoefficientSlot:
    index = tuple(m if i == eq - 1 else 0 for i in range(n))
    return CoefficientSlot(eq, index)


def generate_random_instance(
    n: int,
    m: int,
    seed: int,
    density: float = 1.0,
    k_cap: float | None = None,
) -> SolvableInstance:
    """Deterministic random solvable instance for the given seed.

    Initial data components have |Re| and |Im| in [0.2, 1]; the free
    coefficients (a subset of the non-pure slots per ``density``) and K are
    drawn uniformly from [-1, 1]^2. ``k_cap`` rescales K to that modulus
    when exceeded (used for the small-K periodic regime).
    """
    if n < 2 or m < 2:
        raise ValidationError(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    if not 0 < density <= 1:
        raise ValidationError(f"density must be in (0, 1], got {density}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    indices = enumerate_multi_indices(n, m)
    exponents = np.array(indices, dtype=np.intp)
    pure = [_pure_slot(eq, n, m) for eq in range(1, n + 1)]
    last_error = None
    for attempt in range(_RESEED_ATTEMPTS):
        rng = np.random.default_rng([int(seed), attempt])
        mags = rng.uniform(0.2, 1.0, size=(n, 2))
        signs = rng.choice([-1.0, 1.0], size=(n, 2))
        z0 = signs[:, 0] * mags[:, 0] + 1j * signs[:, 1] * mags[:, 1]

        coeffs = np.zeros((n, len(indices)), dtype=complex)
        for row, slot in enumerate(pure):
            for u, index in enumerate(indices):
                if index != slot.index and rng.random() < density:
                    coeffs[row, u] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if k_cap is not None and abs(k) > k_cap:
            k *= k_cap / abs(k)

        system = PolynomialSystem(n, m, coeffs=coeffs, exponents=exponents)
        try:
            return solve_linear_selection(system, z0, k, UnknownSelection(tuple(pure)))
        except SingularSystem as exc:
            last_error = exc
    raise last_error
