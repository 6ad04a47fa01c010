"""The generator's draws, and the proposition over generated draws: an
instance that satisfies the constraints and is well conditioned agrees with
the oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyode import generate, oracle
from polyode.closedform import ClosedFormSolution, blow_up_time
from polyode.constraints import jacobian, solve_linear_selection
from polyode.errors import ConstraintNotSatisfied, SingularSystem
from polyode.generate import generate_random_instance
from polyode.oracle import MAX_DEVIATION, verify_instance
from polyode.polysys import PolynomialSystem, enumerate_multi_indices

from test_constraints import counting


def per_entry_generate(n, m, seed, density=1.0, k_cap=None):
    """The generator as it drew before bulk draws: three ``rng`` calls per
    kept entry, one per dropped entry. The reference for the instances."""
    indices = enumerate_multi_indices(n, m)
    pure = [(eq + 1, (0,) * eq + (m,) + (0,) * (n - 1 - eq)) for eq in range(n)]
    for attempt in range(16):
        rng = np.random.default_rng([seed, attempt])
        mags = rng.uniform(0.2, 1.0, size=(n, 2))
        signs = rng.choice([-1.0, 1.0], size=(n, 2))
        z0 = signs[:, 0] * mags[:, 0] + 1j * signs[:, 1] * mags[:, 1]
        coeffs = np.zeros((n, len(indices)), dtype=complex)
        for row, (_, own) in enumerate(pure):
            for u, index in enumerate(indices):
                if index != own and rng.random() < density:
                    coeffs[row, u] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if k_cap is not None and abs(k) > k_cap:
            k *= k_cap / abs(k)
        system = PolynomialSystem(n, m, coeffs=coeffs, exponents=np.array(indices))
        try:
            return solve_linear_selection(system, z0, k, pure)
        except (SingularSystem, ConstraintNotSatisfied):
            continue
    raise AssertionError("no solvable draw")


def bits(instance):
    system = instance.system
    return (
        system.coeffs.tobytes(),
        system.exponents.tobytes(),
        instance.z0.tobytes(),
        np.complex128(instance.k).tobytes(),
    )


@pytest.mark.parametrize("density", [1.0, 0.6, 0.1, 0.05])
@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 3), (6, 3)])
def test_bulk_draws_match_per_entry_draws(n, m, density):
    for seed in range(8):
        for k_cap in (None, 0.1):
            new = generate_random_instance(n, m, seed, density=density, k_cap=k_cap)
            old = per_entry_generate(n, m, seed, density=density, k_cap=k_cap)
            assert bits(new) == bits(old), (seed, k_cap)


def test_redrawn_attempts_match_per_entry_draws(monkeypatch):
    # At (2, 40) some first draws miss the constraint tolerance (seed 0's
    # does), so K is read after a second attempt's free entries.
    solves = counting(monkeypatch, generate, "solve_linear_selection")
    for seed in range(40):
        new = generate_random_instance(2, 40, seed)
        assert bits(new) == bits(per_entry_generate(2, 40, seed)), seed
    assert len(solves) > 40  # some seed needed a second attempt


def test_draws_again_when_the_solve_misses_the_tolerance(monkeypatch):
    # At M of 36 and 40 some first draws solve to a residual above 1e-10 of
    # its scale (the pure coefficients are cancelled sums of 40 terms). Such
    # a draw is replaced by the next attempt's, as a singular one is, so
    # every seed yields an instance.
    solves = counting(monkeypatch, generate, "solve_linear_selection")
    for m in (36, 40):
        for seed in range(40):
            assert generate_random_instance(2, m, seed).system.m == m
    assert len(solves) > 80


def t_end(instance):
    t_star = blow_up_time(ClosedFormSolution(instance.z0, instance.k, instance.system.m))
    return 0.8 * min(t_star if t_star is not None else 1.0, 1.0)


def log_error_growth(instance, times):
    """Log of a bound on how much the flow along the special solution
    z0 * g^(1/(1-M)), g = 1 + K t, amplifies an error made at one of
    ``times`` at a later one: a perturbation evolves as g^A with
    A = DP(z0) / K, so with A = V diag(lam) V^-1 the growth is at most
    cond(V) * max exp(Re(lam (log g(t) - log g(s)))) over s <= t."""
    system, k = instance.system, instance.k
    dp = (jacobian(system, instance.z0, k) - k * np.eye(system.n)) / (system.m - 1)
    lam, vecs = np.linalg.eig(dp / k)
    rates = (lam[:, None] * np.log(1 + k * times)[None, :]).real
    growth = float((rates - np.minimum.accumulate(rates, axis=1)).max())
    return growth + math.log(np.linalg.cond(vecs))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3]), m=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**31 - 1))
def test_constraint_satisfied_implies_oracle_agrees(n, m, seed):
    # Generation returns only instances whose constraint residual is within
    # tolerance. The check is well posed when a local error at the oracle's
    # REL_TOL cannot grow past MAX_DEVIATION: growth below
    # log(MAX_DEVIATION / REL_TOL) ~ 9.2.
    instance = generate_random_instance(n, m, seed)
    end = t_end(instance)
    growth = log_error_growth(instance, np.linspace(0.0, end, 257))
    assume(growth <= math.log(MAX_DEVIATION / oracle.REL_TOL))
    assert verify_instance(instance, end, 64) <= MAX_DEVIATION
