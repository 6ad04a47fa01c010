import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyode.constraints import jacobian
from polyode.errors import ValidationError
from polyode.polysys import (
    PolynomialSystem,
    enumerate_multi_indices,
    evaluate_rhs,
    factor_indices,
    monomials,
)

EPS = np.finfo(float).eps


def brute_force_rhs(system, z):
    """Independent dense-summation oracle: loop over every exponent tuple
    (via itertools, not the package's enumerator) with plain Python complex
    arithmetic."""
    z = [complex(c) for c in z]
    out = []
    for eq in range(1, system.n + 1):
        total = 0j
        for exponents in itertools.product(range(system.m + 1), repeat=system.n):
            if sum(exponents) != system.m:
                continue
            c = system.coefficients.get((eq, exponents), 0j)
            term = c
            for comp, e in zip(z, exponents):
                term *= comp**e
            total += term
        out.append(total)
    return np.array(out)


def power_table_monomials(z, exponents, degree):
    """Reference monomials z^e for the rows e of an exponent array (..., n),
    from a table of the powers z_j^0..z_j^degree built by repeated
    multiplication: each monomial is the product of its n table entries."""
    exponents = np.asarray(exponents, dtype=np.intp)
    positions = exponents * exponents.shape[-1] + np.arange(exponents.shape[-1])
    pows = np.empty((degree + 1, z.size), dtype=complex)
    pows[0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(pows[e - 1], z, out=pows[e])
    return pows.ravel().take(positions).prod(axis=-1)


def random_system(rng, n, m, density=1.0):
    coeffs = {}
    for eq in range(1, n + 1):
        for index in enumerate_multi_indices(n, m):
            if rng.random() < density:
                value = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if value != 0:
                    coeffs[(eq, index)] = value
    return PolynomialSystem(n, m, coeffs)


class TestEnumerate:
    def test_example_n2_m4(self):
        assert enumerate_multi_indices(2, 4) == [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]

    def test_example_n2_m2(self):
        assert enumerate_multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_stars_and_bars_count_n3_m2(self):
        assert len(enumerate_multi_indices(3, 2)) == math.comb(4, 2) == 6

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", range(0, 7))
    def test_count_identity(self, n, m):
        indices = enumerate_multi_indices(n, m)
        assert len(indices) == math.comb(m + n - 1, n - 1)
        assert len(set(indices)) == len(indices)
        assert all(sum(ix) == m and len(ix) == n for ix in indices)

    def test_canonical_order_descending(self):
        indices = enumerate_multi_indices(3, 3)
        assert indices == sorted(indices, reverse=True)

    def test_rejects_zero_variables(self):
        with pytest.raises(ValidationError):
            enumerate_multi_indices(0, 3)


class TestSystemValidation:
    def test_rejects_small_n_or_m(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(1, 4, {})
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 1, {})

    def test_rejects_bad_equation_index(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 2, {(3, (2, 0)): 1.0})

    def test_rejects_wrong_exponent_sum(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 4, {(1, (3, 0)): 1.0})

    def test_rejects_stored_zero(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 2, {(1, (2, 0)): 0.0})

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 2, {(1, (2, 0)): complex(float("nan"), 0)})

    def test_coefficients_stored_in_canonical_order(self):
        sys = PolynomialSystem(2, 2, {(2, (0, 2)): 1.0, (1, (0, 2)): 2.0, (1, (2, 0)): 3.0})
        assert list(sys.coefficients) == [(1, (2, 0)), (1, (0, 2)), (2, (0, 2))]


class TestEvaluateRhs:
    def test_single_monomial(self):
        sys = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})
        np.testing.assert_array_equal(evaluate_rhs(sys, [2, 3]), [4 + 0j, 0j])

    def test_zero_state_kills_all_monomials(self):
        rng = np.random.default_rng(0)
        sys = random_system(rng, 3, 3)
        np.testing.assert_array_equal(evaluate_rhs(sys, [0, 0, 0]), np.zeros(3))

    def test_zero_exponent_ignores_component(self):
        # 0^0 = 1: the monomial z_2^2 must not be affected by z_1 = 0.
        sys = PolynomialSystem(2, 2, {(1, (0, 2)): 1.0})
        np.testing.assert_array_equal(evaluate_rhs(sys, [0, 3]), [9 + 0j, 0j])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_system(rng, 2, 4)
        z = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        np.testing.assert_allclose(evaluate_rhs(sys, z), brute_force_rhs(sys, z), rtol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_dense_agreement(self, seed):
        rng = np.random.default_rng(100 + seed)
        sys = random_system(rng, 3, 3, density=0.4)
        z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(evaluate_rhs(sys, z), brute_force_rhs(sys, z), rtol=1e-13)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(7)
        sys = random_system(rng, 3, 4)
        z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        a = evaluate_rhs(sys, z)
        b = evaluate_rhs(sys, z)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        sys = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})
        with pytest.raises(ValidationError):
            evaluate_rhs(sys, [1, 2, 3])

    @pytest.mark.parametrize("seed", range(20))
    def test_homogeneity(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        sys = random_system(rng, n, m, density=0.7)
        z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = evaluate_rhs(sys, lam * np.asarray(z, dtype=complex))
        rhs = lam**m * evaluate_rhs(sys, z)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def assert_matches_power_table(system, z):
    """The factor-gather kernel against the power-table reference: the RHS,
    the Jacobian and the selection-solve columns (the monomial of every
    multi-index). Each value may differ by 4*M*eps times the sum of the
    moduli of its terms."""
    m = system.m
    coeffs, exponents, _ = system._basis
    tol = 4 * m * EPS

    values = power_table_monomials(z, exponents, m)
    bound = tol * (np.abs(coeffs) @ np.abs(values))
    assert np.all(np.abs(evaluate_rhs(system, z) - coeffs @ values) <= bound)

    k = 0.7 - 0.2j
    ref_jac = k * np.eye(system.n, dtype=complex)
    jac_bound = np.abs(ref_jac)
    for j in range(system.n):
        active = exponents[:, j] > 0
        reduced = exponents[active]
        reduced[:, j] -= 1
        deriv = exponents[active, j] * power_table_monomials(z, reduced, m)
        ref_jac[:, j] -= (1 - m) * (coeffs[:, active] @ deriv)
        jac_bound[:, j] += (m - 1) * (np.abs(coeffs[:, active]) @ np.abs(deriv))
    assert np.all(np.abs(jacobian(system, z, k) - ref_jac) <= tol * jac_bound)

    indices = np.array(enumerate_multi_indices(system.n, m))
    column = power_table_monomials(z, indices, m)
    assert np.all(np.abs(monomials(z, factor_indices(indices)) - column) <= tol * np.abs(column))


class TestFactorGather:
    def test_factor_indices_repeat_each_variable_by_its_exponent(self):
        np.testing.assert_array_equal(
            factor_indices([[2, 0, 1], [0, 3, 0]]), [[0, 0, 2], [1, 1, 1]]
        )

    @pytest.mark.parametrize(
        "n,m,density",
        [(2, m, 1.0) for m in range(2, 7)]
        + [(3, 3, 1.0), (3, 4, 1.0), (6, 5, 1.0), (8, 4, 1.0), (8, 4, 0.1), (10, 6, 0.1)],
    )
    def test_matches_power_table_reference(self, n, m, density):
        rng = np.random.default_rng(1000 * n + m)
        system = random_system(rng, n, m, density)
        z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        assert_matches_power_table(system, z)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 6),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_power_table_property(self, n, m, density, seed):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n, m, density)
        z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        assert_matches_power_table(system, z)
