import inspect
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyode import polysys
from polyode.constraints import jacobian
from polyode.errors import ValidationError
from polyode.periodic import PeriodicSystem, eval_periodic_rhs
from polyode.polysys import (
    MAX_BASIS_SIZE,
    MAX_SHARED_BASES,
    PolynomialSystem,
    check_basis_size,
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
    exponents = enumerate_multi_indices(n, m)
    coeffs = np.zeros((n, len(exponents)), dtype=complex)
    for row in coeffs:
        for u in range(len(exponents)):
            if rng.random() < density:
                row[u] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return PolynomialSystem(n, m, coeffs=coeffs, exponents=exponents)


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


class TestBasisSizeGuard:
    # The guard is tested by arithmetic and at sizes whose unguarded
    # allocation would be small: never by a call that could allocate.

    def test_limit_sits_well_above_the_tested_sizes(self):
        assert 20 * math.comb(15, 9) * (10 + 6) <= MAX_BASIS_SIZE
        check_basis_size(10, 6)

    @pytest.mark.parametrize("n,m", [(30, 30), (10**6, 10**6), (2, 10**30), (10**30, 2)])
    def test_refuses_huge_sizes_by_arithmetic(self, n, m):
        with pytest.raises(ValidationError, match="exceeds"):
            check_basis_size(n, m)

    def test_matches_the_binomial(self):
        for n in range(1, 25):
            for m in range(0, 40):
                refused = math.comb(m + n - 1, n - 1) * (n + m) > MAX_BASIS_SIZE
                try:
                    check_basis_size(n, m)
                except ValidationError:
                    assert refused, (n, m)
                else:
                    assert not refused, (n, m)

    def test_enumerate_refuses_a_cheap_oversized_degree(self):
        # (2, 1500) has 1,501 multi-indices but 1,501 * 1,502 basis entries.
        with pytest.raises(ValidationError, match="exceeds"):
            enumerate_multi_indices(2, 1500)

    def test_refuses_more_terms_than_the_limit_allows(self):
        exponents = [[m, 2000 - m] for m in range(1000, -1, -1)]
        with pytest.raises(ValidationError, match="exceeds"):
            PolynomialSystem(2, 2000, coeffs=np.ones((2, 1001)), exponents=exponents)

    def test_refuses_one_term_of_a_huge_degree(self):
        # One monomial of degree 3,000,000 would need a factor table of
        # 3,000,000 entries, built at the first RHS call.
        m = 3_000_000
        with pytest.raises(ValidationError, match="exceeds"):
            PolynomialSystem(2, m, coeffs=[[1.0], [0.0]], exponents=[[m, 0]])

    @pytest.mark.parametrize("n", [3 * 10**6, 10**30])
    def test_an_empty_basis_still_bounds_n(self, n):
        # One row of n exponents and m factors would exceed the limit.
        with pytest.raises(ValidationError, match=rf"^\(n, m\) = \({n}, 2\) .* exceeds 2000000 "):
            PolynomialSystem(n, 2, coeffs=np.zeros((0, 0)), exponents=[])


class TestSystemValidation:
    def test_rejects_small_n_or_m(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(1, 4, coeffs=[[]], exponents=[])
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 1, coeffs=[[], []], exponents=[])

    def test_rejects_bad_equation_index(self):
        # A coefficient of equation 3 is a third row, which n = 2 lacks.
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 2, coeffs=[[0], [0], [1.0]], exponents=[[2, 0]])

    def test_rejects_wrong_exponent_sum(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 4, coeffs=[[1.0], [0]], exponents=[[3, 0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 2, coeffs=[[complex(float("nan"), 0)], [0]], exponents=[[2, 0]])

    def test_coefficients_stored_in_canonical_order(self):
        sys = PolynomialSystem(2, 2, coeffs=[[3.0, 2.0], [0, 1.0]], exponents=[[2, 0], [0, 2]])
        assert list(sys.coefficients) == [(1, (2, 0)), (1, (0, 2)), (2, (0, 2))]


class TestSystemArrays:
    def test_the_two_arrays_are_the_only_input(self):
        assert list(inspect.signature(PolynomialSystem).parameters) == [
            "n", "m", "coeffs", "exponents"
        ]
        with pytest.raises(TypeError):
            PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})

    def test_arrays_round_trip_through_the_mapping(self):
        sys = random_system(np.random.default_rng(3), 3, 4, density=0.5)
        again = PolynomialSystem(3, 4, coeffs=sys.coeffs, exponents=sys.exponents)
        assert again.coefficients == sys.coefficients

    def test_an_empty_basis_is_zero_rows(self):
        sys = PolynomialSystem(2, 4, coeffs=[[], []], exponents=[])
        assert sys.exponents.shape == (0, 2) and sys.coefficients == {}
        for exponents in ([[]], [2, 0]):
            with pytest.raises(ValidationError, match="integer rows of length 2"):
                PolynomialSystem(2, 4, coeffs=[[], []], exponents=exponents)

    def test_zero_columns_are_dropped(self):
        sys = PolynomialSystem(
            2, 2, coeffs=[[1, 0, 0], [2, 0, 3]], exponents=[[2, 0], [1, 1], [0, 2]]
        )
        np.testing.assert_array_equal(sys.exponents, [[2, 0], [0, 2]])
        assert sys.coefficients == {(1, (2, 0)): 1, (2, (2, 0)): 2, (2, (0, 2)): 3}

    def test_state_is_read_only(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        with pytest.raises(ValueError):
            sys.coeffs[0, 0] = 2
        with pytest.raises(ValueError):
            sys.exponents[0, 0] = 1
        with pytest.raises(TypeError):
            sys.coefficients[(1, (2, 0))] = 2

    @pytest.mark.parametrize(
        "exponents",
        [
            [[0, 2], [2, 0]],  # ascending
            [[2, 0], [2, 0]],  # duplicate
            [[3, -1], [0, 2]],  # negative
            [[2, 1], [0, 2]],  # wrong sum
            [[2.0, 0.0], [0.0, 2.0]],  # not integers
            [[2, 0, 0], [0, 2, 0]],  # wrong length
            [[2, 0], [2]],  # ragged
            [[True, 1], [0, 2]],  # a bool, which numpy reads as 1
            [[np.True_, 1], [0, 2]],
        ],
    )
    def test_rejects_bad_exponents(self, exponents):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 2, coeffs=np.ones((2, 2)), exponents=exponents)

    @pytest.mark.parametrize("coeffs", [np.ones((2, 3)), np.ones(2), [[1, np.inf], [0, 1]]])
    def test_rejects_bad_coefficients(self, coeffs):
        with pytest.raises(ValidationError):
            PolynomialSystem(2, 2, coeffs=coeffs, exponents=[[2, 0], [0, 2]])

    @pytest.mark.parametrize("n,m", [(2.5, 2), (2, "3"), (10**30, 2)])
    def test_rejects_bad_dimensions(self, n, m):
        with pytest.raises(ValidationError):
            PolynomialSystem(n, m, coeffs=[[], []], exponents=[])


class TestSharedBasis:
    def test_systems_share_the_basis_and_own_their_coefficients(self):
        exponents = np.array(enumerate_multi_indices(2, 3))
        a = PolynomialSystem(2, 3, coeffs=np.ones((2, 4)), exponents=exponents)
        b = PolynomialSystem(2, 3, coeffs=np.ones((2, 4)), exponents=exponents.tolist())
        assert a.exponents is b.exponents and a.exponents is not exponents
        assert exponents.flags.writeable
        assert a.coeffs is not b.coeffs and a != b

    # The message of each bad array, as a system built without the table
    # refuses it.
    BAD_ROWS = {
        "unsorted": ([[0, 2], [1, 1], [2, 0]], "unique and in descending order"),
        "duplicated": ([[2, 0], [2, 0], [0, 2]], "unique and in descending order"),
        "wrong_sum": ([[2, 0], [1, 1], [0, 1]], r"\[0, 1\] is not 2 nonnegative integers summing to 2"),
        "bool": (np.ones((3, 2), dtype=bool), "integer rows of length 2, got bool"),
        "list_with_bool": ([[2, 0], [1, True], [0, 2]], "a multi-index holds a bool"),
    }

    @pytest.mark.parametrize("name", BAD_ROWS)
    def test_a_cached_shape_refuses_what_a_miss_refuses(self, name):
        # The list with a bool reads as the cached basis's very bytes.
        rows, message = self.BAD_ROWS[name]
        valid = np.array([[2, 0], [1, 1], [0, 2]])
        PolynomialSystem(2, 2, coeffs=np.ones((2, 3)), exponents=valid)
        for _ in range(2):  # a refused array is not cached either
            with pytest.raises(ValidationError, match=message):
                PolynomialSystem(2, 2, coeffs=np.ones((2, 3)), exponents=rows)
            if isinstance(rows, list) and name != "list_with_bool":
                with pytest.raises(ValidationError, match=message):
                    PolynomialSystem(2, 2, coeffs=np.ones((2, 3)), exponents=np.array(rows))

    def test_the_table_keeps_its_bound_and_an_evicted_basis_rebuilds(self):
        # Sparse draws at (3, 4) give distinct bases.
        systems = [
            random_system(np.random.default_rng(seed), 3, 4, density=0.3)
            for seed in range(MAX_SHARED_BASES + 8)
        ]
        assert len({s.exponents.tobytes() for s in systems}) == len(systems)
        assert len(polysys._BASES) == MAX_SHARED_BASES
        first = systems[0]
        again = PolynomialSystem(3, 4, coeffs=first.coeffs, exponents=first.exponents.copy())
        assert again.exponents is not first.exponents  # evicted, then validated anew
        z = np.array([0.3 + 0.1j, -0.7 + 0.2j, 0.5 - 0.9j])
        for array in ("coeffs", "exponents"):
            assert getattr(again, array).tobytes() == getattr(first, array).tobytes()
        assert evaluate_rhs(again, z).tobytes() == evaluate_rhs(first, z).tobytes()
        assert len(polysys._BASES) == MAX_SHARED_BASES

    def test_threads_share_the_table(self):
        # More threads than cores, switching often, build systems over more
        # bases than the table keeps: every lookup, store and eviction races.
        bases = [np.array(enumerate_multi_indices(2, m)) for m in range(2, 2 + 2 * MAX_SHARED_BASES)]
        failures = []

        def build():
            try:
                for _ in range(30):
                    for exponents in bases:
                        coeffs = np.ones((2, len(exponents)))
                        system = PolynomialSystem(2, len(exponents) - 1, coeffs=coeffs, exponents=exponents)
                        assert np.array_equal(system.exponents, exponents)
            except Exception as exc:  # reported below, from the test's thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and len(polysys._BASES) <= MAX_SHARED_BASES


class TestEvaluateRhs:
    def test_single_monomial(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        np.testing.assert_array_equal(evaluate_rhs(sys, [2, 3]), [4 + 0j, 0j])

    def test_zero_state_kills_all_monomials(self):
        rng = np.random.default_rng(0)
        sys = random_system(rng, 3, 3)
        np.testing.assert_array_equal(evaluate_rhs(sys, [0, 0, 0]), np.zeros(3))

    def test_zero_exponent_ignores_component(self):
        # 0^0 = 1: the monomial z_2^2 must not be affected by z_1 = 0.
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[0, 2]])
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
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
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

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 6),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
        lam=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
    )
    def test_homogeneity_property(self, n, m, density, seed, lam):
        # rhs(lam z) = lam^M rhs(z), to within 1e-12 of the sum of the
        # moduli of lam^M's terms: far above the (4M + 2U) eps that the
        # products and the sums over U monomials can round.
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n, m, density)
        z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        terms = np.abs(sys.coeffs) @ np.abs(monomials(z, factor_indices(sys.exponents)))
        lhs = evaluate_rhs(sys, lam * z)
        rhs = lam**m * evaluate_rhs(sys, z)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * abs(lam) ** m * terms)


class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 5),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
        omega_sign=st.sampled_from([1.0, -1.0]),
    )
    @pytest.mark.filterwarnings("error")
    def test_kernel_rhs_and_checked_rhs_agree_bit_for_bit(self, n, m, density, seed, omega_sign):
        # Components scaled by up to 1e300, so that about three draws in
        # four have monomials that overflow to inf, and NaN where an inf
        # meets a zero part or another inf. The three forms do the
        # same arithmetic, so their bytes, and with them the inf and NaN
        # positions, agree. They run under the integrator's errstate; any
        # other numpy warning fails the test.
        rng = np.random.default_rng(seed)
        base = random_system(rng, n, m, density)
        periodic = PeriodicSystem(base, omega_sign * rng.uniform(0.1, 3.0))
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        z *= 10.0 ** rng.choice([0, 0, 40, 80, 160, 300], n)
        for system, checked in ((base, evaluate_rhs), (periodic, eval_periodic_rhs)):
            out = np.full(n, np.nan, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                system.kernel()(z, out)
                fresh, validated = system.rhs(z), checked(system, z)
            assert out.tobytes() == fresh.tobytes() == validated.tobytes()

    @pytest.mark.parametrize(
        "shape", [(1,), (3,), (2, 1), ()], ids=["short", "long", "column", "scalar"]
    )
    def test_rhs_refuses_a_state_of_another_shape(self, shape):
        system = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        for rhs in (system.rhs, PeriodicSystem(system, 1.0).rhs):
            with pytest.raises(ValidationError, match=r"expected \(2,\)"):
                rhs(np.ones(shape, dtype=complex))


def assert_matches_power_table(system, z):
    """The factor-gather kernel against the power-table reference: the RHS,
    the Jacobian and the selection-solve columns (the monomial of every
    multi-index). Each value may differ by 4*M*eps times the sum of the
    moduli of its terms."""
    m = system.m
    coeffs, exponents = system.coeffs, system.exponents
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
