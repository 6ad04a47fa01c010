from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyode import constraints, generate, polysys
from polyode.constraints import (
    NEWTON_TOL,
    SolvableInstance,
    constraint_residual,
    jacobian,
    newton_solve_initial_data,
    residual_scale,
    solve_linear_selection,
)
from polyode.errors import (
    ConstraintNotSatisfied,
    NoConvergence,
    PolyOdeError,
    SingularJacobian,
    SingularSystem,
    ValidationError,
)
from polyode.generate import generate_random_instance
from polyode.oracle import verify_instance
from polyode.polysys import (
    PolynomialSystem,
    enumerate_multi_indices,
    evaluate_rhs,
    factor_indices,
    monomials,
)
from polyode.serialization import parse_instance_file, write_instance_file

from test_polysys import random_system


def fd_jacobian(system, z, k, step=1e-6):
    """Central finite differences of the residual (independent oracle)."""
    n = system.n
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = step
        out[:, j] = (
            constraint_residual(system, z + e, k) - constraint_residual(system, z - e, k)
        ) / (2 * step)
    return out


class TestResidual:
    def test_zero_initial_data(self):
        rng = np.random.default_rng(0)
        sys = random_system(rng, 2, 3)
        np.testing.assert_array_equal(constraint_residual(sys, [0, 0], 2 + 1j), [0j, 0j])

    def test_riccati_case(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        np.testing.assert_array_equal(constraint_residual(sys, [1, 0], -1), [0j, 0j])

    def test_degree_four_factor(self):
        # For M=4 the residual is K z_n(0) + 3 * sum_m c_{nm} z1^{4-m} z2^m.
        rng = np.random.default_rng(3)
        sys = random_system(rng, 2, 4)
        z0 = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        k = 0.7 - 0.2j
        expected = k * z0 + 3 * evaluate_rhs(sys, z0)
        np.testing.assert_allclose(constraint_residual(sys, z0, k), expected, rtol=1e-14)


def gauss_solve(a, b):
    """Dense complex Gaussian elimination with partial pivoting, the
    library's solver before the selection became a forward substitution.
    Raises SingularSystem when a pivot modulus is at most 1e-13 times the
    largest initial matrix entry."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = b.size
    threshold = 1e-13 * float(np.abs(a).max(initial=0.0))
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) <= threshold:
            raise SingularSystem(f"pivot {abs(a[piv, col]):.3e} at or below threshold {threshold:.3e}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def union_gauss_selection(system, z0, k, keys):
    """The linear selection as it was solved before the basis was reused
    and K given was solved per equation: a new basis, the union of the
    system's and the keys' multi-indices, then ``gauss_solve``. The
    reference for ``solve_linear_selection``'s bytes; it takes valid keys."""
    z0 = np.asarray(z0, dtype=complex)
    k_unknown = int(k is None)
    k = 0j if k_unknown else complex(k)
    own = [tuple(index) for index in system.exponents.tolist()]
    indices = sorted(set(own).union(index for _, index in keys), reverse=True)
    column = {index: u for u, index in enumerate(indices)}
    rows = [eq - 1 for eq, _ in keys]
    cols = [column[index] for _, index in keys]
    coeffs = np.zeros((system.n, len(indices)), dtype=complex)
    coeffs[:, [column[index] for index in own]] = system.coeffs
    coeffs[rows, cols] = 0
    exponents = np.array(indices, dtype=np.intp)
    values = monomials(z0, factor_indices(exponents))
    stored = coeffs.any(axis=0)
    base = k * z0 - (1 - system.m) * coeffs.compress(stored, axis=1).dot(values[stored])
    a = np.zeros((system.n, system.n), dtype=complex)
    if k_unknown:
        a[:, 0] = z0
    a[rows, range(k_unknown, system.n)] = -(1 - system.m) * values[cols]
    solution = gauss_solve(a, -base)
    coeffs[rows, cols] = solution[k_unknown:]
    if k_unknown:
        k = complex(solution[0])
    solved = PolynomialSystem(system.n, system.m, coeffs=coeffs, exponents=exponents)
    return SolvableInstance(solved, z0, k)


def solved_or_error(solve, system, z0, k, keys):
    """The solved instance, or the class of the error raised."""
    try:
        return solve(system, z0, k, keys)
    except PolyOdeError as exc:
        return type(exc)


def instance_bytes(instance):
    return (
        instance.system.coeffs.tobytes(),
        instance.system.exponents.tobytes(),
        instance.z0.tobytes(),
        np.complex128(instance.k).tobytes(),
    )


def selection_outcome(solve, system, z0, k, keys):
    """The bytes of the solved instance, or the class of the error raised."""
    outcome = solved_or_error(solve, system, z0, k, keys)
    return outcome if isinstance(outcome, type) else instance_bytes(outcome)


def unknown_values(instance, keys):
    """The solved values at ``keys``, K first."""
    coefficients = instance.system.coefficients
    return np.array([instance.k] + [coefficients.get(key, 0j) for key in keys])


class TestSelection:
    def test_rejects_duplicates(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        with pytest.raises(ValidationError):
            solve_linear_selection(sys, [1, 1], 1.0, [(1, (2, 0)), (1, (2, 0))])

    @pytest.mark.parametrize("k_given", [True, False])
    def test_matches_union_gauss_reference(self, k_given):
        # Random selections over stored and unstored keys. Half of them take
        # one key per equation; the rest draw keys at random, so two often
        # share an equation. A zero z0 component makes the monomials of its
        # variable vanish, the pure one among them. With K given each key is
        # one division in either solver, so where the reference's solution
        # parts are nonzero and finite the bytes agree; elsewhere its zero
        # updates may flip the sign of a zero imaginary part on real data.
        # With K unknown the elimination rounds differently, within the
        # residual's own rounding. A z0 whose monomials overflow is refused
        # by both, though not always with the same error.
        rng = np.random.default_rng(7 + k_given)
        seen = Counter()
        for _ in range(400):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            system = random_system(rng, n, m, float(rng.uniform(0.1, 1.0)))
            z0 = rng.uniform(0.2, 1, n) * rng.choice([-1, 1], n) + 1j * rng.uniform(-1, 1, n)
            k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if k_given else None
            if rng.random() < 0.25:
                system = PolynomialSystem(n, m, coeffs=system.coeffs.real, exponents=system.exponents)
                z0, k = z0.real, None if k is None else k.real
            if rng.random() < 0.2:
                z0[rng.integers(n)] = 0
            if rng.random() < 0.05:  # the monomials overflow at M >= 4
                z0 = z0 * 1e80
            indices = enumerate_multi_indices(n, m)
            count = n - (k is None)
            if rng.random() < 0.5:
                eqs = rng.permutation(n)[:count] + 1
                keys = [(int(eq), indices[rng.integers(len(indices))]) for eq in eqs]
            else:
                every_key = [(eq, index) for eq in range(1, n + 1) for index in indices]
                keys = [every_key[i] for i in rng.choice(len(every_key), count, replace=False)]
            basis = factor_indices(np.array(indices, dtype=np.intp))
            with np.errstate(all="ignore"):
                new = solved_or_error(solve_linear_selection, system, z0, k, keys)
                ref = solved_or_error(union_gauss_selection, system, z0, k, keys)
                finite = np.isfinite(monomials(np.asarray(z0, dtype=complex), basis)).all()
            if not finite:
                assert isinstance(new, type) and isinstance(ref, type), (new, ref)
            elif isinstance(new, type) or isinstance(ref, type):
                assert new == ref
            else:
                expected = unknown_values(ref, keys)
                got = unknown_values(new, keys)
                parts = np.abs(expected[1:].view(float))
                if k_given and 0 < parts.min() and parts.max() < np.inf:
                    assert instance_bytes(new) == instance_bytes(ref)
                elif k_given:
                    assert np.array_equal(new.system.coeffs, ref.system.coeffs)
                    assert np.array_equal(new.system.exponents, ref.system.exponents)
                else:
                    assert np.array_equal(new.system.exponents, ref.system.exponents)
                    key_basis = factor_indices(np.array([index for _, index in keys], dtype=np.intp))
                    pivots = (m - 1) * monomials(ref.z0, key_basis)
                    weights = np.append(np.abs(ref.z0).max(), np.abs(pivots))
                    bound = 1e-14 * residual_scale(ref.system, ref.z0, ref.k)
                    assert (np.abs(got - expected) * weights <= bound).all(), (got, expected)
            stored = all(key in system.coefficients for key in keys)
            seen[new if isinstance(new, type) else ("solved", stored)] += 1
        # Both kinds of key, and the singular cases, occurred.
        assert seen[("solved", True)] and seen[("solved", False)] and seen[SingularSystem], seen

    @pytest.mark.parametrize("k", [0.5 - 0.25j, None])
    def test_shared_equation_is_singular_on_both_paths(self, k):
        rng = np.random.default_rng(3)
        system = random_system(rng, 3, 3)
        keys = [(1, (3, 0, 0)), (1, (0, 3, 0)), (2, (0, 0, 3))][: 3 - (k is None)]
        z0 = [0.5 + 0.1j, -0.3 + 0.7j, 0.9 - 0.2j]
        for solve in (solve_linear_selection, union_gauss_selection):
            with pytest.raises(SingularSystem):
                solve(system, z0, k, keys)

    @pytest.mark.parametrize("ratio, singular", [(5e-14, True), (5e-13, False)])
    def test_pivot_ratio_at_the_threshold_matches_reference(self, ratio, singular):
        # The pivots are 3 z_1^4 and 3 z_2^4, whose moduli have this ratio;
        # the threshold is 1e-13 of the largest.
        system = random_system(np.random.default_rng(5), 2, 4)
        z0 = np.array([1, ratio**0.25]) * (0.6 + 0.8j)
        keys = [(1, (4, 0)), (2, (0, 4))]
        new = selection_outcome(solve_linear_selection, system, z0, 0.3 - 0.1j, keys)
        assert new == selection_outcome(union_gauss_selection, system, z0, 0.3 - 0.1j, keys)
        assert (new is SingularSystem) == singular

    @pytest.mark.parametrize("k", [0.5 - 0.25j, None])
    def test_vanishing_pure_monomial_is_singular_on_both_paths(self, k):
        # z0[1] = 0, so the pure monomial z_2^3 of equation 2 vanishes.
        rng = np.random.default_rng(4)
        system = random_system(rng, 3, 3)
        keys = [(2, (0, 3, 0)), (1, (3, 0, 0)), (3, (0, 0, 3))][: 3 - (k is None)]
        z0 = [0.5 + 0.1j, 0, 0.9 - 0.2j]
        for solve in (solve_linear_selection, union_gauss_selection):
            with pytest.raises(SingularSystem):
                solve(system, z0, k, keys)


    def test_k_unknown_threshold_reads_every_initial_component(self):
        # K's column holds z0. Equation 1 has no key, so its diagonal entry
        # is z0_1 = 1e-7; the key's pivot is z_1^2 = 1e-14. Both are far
        # above 1e-13 of the largest diagonal entry, but not of z0_2 = 1.
        system = random_system(np.random.default_rng(6), 2, 2)
        for solve in (solve_linear_selection, union_gauss_selection):
            with pytest.raises(SingularSystem):
                solve(system, [1e-7, 1], None, [(2, (2, 0))])

class TestLinearSolve:
    def test_riccati_k_and_coefficient(self):
        # Fixed c_{1,(2,0)} = 1, z0 = (1,1); unknowns K and c_{2,(0,2)}.
        # Equation 1 forces K = -1, equation 2 then forces c_{2,(0,2)} = 1.
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        inst = solve_linear_selection(sys, [1, 1], None, [(2, (0, 2))])
        assert inst.k == pytest.approx(-1)
        assert inst.system.coefficients[(2, (0, 2))] == pytest.approx(1)
        assert np.abs(constraint_residual(inst.system, inst.z0, inst.k)).max() < 1e-13

    @pytest.mark.parametrize("seed", range(10))
    def test_example1_shape_two_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_system(rng, 2, 4)
        z0 = rng.uniform(0.2, 1, 2) + 1j * rng.uniform(0.2, 1, 2)
        k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        inst = solve_linear_selection(sys, z0, k, [(1, (4, 0)), (2, (0, 4))])
        assert np.abs(constraint_residual(inst.system, inst.z0, inst.k)).max() < 1e-12

    def test_overflowing_monomials_are_a_typed_error(self):
        # The monomials of z0 = (1e300, 1) overflow at M = 3: the solved
        # coefficients are not finite, and no numpy warning comes first.
        system = generate_random_instance(2, 3, 5).system
        keys = [(1, (3, 0)), (2, (0, 3))]
        with pytest.raises(ValidationError, match="^coefficients contain non-finite values$"):
            solve_linear_selection(system, [1e300, 1], 1, keys)

    def test_zero_initial_data_is_singular(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        with pytest.raises(SingularSystem):
            solve_linear_selection(sys, [0, 0], 1.0, [(1, (0, 2)), (2, (0, 2))])

    def test_requires_k_when_not_selected(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        with pytest.raises(ValidationError):
            solve_linear_selection(sys, [1, 1], None, [(1, (0, 2)), (2, (0, 2))])

    def test_rejects_k_given_when_selected(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        with pytest.raises(ValidationError):
            solve_linear_selection(sys, [1, 1], 1.0, [(2, (0, 2))])

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity_witness(self, seed):
        # Residual as a function of the selected unknowns is affine:
        # r(u1) + r(u2) - 2 r((u1+u2)/2) = 0.
        rng = np.random.default_rng(40 + seed)
        base = random_system(rng, 2, 4)
        z0 = rng.uniform(0.2, 1, 2) + 1j * rng.uniform(0.2, 1, 2)

        def residual_at(u):
            # The unknowns are z1^4 in equation 1 and z2^4 in equation 2:
            # the first and last columns of the full (2, 4) basis.
            coeffs = base.coeffs.copy()
            coeffs[0, 0], coeffs[1, -1] = u[1:]
            sys = PolynomialSystem(2, 4, coeffs=coeffs, exponents=base.exponents)
            return constraint_residual(sys, z0, u[0])

        u1 = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        u2 = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        gap = residual_at(u1) + residual_at(u2) - 2 * residual_at((u1 + u2) / 2)
        assert np.abs(gap).max() < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 5),
        density=st.floats(0.05, 1.0),
        k_given=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_solve_touches_only_the_unknowns(self, n, m, density, k_given, seed, data):
        # The keys range over every (eq, multi-index), stored or not.
        rng = np.random.default_rng(seed)
        system = random_system(rng, n, m, density)
        z0 = rng.uniform(0.2, 1, n) * rng.choice([-1, 1], n) + 1j * rng.uniform(-1, 1, n)
        k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if k_given else None
        indices = enumerate_multi_indices(n, m)
        every_key = [(eq, index) for eq in range(1, n + 1) for index in indices]
        count = n - (k is None)
        keys = data.draw(
            st.lists(st.sampled_from(every_key), min_size=count, max_size=count, unique=True)
        )
        try:
            inst = solve_linear_selection(system, z0, k, keys)
        except SingularSystem:
            return
        if k is not None:
            assert inst.k == k
        bits = lambda coefficients: {
            key: (v.real.hex(), v.imag.hex()) for key, v in coefficients.items() if key not in keys
        }
        assert bits(inst.system.coefficients) == bits(system.coefficients)


class TestInstanceValidation:
    def test_rejects_violated_constraints(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        with pytest.raises(ConstraintNotSatisfied):
            SolvableInstance(sys, [1, 0], -0.9)

    @pytest.mark.parametrize("z2", [9.1e76, 1e80, 1e200])
    def test_rejects_overflowing_initial_data_without_warnings(self, z2):
        # z2^4 overflows the residual, and with it the scale; from 1e80 on
        # the RHS itself. Warnings are errors under pytest.
        inst = generate_random_instance(2, 4, 42, k_cap=0.1)
        with pytest.raises(ConstraintNotSatisfied):
            SolvableInstance(inst.system, [inst.z0[0], z2], inst.k)

    @pytest.mark.parametrize(
        "k", [complex(np.nan, 0), complex(np.inf, 0), complex(0, -np.inf), complex(np.nan, np.nan)]
    )
    def test_rejects_non_finite_k(self, k):
        # Zero coefficients and z0 make every constraint term vanish but K z0.
        sys = PolynomialSystem(2, 2, coeffs=[[], []], exponents=[])
        with pytest.raises(ValidationError, match="finite"):
            SolvableInstance(sys, [1, 0], k)


def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, still calling through."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkCounts:
    def test_instance_evaluates_the_rhs_once(self, monkeypatch):
        instance = generate_random_instance(3, 4, 2)
        calls = counting(monkeypatch, constraints, "evaluate_rhs")
        SolvableInstance(instance.system, instance.z0, instance.k)
        assert len(calls) == 1

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_generation_validates_two_systems(self, monkeypatch, density):
        calls = counting(monkeypatch, PolynomialSystem, "__post_init__")
        generate_random_instance(3, 4, 5, density=density)
        assert len(calls) == 2

    def test_instance_file_read_validates_one_system(self, monkeypatch, tmp_path):
        path = tmp_path / "instance.json"
        write_instance_file(generate_random_instance(3, 4, 5), path)
        calls = counting(monkeypatch, PolynomialSystem, "__post_init__")
        parse_instance_file(path)
        assert len(calls) == 1

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 4)])
    def test_an_op_validates_only_the_unknown_keys(self, monkeypatch, tmp_path, n, m):
        # A generate -> write -> parse -> verify cycle carries one basis.
        # Once the cell's basis is in the shared table, the cycle validates
        # only the unknown keys' multi-indices and factors no basis.
        path = tmp_path / "instance.json"

        def cycle(seed):
            write_instance_file(generate_random_instance(n, m, seed), path)
            verify_instance(parse_instance_file(path), 0.1, 64)

        cycle(0)
        rows = counting(monkeypatch, polysys, "exponent_rows")
        factors = counting(monkeypatch, polysys, "factor_indices")
        factors += counting(monkeypatch, constraints, "factor_indices")
        cycle(1)
        pure = [index for _, index in generate._layout(n, m)[1]]
        assert [args[0] for args in rows] == [pure]
        assert factors == []


class TestJacobian:
    def test_zero_state_gives_k_identity(self):
        rng = np.random.default_rng(1)
        sys = random_system(rng, 3, 3)
        k = 0.3 - 0.8j
        np.testing.assert_allclose(jacobian(sys, [0, 0, 0], k), k * np.eye(3))

    def test_riccati_hand_value(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        jac = jacobian(sys, [1, 0], -1)
        # Entry (1,1): K - (1-M)*2*z1 = -1 + 2 = 1.
        assert jac[0, 0] == pytest.approx(1)
        assert jac[0, 1] == 0
        assert jac[1, 0] == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(60 + seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        sys = random_system(rng, n, m, density=0.8)
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        np.testing.assert_allclose(jacobian(sys, z, k), fd_jacobian(sys, z, k), atol=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 5),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_finite_differences_property(self, n, m, density, seed):
        # Central differences with step 1e-6 err by O(step^2) in truncation
        # and O(eps / step) in rounding, both far below 1e-6 at |z| <= 1.
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n, m, density)
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        jac = jacobian(sys, z, k)
        scale = max(1.0, float(np.abs(jac).max()))
        assert np.abs(jac - fd_jacobian(sys, z, k)).max() <= 1e-6 * scale


def diagonal_system_64():
    """dz_n/dt = n z_n^2 for n = 1..64."""
    return PolynomialSystem(
        64, 2, coeffs=np.diag(np.arange(1.0, 65)), exponents=2 * np.eye(64, dtype=np.intp)
    )


class TestNewton:
    def diagonal_system(self):
        return PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 2.0]], exponents=[[2, 0], [0, 2]])

    def cubic_system(self):
        """The system of ``polyode gen --n 2 --m 3 --seed 1``."""
        return generate_random_instance(2, 3, 1).system

    def test_decoupled_quadratic_roots(self):
        # K z_n = -c_n z_n^2 has nontrivial roots z = -K/c_n = (-1, -0.5).
        z0 = newton_solve_initial_data(self.diagonal_system(), 1.0, [-0.9, -0.4], tol=1e-12)
        np.testing.assert_allclose(z0, [-1.0, -0.5], atol=1e-10)

    def test_zero_guess_returns_trivial_root(self):
        z0 = newton_solve_initial_data(self.diagonal_system(), 1.0, [0, 0], tol=1e-12)
        np.testing.assert_array_equal(z0, [0j, 0j])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_roots_pass_residual_oracle(self, seed):
        rng = np.random.default_rng(80 + seed)
        sys = random_system(rng, 3, 3)
        guess = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        try:
            z0 = newton_solve_initial_data(sys, 1.0, guess, tol=1e-12)
        except NoConvergence:
            return
        assert np.abs(constraint_residual(sys, z0, 1.0)).max() < 1e-12

    def test_final_residuals_strictly_decreasing(self, monkeypatch):
        # Every residual the solve evaluates, read through the module's name.
        norms, residual = [], constraints.constraint_residual

        def recorded(*args):
            res = residual(*args)
            norms.append(float(np.abs(res).max()))
            return res

        monkeypatch.setattr(constraints, "constraint_residual", recorded)
        newton_solve_initial_data(self.diagonal_system(), 1.0, [-0.7, -0.3], tol=1e-13)
        tail = [h for h in norms if h > 0][-3:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_max_iter_bounds_the_steps(self, monkeypatch):
        # From this guess the fifth step is the first to reach NEWTON_TOL.
        system, guess = self.diagonal_system(), [-0.7, -0.3]
        monkeypatch.setattr(constraints, "NEWTON_MAX_ITER", 4)
        with pytest.raises(NoConvergence, match="after 4 iterations"):
            newton_solve_initial_data(system, 1.0, guess)
        monkeypatch.setattr(constraints, "NEWTON_MAX_ITER", 5)
        z0 = newton_solve_initial_data(system, 1.0, guess)
        assert np.abs(constraint_residual(system, z0, 1.0)).max() <= NEWTON_TOL

    def test_singular_jacobian(self):
        # At (-0.5, -0.25) both diagonal Jacobian entries 1 + 2 c_n z_n are
        # exactly 0, and the residual K z_n + c_n z_n^2 is not.
        message = r"rank 0 < 2: singular values 0.000e\+00 to 0.000e\+00"
        with pytest.raises(SingularJacobian, match=message):
            newton_solve_initial_data(self.diagonal_system(), 1.0, [-0.5, -0.25])

    @pytest.mark.parametrize("seed", range(3))
    def test_converges_at_n_64(self, seed):
        inst = generate_random_instance(64, 2, seed, density=0.1)
        rng = np.random.default_rng(seed)
        guess = inst.z0 * (1 + 0.01 * (rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)))
        z0 = newton_solve_initial_data(inst.system, inst.k, guess)
        assert np.abs(constraint_residual(inst.system, z0, inst.k)).max() <= NEWTON_TOL

    def test_rank_deficient_jacobian_at_n_64(self):
        # Jacobian entry (n, n) of K z_n + c_n z_n^2 is K + 2 c_n z_n, exactly
        # 0 at z_1 = -K / (2 c_1) = -0.5 and at least 5 elsewhere: rank 63.
        system, guess = diagonal_system_64(), np.ones(64)
        guess[0] = -0.5
        with pytest.raises(SingularJacobian, match="rank 63 < 64: singular values"):
            newton_solve_initial_data(system, 1.0, guess)

    @pytest.mark.parametrize("guess", [[1e200, 1e200], [1e120, 1], [1e150, 1e-150]])
    def test_overflowing_guess_is_no_convergence(self, guess):
        # The residual or the trial states overflow; that ends in the typed
        # error, without a numpy warning (warnings are errors under pytest).
        with pytest.raises(NoConvergence):
            newton_solve_initial_data(self.cubic_system(), 1.0, guess)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValidationError):
            newton_solve_initial_data(self.diagonal_system(), 1.0, [1, 1], tol=0)
