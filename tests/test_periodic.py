import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyode.constraints import SolvableInstance, jacobian
from polyode.errors import SingularBracket, ValidationError, ZeroOmega
from polyode.generate import generate_random_instance
from polyode.oracle import MAX_DEVIATION, REL_TOL, sample_times, verify_periodic
from polyode.periodic import (
    PeriodicClosedForm,
    PeriodicSystem,
    _log_bracket,
    bracket_values,
    detect_period,
    eval_periodic_closed_form,
    eval_periodic_rhs,
)
from polyode.polysys import PolynomialSystem, evaluate_rhs

from test_polysys import random_system


def real_form_rhs(psys, x, y):
    """Hand-assembled 2N real equations: rotation plus Re/Im of the
    polynomial part (independent of the complex-form evaluation path)."""
    w = x + 1j * y
    z = evaluate_rhs(psys.base, w)
    rate = psys.omega / (psys.base.m - 1)
    return -rate * y + z.real, rate * x + z.imag


def small_k_instance(seed=5):
    return generate_random_instance(2, 4, seed, k_cap=0.1)


class TestPeriodize:
    def test_rejects_zero_omega(self):
        sys = PolynomialSystem(2, 4, coeffs=[[1.0], [0]], exponents=[[4, 0]])
        with pytest.raises(ZeroOmega):
            PeriodicSystem(sys, 0.0)

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_omega(self, omega):
        sys = PolynomialSystem(2, 4, coeffs=[[1.0], [0]], exponents=[[4, 0]])
        with pytest.raises(ValidationError, match="finite"):
            PeriodicSystem(sys, omega)
        with pytest.raises(ValidationError, match="finite"):
            PeriodicClosedForm(small_k_instance(), omega)

    @pytest.mark.parametrize("omega", [1.0, np.float32(-0.7), 3])
    def test_closed_form_keeps_the_one_system_it_checks_omega_in(self, omega):
        pcf = PeriodicClosedForm(small_k_instance(), omega)
        assert pcf.system is pcf.system
        assert pcf.system.omega == pcf.omega
        assert type(pcf.omega) is float
        assert pcf.system.base is pcf.instance.system

    def test_degree_four_rotation_rate(self):
        # With no coefficients the right-hand side is the rotation alone,
        # at rate omega / (M - 1) = 1.5 / 3.
        psys = PeriodicSystem(PolynomialSystem(2, 4, coeffs=[[], []], exponents=[]), 1.5)
        w = np.array([1 + 1j, -2j])
        np.testing.assert_allclose(eval_periodic_rhs(psys, w), 0.5j * w, rtol=1e-15)

    def test_real_state_splits_cleanly(self):
        rng = np.random.default_rng(2)
        base = random_system(rng, 2, 4)
        psys = PeriodicSystem(base, 1.0)
        x = rng.uniform(-1, 1, 2)
        xdot, ydot = real_form_rhs(psys, x, np.zeros(2))
        np.testing.assert_allclose(xdot, evaluate_rhs(base, x).real, rtol=1e-14)
        np.testing.assert_allclose(
            ydot, (psys.omega / 3) * x + evaluate_rhs(base, x).imag, rtol=1e-14
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_complex_and_real_forms_agree(self, seed):
        rng = np.random.default_rng(10 + seed)
        base = random_system(rng, 2, 4)
        psys = PeriodicSystem(base, -0.7)
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        complex_rhs = eval_periodic_rhs(psys, x + 1j * y)
        xdot, ydot = real_form_rhs(psys, x, y)
        np.testing.assert_allclose(complex_rhs.real, xdot, atol=1e-14)
        np.testing.assert_allclose(complex_rhs.imag, ydot, atol=1e-14)


class TestPeriodicRhs:
    def test_zero_state(self):
        rng = np.random.default_rng(0)
        psys = PeriodicSystem(random_system(rng, 2, 3), 1.0)
        np.testing.assert_array_equal(eval_periodic_rhs(psys, [0, 0]), [0j, 0j])

    def test_pure_rotation_when_no_coefficients(self):
        psys = PeriodicSystem(PolynomialSystem(2, 3, coeffs=[[], []], exponents=[]), 2.0)
        w = np.array([1 + 1j, -2j])
        np.testing.assert_allclose(eval_periodic_rhs(psys, w), 1j * 1.0 * w, rtol=1e-15)

    def test_two_term_assembly(self):
        rng = np.random.default_rng(4)
        base = random_system(rng, 3, 3)
        psys = PeriodicSystem(base, 0.9)
        w = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        expected = 1j * (0.9 / 2) * w + evaluate_rhs(base, w)
        np.testing.assert_allclose(eval_periodic_rhs(psys, w), expected, rtol=1e-14)


class TestClosedForm:
    def test_starts_at_z0_exactly(self):
        pcf = PeriodicClosedForm(small_k_instance(), 1.0)
        traj = eval_periodic_closed_form(pcf, np.linspace(0, 1, 64))
        assert np.array_equal(traj.states[0], pcf.instance.z0)

    def test_k_zero_is_pure_rotation(self):
        sys = PolynomialSystem(2, 4, coeffs=[[1.0], [0]], exponents=[[4, 0]])
        inst = SolvableInstance(sys, [0, 0], 0.0)
        pcf = PeriodicClosedForm(inst, 1.0)
        # With z0 = 0 the trajectory is trivially zero; exercise the formula
        # directly with a nonzero z0 by bypassing the instance constraint.
        empty = PolynomialSystem(2, 4, coeffs=[[], []], exponents=[])
        inst = SolvableInstance(empty, [1 + 0j, 2j], 0.0)
        pcf = PeriodicClosedForm(inst, 1.0)
        ts = np.linspace(0, 3 * pcf.base_period, 2049)
        traj = eval_periodic_closed_form(pcf, ts)
        expected = pcf.instance.z0[None, :] * np.exp(1j * ts / 3)[:, None]
        np.testing.assert_allclose(traj.states, expected, atol=1e-12)

    def test_degree_four_prefactor_and_exponent(self):
        pcf = PeriodicClosedForm(small_k_instance(), 1.0)
        t = 0.37
        traj = eval_periodic_closed_form(pcf, np.array([0.0, t]))
        g = 1 + pcf.instance.k * (np.exp(1j * t) - 1) / 1j
        expected = pcf.instance.z0 * np.exp(1j * t / 3) * g ** (-1 / 3)
        np.testing.assert_allclose(traj.states[1], expected, rtol=1e-12)

    def test_grid_not_starting_at_zero_matches_full_grid(self):
        pcf = PeriodicClosedForm(small_k_instance(), 1.0)
        full = eval_periodic_closed_form(pcf, np.linspace(0, 1, 16))
        tail = eval_periodic_closed_form(pcf, full.times[1:])
        np.testing.assert_allclose(tail.states, full.states[1:], rtol=1e-14)

    def test_coarse_grid_matches_dense(self):
        # K = 2i winds the bracket around the origin; five samples per
        # period give the same values as 4097.
        pcf = PeriodicClosedForm(_instance_with_k(2j), 1.0)
        dense = eval_periodic_closed_form(pcf, np.linspace(0, pcf.base_period, 4097))
        coarse = eval_periodic_closed_form(pcf, np.linspace(0, pcf.base_period, 5))
        np.testing.assert_allclose(coarse.states, dense.states[::1024], rtol=1e-14)

    @pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [[0.0, 1.0]]])
    def test_rejects_non_finite_or_non_flat_times(self, times):
        pcf = PeriodicClosedForm(small_k_instance(), 1.0)
        with pytest.raises(ValidationError):
            eval_periodic_closed_form(pcf, np.array(times))

    @pytest.mark.parametrize("omega", [10.0, -10.0])
    def test_rejects_finite_times_whose_phase_overflows(self, omega):
        # omega * 1.7e308 is beyond the doubles, so no state is defined there:
        # a typed error naming the grid, not a warning and NaN states.
        pcf = PeriodicClosedForm(small_k_instance(), omega)
        with pytest.raises(ValidationError, match="time grid"):
            eval_periodic_closed_form(pcf, [0.0, 1.7e308])

    def test_singular_bracket(self):
        # K = i/2, omega = 1: the bracket circle passes through the origin,
        # so no closed form is built.
        with pytest.raises(SingularBracket):
            PeriodicClosedForm(_instance_with_k(0.5j), 1.0)

    def test_tau_limit_connects_to_base_closed_form(self):
        # (exp(i w t) - 1)/(i w) -> t as w t -> 0; the leading deviation is
        # i*w*t^2/2, so |w t| <= 2e-8 bounds the relative error by 1e-8.
        for omega in [1e-8, -1e-8]:
            t = 1.0
            # Cancellation-free form of (exp(i w t) - 1)/(i w).
            tau = np.sin(omega * t) / omega + 1j * 2 * np.sin(omega * t / 2) ** 2 / omega
            assert abs(tau - t) / t < 1e-8

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_transform_fidelity(self, seed):
        # Finite-difference derivative of zeta matches the periodized RHS.
        inst = small_k_instance(seed)
        pcf = PeriodicClosedForm(inst, 1.0)
        psys = pcf.system
        h = 1e-6
        for t in [0.3, 2.0, 5.5]:
            grid = np.array([0.0, t - h, t, t + h]) if t > h else np.array([0.0, t, t + h])
            traj = eval_periodic_closed_form(pcf, grid)
            deriv = (traj.states[-1] - traj.states[-3]) / (2 * h)
            rhs = eval_periodic_rhs(psys, traj.states[-2])
            np.testing.assert_allclose(deriv, rhs, rtol=1e-5, atol=1e-8)


def _instance_with_k(k, m=4, seed=99):
    """Valid N=2 instance of degree m with a prescribed K (pure slots solved)."""
    from polyode.constraints import solve_linear_selection

    rng = np.random.default_rng(seed)
    sys = random_system(rng, 2, m, density=0.5)
    z0 = rng.uniform(0.2, 1, 2) + 1j * rng.uniform(0.2, 1, 2)
    return solve_linear_selection(sys, z0, k, [(1, (m, 0)), (2, (0, m))])


def unwrapped_closed_form(pcf, times):
    """Reference zeta on a fine grid: the bracket's phase continued by
    np.unwrap, independent of the circle geometry used by the package."""
    g = bracket_values(pcf, times)
    log_g = np.log(np.abs(g)) + 1j * np.unwrap(np.angle(g))
    m, z0 = pcf.instance.system.m, pcf.instance.z0
    return np.multiply.outer(np.exp((1j * pcf.omega * times - log_g) / (m - 1)), z0)


class TestDetectPeriod:
    def test_small_k_degree_four(self):
        pcf = PeriodicClosedForm(small_k_instance(), 1.0)
        report = detect_period(pcf)
        assert report.q == 0
        assert report.k == 3
        assert report.T == pytest.approx(3 * 2 * math.pi)
        assert report.closure_error < 1e-8

    def test_degree_two_closes_after_one_period(self):
        inst = generate_random_instance(2, 2, 11, k_cap=0.1)
        pcf = PeriodicClosedForm(inst, 1.0)
        report = detect_period(pcf)
        assert (report.q, report.k) == (0, 1)

    def test_k_zero_pure_rotation(self):
        empty = PolynomialSystem(2, 4, coeffs=[[], []], exponents=[])
        inst = SolvableInstance(empty, [1 + 0j, -1j], 0.0)
        pcf = PeriodicClosedForm(inst, 2.0)
        report = detect_period(pcf)
        assert (report.q, report.k) == (0, 3)
        assert report.T == pytest.approx(3 * math.pi)

    def test_winding_one_closes_after_one_period(self):
        # K = 2i encircles the origin once (q=1); the power's phase drift
        # then cancels the rotation prefactor and the period is t_b.
        pcf = PeriodicClosedForm(_instance_with_k(2j), 1.0)
        assert pcf.q == 1
        report = detect_period(pcf)
        assert (report.q, report.k) == (1, 1)

    def test_negative_omega(self):
        pcf = PeriodicClosedForm(small_k_instance(8), -1.0)
        report = detect_period(pcf)
        assert report.k == 3

    def test_half_period_is_not_closed(self):
        pcf = PeriodicClosedForm(small_k_instance(), 1.0)
        report = detect_period(pcf)
        grid = np.linspace(0, report.T / 2, 4097)
        traj = eval_periodic_closed_form(pcf, grid)
        assert np.abs(traj.states[-1] - pcf.instance.z0).max() > 1e-8

    def test_singular_bracket_propagates(self):
        with pytest.raises(SingularBracket):
            detect_period(PeriodicClosedForm(_instance_with_k(0.5j), 1.0))

    def test_tiny_omega_cancellation_is_singular(self):
        # a = K/(i omega) ~ 1e12: c = 1 - a keeps no relative margin.
        with pytest.raises(SingularBracket):
            PeriodicClosedForm(_instance_with_k(1.0), 1e-12)

    def test_winding_follows_omega_sign(self):
        # K = -2i with omega = -1 gives a = 2: the circle encloses 0 and is
        # traversed clockwise.
        pcf = PeriodicClosedForm(_instance_with_k(-2j), -1.0)
        assert pcf.q == -1
        assert (detect_period(pcf).q, detect_period(pcf).k) == (-1, 1)


# Radius a = K/(i omega) of the bracket circle, drawn at least 0.05 away
# from Re a = 1/2, where the circle passes through the origin.
_circle_radius = st.builds(
    complex,
    st.one_of(st.floats(-3.0, 0.45), st.floats(0.55, 3.0)),
    st.floats(-3.0, 3.0),
)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 8),
    a=_circle_radius,
    omega=st.sampled_from([1.0, -0.7, 2.5, -3.0]),
    seed=st.integers(0, 2**16),
)
def test_closed_form_and_period_match_unwrapped_reference(m, a, omega, seed):
    pcf = PeriodicClosedForm(_instance_with_k(1j * omega * a, m, seed), omega)
    expected_q = 0 if a.real < 0.5 else (1 if omega > 0 else -1)
    assert pcf.q == expected_q

    report = detect_period(pcf)
    assert report.q == expected_q
    times = np.linspace(0.0, report.T, 4096 * report.k + 1)
    reference = unwrapped_closed_form(pcf, times)
    states = eval_periodic_closed_form(pcf, times).states
    np.testing.assert_allclose(states, reference, rtol=1e-11, atol=1e-13)

    # The predicted k is the first whole base period at which the
    # reference closes.
    gaps = np.abs(reference[::4096] - pcf.instance.z0).max(axis=1)
    assert gaps[report.k] < 1e-8
    assert (gaps[1:report.k] > 1e-8).all()


def log_error_growth(pcf, times):
    """Log of a bound on how much the linearised flow along the periodic
    solution amplifies an error made at one of ``times`` at a later one.

    Along z0 * g^(1/(1-M)) a perturbation evolves as g^A with A = DP(z0)/K,
    so with DP(z0) = V diag(mu) V^-1 the growth from s to t is at most
    cond(V) * max exp(Re(mu (log g(t) - log g(s)) / K)).
    """
    system = pcf.instance.system
    mu, vecs = np.linalg.eig(jacobian(system, pcf.instance.z0, 0) / (system.m - 1))
    rates = (mu[:, None] * (_log_bracket(pcf, 1j * pcf.omega * times) / pcf.instance.k)[None, :]).real
    growth = float((rates - np.minimum.accumulate(rates, axis=1)).max())
    return growth + math.log(np.linalg.cond(vecs))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 6),
    a=_circle_radius,
    omega=st.sampled_from([1.0, -0.7, 2.5, -3.0]),
    seed=st.integers(0, 2**16),
)
def test_oracle_confirms_the_periodic_closed_form_on_both_sides_of_the_circle(m, a, omega, seed):
    # q = 0 inside Re a < 1/2 and q = sgn(omega) beyond it. A draw whose
    # linearised flow may amplify the integrator's local error past the
    # acceptance bound says nothing about the closed form, so it is skipped.
    # Below |a| ~ 1e-6 the estimate cannot tell: log g loses its real part
    # to rounding (numpy's complex log1p), and log g / K with it.
    assume(abs(a) >= 1e-6)
    pcf = PeriodicClosedForm(_instance_with_k(1j * omega * a, m, seed), omega)
    report = detect_period(pcf)
    samples = 256 * report.k + 1
    times = sample_times(report.T, samples)
    assume(log_error_growth(pcf, times) <= math.log(MAX_DEVIATION / REL_TOL))
    assert verify_periodic(pcf, report.k, samples) <= MAX_DEVIATION


class TestBracket:
    def test_bracket_at_zero_is_one(self):
        pcf = PeriodicClosedForm(small_k_instance(), 1.0)
        assert bracket_values(pcf, np.array([0.0]))[0] == 1
