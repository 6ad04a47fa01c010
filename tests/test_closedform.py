import numpy as np
import pytest

from polyode.closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from polyode.errors import NegativeTime, SingularTime, ValidationError
from polyode.generate import generate_random_instance
from polyode.polysys import evaluate_rhs
from polyode.trajectory import Trajectory


@pytest.fixture
def riccati_solution():
    return ClosedFormSolution(np.array([1, 0], dtype=complex), -1, 2)


class TestEval:
    def test_t_zero_returns_z0_exactly(self):
        sol = ClosedFormSolution(np.array([0.3 + 0.4j, -1.1]), 0.7 - 0.1j, 4)
        assert np.array_equal(eval_closed_form(sol, [0.0]).states[0], sol.z0)

    def test_riccati_matches_rational_solution(self, riccati_solution):
        # z' = z^2 has exact solution 1/(1-t).
        out = eval_closed_form(riccati_solution, [0.5]).states[0]
        np.testing.assert_allclose(out, [2.0, 0.0], rtol=1e-15)

    def test_degree_two_reduces_to_rational(self):
        rng = np.random.default_rng(0)
        z0 = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        k = 0.4 + 0.9j
        sol = ClosedFormSolution(z0, k, 2)
        ts = np.array([0.1, 0.7, 2.5])
        expected = z0 / (1 + k * ts[:, None])
        np.testing.assert_allclose(eval_closed_form(sol, ts).states, expected, rtol=1e-15)

    def test_degree_four_exponent(self):
        z0 = np.array([1.0, 2.0], dtype=complex)
        k = 0.5
        sol = ClosedFormSolution(z0, k, 4)
        t = 0.8
        np.testing.assert_allclose(
            eval_closed_form(sol, [t]).states[0], z0 * (1 + k * t) ** (-1 / 3), rtol=1e-15
        )

    def test_rejects_negative_time(self, riccati_solution):
        with pytest.raises(NegativeTime):
            eval_closed_form(riccati_solution, [-0.1])

    def test_singular_at_blow_up(self, riccati_solution):
        for t in (1.0, 1.0 - 1e-12, 1.5):
            with pytest.raises(SingularTime):
                eval_closed_form(riccati_solution, [t])

    def test_monotone_modulus_for_positive_real_k(self):
        sol = ClosedFormSolution(np.array([1 + 1j, -2]), 0.8, 3)
        mags = np.abs(eval_closed_form(sol, np.linspace(0, 3, 50)).states)
        assert np.all(np.diff(mags, axis=0) <= 0)


class TestEvalArray:
    @pytest.mark.parametrize("n,m,seed", [(2, 2, 1), (2, 4, 2), (3, 3, 3), (3, 4, 4)])
    def test_matches_scalar_calls(self, n, m, seed):
        # The grid's rows equal one call per scalar time, each a one-element grid.
        sol = ClosedFormSolution.from_instance(generate_random_instance(n, m, seed))
        t_star = blow_up_time(sol)
        times = np.linspace(0.0, 0.8 * min(t_star if t_star is not None else 1.0, 1.0), 64)
        traj = eval_closed_form(sol, times)
        assert isinstance(traj, Trajectory) and traj.states.shape == (64, n)
        assert np.array_equal(traj.times, times)
        reference = np.vstack([eval_closed_form(sol, [t]).states for t in times])
        np.testing.assert_allclose(traj.states, reference, rtol=1e-15)
        assert np.array_equal(traj.states[0], sol.z0)

    def test_zero_times_return_z0_exactly(self):
        sol = ClosedFormSolution(np.array([0.3 + 0.4j, -1.1]), 0.7 - 0.1j, 4)
        assert np.array_equal(eval_closed_form(sol, np.array([0.0, 0.5])).states[0], sol.z0)
        with pytest.raises(ValidationError, match="strictly increasing"):
            eval_closed_form(sol, np.array([0.0, 0.5, 0.0]))

    def test_one_bad_time_refuses_the_call(self, riccati_solution):
        with pytest.raises(NegativeTime):
            eval_closed_form(riccati_solution, np.array([0.0, 0.5, -0.1]))
        with pytest.raises(SingularTime):
            eval_closed_form(riccati_solution, np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize(
        "t",
        [
            pytest.param(np.array([np.nan]), id="nan"),
            pytest.param(np.array([0.0, np.inf]), id="inf"),
            np.array([0.0, np.nan]),
        ],
    )
    def test_rejects_non_finite_time(self, riccati_solution, t):
        with pytest.raises(ValidationError, match="finite"):
            eval_closed_form(riccati_solution, t)

    @pytest.mark.parametrize("t", [0.5, np.float64(0.5), np.array(0.5)])
    def test_refuses_a_scalar_time(self, riccati_solution, t):
        with pytest.raises(ValidationError, match="1-D"):
            eval_closed_form(riccati_solution, t)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_bracket_warns_nothing(self):
        # K t overflows at t = 1e300, and the bracket's power is then 0.
        z0 = generate_random_instance(2, 3, 5).z0
        states = eval_closed_form(ClosedFormSolution(z0, 1e300 + 1e300j, 3), [0.0, 1e300]).states
        assert np.array_equal(states, [z0, [0, 0]])


class TestBlowUpTime:
    def test_negative_real_k(self, riccati_solution):
        assert blow_up_time(riccati_solution) == pytest.approx(1.0)

    def test_positive_real_k(self):
        assert blow_up_time(ClosedFormSolution(np.array([1.0 + 0j]), 2.0, 3)) is None

    def test_complex_k(self):
        assert blow_up_time(ClosedFormSolution(np.array([1.0 + 0j]), 1 + 1j, 3)) is None

    def test_zero_k(self):
        assert blow_up_time(ClosedFormSolution(np.array([1.0 + 0j]), 0.0, 3)) is None


class TestOdeSatisfaction:
    @pytest.mark.parametrize("n,m,seed", [(2, 2, 1), (2, 4, 2), (3, 3, 3)])
    def test_finite_difference_derivative_matches_rhs(self, n, m, seed):
        instance = generate_random_instance(n, m, seed)
        sol = ClosedFormSolution.from_instance(instance)
        t_star = blow_up_time(sol)
        t_max = 0.8 * min(t_star if t_star is not None else 1.0, 1.0)
        for t in np.linspace(0.05, t_max, 8):
            h = 1e-6 * max(1.0, abs(t))
            before, at, after = eval_closed_form(sol, [t - h, t, t + h]).states
            deriv = (after - before) / (2 * h)
            rhs = evaluate_rhs(instance.system, at)
            np.testing.assert_allclose(deriv, rhs, rtol=1e-5, atol=1e-8)
