import sys
import threading
import timeit

import numpy as np
import pytest

from polyode import oracle
from polyode.closedform import ClosedFormSolution, blow_up_time
from polyode.constraints import SolvableInstance
from polyode.errors import MaxStepsExceeded, SingularTime, StepUnderflow, ValidationError
from polyode.generate import generate_random_instance
from polyode.oracle import (
    _P,
    _TABLEAU,
    integrate,
    verify_instance,
    verify_periodic,
)
from polyode.periodic import PeriodicClosedForm, detect_period, eval_periodic_rhs
from polyode.polysys import PolynomialSystem, evaluate_rhs

from test_periodic import _instance_with_k


def riccati_decay_system():
    # z1' = -z1^2 embedded in N=2; exact solution 1/(1+t).
    return PolynomialSystem(2, 2, coeffs=[[-1.0], [0]], exponents=[[2, 0]])


def riccati_blowup_system():
    # z1' = +z1^2; blows up at t = 1 from z1(0) = 1.
    return PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])


def dense_output_loop(rhs, steps, t_end, t_eval):
    """The DP5 dense output one sample at a time, in complex arithmetic:
    the reference for the integrator's vectorised interpolant. ``steps`` is
    the trajectory of accepted step points; each step's stages are
    recomputed from its start point."""
    t0, h = steps.times[:-1], np.diff(steps.times)
    out = np.empty((len(t_eval), steps.dimension), dtype=complex)
    for i, s in enumerate(t_eval):
        if s >= t_end:
            out[i] = steps.states[-1]
            continue
        idx = min(int(np.searchsorted(steps.times[1:], s, side="left")), len(t0) - 1)
        y0 = steps.states[idx]
        stages = np.empty((7, y0.size), dtype=complex)
        for j in range(7):
            stages[j] = rhs(y0 + h[idx] * (_TABLEAU[j, :j] @ stages[:j]))
        theta = (s - t0[idx]) / h[idx]
        p = np.array([theta, theta**2, theta**3, theta**4])
        out[i] = y0 + h[idx] * ((_P @ p) @ stages)
    return out


def first_step(z0, k1, t_end):
    """The integrator's first trial step: 0.01 max_j |z0_j| / max_j |k1_j|,
    both over the error test's scale ABS_TOL + REL_TOL |z0_j|, at most
    t_end; INITIAL_STEP where that ratio is not finite and positive."""
    abs_z0 = np.abs(np.asarray(z0, dtype=complex))
    scale = oracle.ABS_TOL + oracle.REL_TOL * abs_z0
    size, rate = float((abs_z0 / scale).max()), float((np.abs(k1) / scale).max())
    first = 0.01 * size / rate if rate > 0 else 0.0
    return min(first if 0 < first < np.inf else oracle.INITIAL_STEP, t_end)


def reference_step_points(rhs, z0, t_end):
    """The DP5 step loop with fresh arrays each step and Python lists of
    step points: the reference for the integrator's buffered loop, which
    must reproduce its arithmetic bit for bit. Stage i's state is one dot of
    the weights [1, h a_i1, ..., h a_ii] with the rows [y; k1..ki], and the
    error estimate one dot of h e with k1..k7. Reads the tolerances at call
    time, as the integrator does, and takes its first step from
    ``first_step``. The error norm is the max over complex
    components of the error's modulus over ABS_TOL + REL_TOL times the
    larger modulus of the component's start and end states. Returns the
    step times, the states and the accepted and rejected step counts."""
    y, k1 = np.array(z0, dtype=complex).view(float), np.asarray(rhs(z0))
    t, h, accepted, rejected = 0.0, first_step(z0, k1, t_end), 0, 0
    times, states = [0.0], [y]
    while t < t_end:
        final = h >= t_end - t
        h_step = t_end - t if final else h
        rows = np.empty((8, k1.size), dtype=complex)
        rows[0], rows[1] = y.view(complex), k1
        operands = rows.view(float)
        z_stages = np.empty((6, k1.size), dtype=complex)
        y_stages = z_stages.view(float)
        for i in range(1, 7):
            weights = np.concatenate([[1.0], h_step * _TABLEAU[i, :i]])
            weights.dot(operands[: i + 1], out=y_stages[i - 1])
            rows[i + 1] = rhs(z_stages[i - 1])
        err = (h_step * _TABLEAU[7]).dot(operands[1:])
        modulus = lambda parts: np.abs(parts.view(complex))
        scale = oracle.ABS_TOL + oracle.REL_TOL * np.maximum(modulus(y), modulus(y_stages[5]))
        err_norm = float((modulus(err) / scale).max())
        if err_norm <= 1.0:
            times.append(t + h_step)
            t = t_end if final else t + h_step
            y, k1 = y_stages[5], rows[7]
            states.append(y)
            accepted += 1
        else:
            rejected += 1
        factor = 0.9 * err_norm ** -0.2 if err_norm != 0 else 5.0
        h = h_step * min(5.0, max(0.2, factor))
    return np.array(times), np.array(states).view(complex), accepted, rejected


def proposition_t_end(instance):
    t_star = blow_up_time(ClosedFormSolution.from_instance(instance))
    return 0.8 * min(t_star if t_star is not None else 1.0, 1.0)


def step_counts(system, z0, t_end):
    """Accepted and rejected DP5 steps of verify_instance's integration
    (64 samples, default tolerances)."""
    traj = integrate(system.rhs, z0, t_end, t_eval=np.linspace(0.0, t_end, 64))
    return traj.meta.accepted, traj.meta.rejected


def recorded_cell(n, m, seeds=range(20)):
    """``step_counts`` of generated instances of one (n, M) cell: the
    entries of ``RECORDED_STEPS``."""
    counts = []
    for seed in seeds:
        instance = generate_random_instance(n, m, seed)
        counts.append(step_counts(instance.system, instance.z0, proposition_t_end(instance)))
    return counts


def rotated(instance, theta):
    """The system and z0 of the instance turned by e^{i theta}: z0 ->
    e^{i theta} z0 and every coefficient c -> c e^{i theta (1 - M)}, with K
    unchanged. Its solution is the original one times e^{i theta}."""
    system, turn = instance.system, np.exp(1j * theta)
    spun = PolynomialSystem(
        system.n, system.m, coeffs=system.coeffs * turn ** (1 - system.m),
        exponents=system.exponents,
    )
    return spun, instance.z0 * turn


def assert_system_and_callable_agree(system, z0, t_end):
    """``integrate`` through the system's kernel and through the checked
    callable ``lambda z: system.rhs(z)`` gives the same step points,
    ``StepStats`` and dense output, byte for byte."""
    for t_eval in (None, np.linspace(0.0, t_end, 64)):
        via_kernel = integrate(system, z0, t_end, t_eval=t_eval)
        via_callable = integrate(lambda z: system.rhs(z), z0, t_end, t_eval=t_eval)
        assert via_kernel.meta == via_callable.meta
        assert via_kernel.times.tobytes() == via_callable.times.tobytes()
        assert via_kernel.states.tobytes() == via_callable.states.tobytes()


# Accepted and rejected DP5 steps of verify_instance's integration (64
# samples, default tolerances) for seeds 0-19 of each (n, M) cell, as
# ``recorded_cell`` counts them; ``python tests/test_oracle.py`` prints the
# table anew. The local error has one scale per complex component,
# |e_j| / (ABS_TOL + REL_TOL max(|y_j|, |y_new_j|)). A modulus does not
# change when a component turns by e^{i theta}, so a rotated instance takes
# the same steps, and a real or imaginary part crossing zero does not
# shrink the tolerance to ABS_TOL.
RECORDED_STEPS = {
    (2, 2): [
        (19, 0), (34, 0), (25, 0), (19, 0), (33, 0), (29, 0), (21, 0), (32, 0), (13, 0), (26, 0),
        (48, 0), (20, 0), (33, 0), (19, 0), (28, 0), (30, 0), (19, 0), (62, 0), (13, 0), (28, 0),
    ],
    (2, 3): [
        (8, 0), (19, 0), (24, 0), (16, 0), (1, 0), (18, 0), (12, 0), (39, 0), (41, 0), (22, 0),
        (9, 0), (10, 0), (38, 0), (22, 0), (21, 0), (16, 0), (26, 0), (20, 0), (21, 0), (12, 0),
    ],
    (2, 4): [
        (8, 0), (15, 0), (23, 0), (18, 0), (6, 0), (18, 0), (8, 0), (10, 0), (11, 0), (8, 0),
        (22, 0), (10, 0), (12, 0), (15, 0), (16, 0), (15, 0), (28, 0), (21, 0), (17, 0), (15, 0),
    ],
    (3, 2): [
        (30, 0), (43, 0), (35, 0), (25, 0), (23, 0), (32, 0), (41, 0), (31, 0), (26, 0), (25, 0),
        (26, 0), (21, 0), (25, 0), (12, 0), (51, 0), (22, 0), (15, 0), (4, 0), (24, 0), (23, 0),
    ],
    (3, 3): [
        (24, 0), (16, 0), (18, 0), (10, 0), (34, 0), (20, 0), (33, 0), (39, 0), (19, 0), (17, 0),
        (16, 0), (24, 0), (30, 0), (14, 0), (40, 0), (14, 0), (15, 0), (15, 0), (10, 0), (16, 0),
    ],
    (3, 4): [
        (14, 0), (10, 0), (9, 0), (10, 0), (17, 0), (16, 0), (21, 0), (19, 0), (32, 0), (32, 0),
        (15, 0), (15, 0), (30, 0), (30, 0), (16, 0), (17, 0), (7, 0), (16, 0), (19, 0), (26, 1),
    ],
}


class TestIntegrate:
    def test_known_decay_solution(self):
        sys = riccati_decay_system()
        traj = integrate(
            lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0,
            t_eval=np.array([0.0, 0.5, 1.0]),
        )
        np.testing.assert_allclose(traj.states[:, 0], 1 / (1 + traj.times), atol=1e-8)
        np.testing.assert_array_equal(traj.states[:, 1], 0)

    def test_blow_up_raises_step_underflow(self):
        sys = riccati_blowup_system()
        with pytest.raises(StepUnderflow) as excinfo:
            integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0)
        assert excinfo.value.t_reached < 1.0
        assert excinfo.value.t_reached > 0.9

    def test_blow_up_in_a_window_shorter_than_one(self):
        # z' = z^2 from z0 = 2 blows up at t = 0.5; the step floor, scaled
        # by t_end = 0.9, still stops the integration there.
        with pytest.raises(StepUnderflow) as excinfo:
            integrate(lambda z: z * z, np.array([2 + 0j]), 0.9)
        assert abs(excinfo.value.t_reached - 0.5) < 1e-9

    def test_final_step_below_min_step_ends_the_interval(self):
        # The whole window is one step shorter than MIN_STEP: it is the last
        # step, not an underflow.
        t_end = 1e-13
        traj = integrate(lambda z: -z, np.array([1 + 0j]), t_end)
        assert traj.times[-1] == t_end
        np.testing.assert_allclose(traj.states[-1], [np.exp(-t_end)], rtol=1e-15)

    def test_zero_initial_state(self):
        sys = riccati_blowup_system()
        traj = integrate(lambda z: evaluate_rhs(sys, z), np.zeros(2, dtype=complex), 1.0)
        assert np.all(traj.states == 0)

    def test_max_steps_exceeded(self, monkeypatch):
        sys = riccati_decay_system()
        monkeypatch.setattr(oracle, "MAX_STEPS", 3)
        with pytest.raises(MaxStepsExceeded):
            integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0)

    def test_nan_error_estimate_shrinks_the_step(self, monkeypatch):
        # k7 = rhs(y_new), each attempt's 6th call after the first k1, is not
        # among the checked stage states; NaN there makes err_norm NaN. The
        # step must shrink (x0.2 from the first step 0.01 |z0| / |k1| = 0.01,
        # 15 rejections) to StepUnderflow, not retry the same h until MAX_STEPS.
        monkeypatch.setattr(oracle, "MAX_STEPS", 1000)
        calls = []

        def rhs(z):
            calls.append(None)
            return np.full_like(z, np.nan) if len(calls) > 1 and len(calls) % 6 == 1 else -z

        with pytest.raises(StepUnderflow):
            integrate(rhs, np.array([1 + 0j]), 1.0)
        assert len(calls) == 1 + 15 * 6

    def test_step_history_bounded(self, monkeypatch):
        # The history starts at 32 steps (32 * 8 * 2 = 512 entries at n = 2)
        # and is refused before it doubles past MAX_HISTORY.
        rhs, z0 = riccati_decay_system().rhs, np.array([1, 0], dtype=complex)
        monkeypatch.setattr(oracle, "REL_TOL", 1e-13)
        monkeypatch.setattr(oracle, "ABS_TOL", 1e-15)
        assert integrate(rhs, z0, 1.0).meta.accepted > 32
        monkeypatch.setattr(oracle, "MAX_HISTORY", 512)
        with pytest.raises(MaxStepsExceeded, match="history exceeds 512 entries"):
            integrate(rhs, z0, 1.0)

    @pytest.mark.parametrize("t_eval", [[0.5, 0.1], [0.1, 0.1], [0.0, 0.3, 0.2, 0.4]])
    def test_rejects_unordered_t_eval_before_any_rhs_call(self, t_eval):
        calls = []

        def rhs(z):
            calls.append(z)
            return z

        with pytest.raises(ValidationError, match="strictly increasing"):
            integrate(rhs, np.array([1 + 0j]), 1.0, t_eval=t_eval)
        assert calls == []

    def test_stage_weights_at_unit_step_reproduce_tableau(self):
        # One step of h = 1 on dz/dt = k from y: stage i's state is
        # y + (a_i . 1) k = y + c_i k, with c_i the DP5 nodes, so an
        # off-by-one in the folded weights [1 | h A] moves a stage state.
        # |y| = 200 |k| makes the first step 0.01 |y| / |k| = 2, capped at
        # t_end = 1. The error row sums to 0, so the error estimate vanishes
        # and the step is accepted at the default tolerances.
        y, k = 200 - 100j, 1 + 0.5j
        states = []

        def rhs(z):
            states.append(z.copy())
            return np.full_like(z, k)

        traj = integrate(rhs, np.array([y]), 1.0)
        nodes = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
        np.testing.assert_allclose(np.ravel(states[1:]), y + nodes * k, rtol=1e-15)
        np.testing.assert_allclose(_TABLEAU[1:7].sum(axis=1), nodes, rtol=1e-15)
        assert abs(_TABLEAU[7].sum()) < 1e-16
        assert (traj.meta.accepted, traj.meta.rejected) == (1, 0)
        np.testing.assert_allclose(traj.states[-1], y + k, rtol=1e-15)

    def test_first_step_is_the_problem_scale(self):
        # 0.01 max |z0| / max |f(z0)| in the error test's scale: the first
        # accepted step, since this draw rejects none.
        instance = generate_random_instance(2, 3, 0)
        rhs, z0 = instance.system.rhs, instance.z0
        traj = integrate(rhs, z0, 0.8)
        h0 = first_step(z0, rhs(z0), 0.8)
        assert traj.meta.rejected == 0
        assert traj.times[1] == h0 != oracle.INITIAL_STEP

    @pytest.mark.parametrize(
        "z0,rhs",
        [([0j, 0j], riccati_blowup_system().rhs), ([1 + 0j, 0j], lambda z: np.zeros_like(z))],
        ids=["zero_state", "zero_rhs"],
    )
    def test_first_step_falls_back_without_a_scale(self, z0, rhs):
        # z0 = 0 makes the ratio 0, f(z0) = 0 makes it infinite.
        traj = integrate(rhs, np.array(z0), 1.0)
        assert traj.times[1] == oracle.INITIAL_STEP
        assert traj.meta.rejected == 0

    def test_step_stats_recorded(self):
        sys = riccati_decay_system()
        traj = integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0)
        assert traj.meta.accepted > 0
        assert traj.meta.min_step < 1.0

    def test_rejects_nonpositive_t_end(self):
        with pytest.raises(ValidationError):
            integrate(lambda z: z, np.array([1 + 0j]), 0.0)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_rejects_non_finite_t_end(self, t_end):
        with pytest.raises(ValidationError, match="finite"):
            integrate(lambda z: z, np.array([1 + 0j]), t_end)

    @pytest.mark.parametrize(
        "rhs,error",
        [
            pytest.param(
                lambda z: evaluate_rhs(
                    PolynomialSystem(2, 4, coeffs=[[1.0], [0]], exponents=[[4, 0]]), z
                ),
                ValidationError,
                id="evaluate_rhs",
            ),
            pytest.param(lambda z: z**4, StepUnderflow, id="plain_callable"),
        ],
    )
    def test_non_finite_stage_state_raises(self, rhs, error):
        # z1' = z1^4 from 1e100 blows up at t ~ 3e-301, and k1 is already
        # infinite, so every stage state past the first is. evaluate_rhs's
        # state validation refuses such a state; with a plain callable the
        # integrator rejects each step, shrinking h to StepUnderflow.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error, match="non-finite|underflow"):
                integrate(rhs, np.array([1e100, 0j]), 1.0)

    def test_overflowing_trial_step_is_rejected(self):
        # z' = -z^3 from 1 decays as (1 + 2t)^(-1/2). The step grows with t
        # until a trial step overflows its stages; that step is rejected, and
        # the run reaches t_end within the absolute tolerance. Trial steps
        # first overflow between t_end = 1e30 and 1e40.
        calls = []

        def rhs(z):
            calls.append(np.isfinite(z).all())
            return -(z**3)

        traj = integrate(rhs, np.array([1 + 0j]), 1e40)
        assert not all(calls)
        assert traj.meta.rejected > 0
        np.testing.assert_allclose(traj.states[-1], (1 + 2e40) ** -0.5, rtol=0, atol=oracle.ABS_TOL)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_first_rhs_warns_nothing(self):
        # rhs(z0) overflows at M = 3 before any step; the steps then shrink
        # to StepUnderflow, with no numpy warning on the way.
        inst = generate_random_instance(2, 3, 5)
        with pytest.raises(StepUnderflow):
            integrate(inst.system.rhs, [1e150, 1e150], 1.0)

    def test_rejects_empty_initial_state(self):
        with pytest.raises(ValidationError, match="non-empty"):
            integrate(lambda z: z, np.array([], dtype=complex), 1.0)

    def test_rejects_rhs_result_of_wrong_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            integrate(lambda z: np.zeros(6, dtype=complex), np.zeros(4, dtype=complex), 1.0)

    def test_rhs_returning_a_list_integrates(self):
        # Every RHS result must have the state's shape; a list of n numbers has.
        instance = generate_random_instance(2, 4, 42, k_cap=0.1)
        rhs = instance.system.rhs
        expected = integrate(rhs, instance.z0, 0.1)
        traj = integrate(lambda z: rhs(z).tolist(), instance.z0, 0.1)
        assert traj.times.tobytes() == expected.times.tobytes()
        assert traj.states.tobytes() == expected.states.tobytes()

    @pytest.mark.parametrize("n,m,seed", [(2, 2, 1), (2, 4, 3), (3, 3, 4), (3, 4, 2)])
    def test_dense_output_matches_per_sample_loop(self, monkeypatch, n, m, seed):
        instance = generate_random_instance(n, m, seed)
        rhs = lambda z: evaluate_rhs(instance.system, z)
        t_end = proposition_t_end(instance)
        steps = integrate(rhs, instance.z0, t_end)
        # Uniform samples plus every step boundary, where theta is 0 or 1.
        t_eval = np.unique(np.concatenate([np.linspace(0.0, t_end, 64), steps.times[:-1]]))
        dense = integrate(rhs, instance.z0, t_end, t_eval=t_eval)
        reference = dense_output_loop(rhs, steps, t_end, t_eval)
        np.testing.assert_allclose(dense.states, reference, rtol=1e-14)
        np.testing.assert_array_equal(dense.states[-1], steps.states[-1])
        # Blocks of 7 samples put block boundaries inside and between steps;
        # the blocks change the memory used, never a bit of the result.
        monkeypatch.setattr(oracle, "DENSE_OUTPUT_BLOCK", 7)
        blocked = integrate(rhs, instance.z0, t_end, t_eval=t_eval)
        np.testing.assert_array_equal(blocked.states, dense.states)

    def test_step_points_are_accepted_states(self):
        sys = riccati_decay_system()
        traj = integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0)
        assert len(traj) == traj.meta.accepted + 1
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(traj.states[:, 0], 1 / (1 + traj.times), atol=1e-8)

    @pytest.mark.parametrize("cell", sorted(RECORDED_STEPS))
    def test_step_counts_match_recorded(self, cell):
        assert recorded_cell(*cell) == RECORDED_STEPS[cell]

    @pytest.mark.parametrize("theta", [np.pi / 4, 1.0])
    @pytest.mark.parametrize("cell", sorted(RECORDED_STEPS))
    def test_step_counts_are_rotation_invariant(self, cell, theta):
        # Turning every component by e^{i theta} keeps each modulus the
        # error norm reads, up to rounding; a per-part norm moved these
        # counts by up to 19 steps.
        for seed in range(10):
            instance = generate_random_instance(*cell, seed)
            t_end = proposition_t_end(instance)
            assert step_counts(*rotated(instance, theta), t_end) == step_counts(
                instance.system, instance.z0, t_end
            ), (cell, seed)

    @staticmethod
    def assert_matches_reference_loop(monkeypatch, rhs, z0, t_end):
        # Many runs pass the 32 accepted steps the history starts with, and
        # so grow it, most of all at the tight tolerance.
        for rel_tol, abs_tol in ((oracle.REL_TOL, oracle.ABS_TOL), (1e-13, 1e-15)):
            monkeypatch.setattr(oracle, "REL_TOL", rel_tol)
            monkeypatch.setattr(oracle, "ABS_TOL", abs_tol)
            traj = integrate(rhs, z0, t_end)
            times, states, accepted, rejected = reference_step_points(rhs, z0, t_end)
            assert (traj.meta.accepted, traj.meta.rejected) == (accepted, rejected)
            assert traj.times.tobytes() == times.tobytes()
            assert traj.states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("cell", sorted(RECORDED_STEPS))
    def test_step_points_match_reference_loop_bit_for_bit(self, monkeypatch, cell):
        for seed in range(20):
            instance = generate_random_instance(*cell, seed)
            self.assert_matches_reference_loop(
                monkeypatch, instance.system.rhs, instance.z0, proposition_t_end(instance)
            )

    @pytest.mark.parametrize(
        "a,omega,q", [(0.3, 1.0, 0), (0.3, -0.7, 0), (2.0, 1.0, 1), (2.0, -0.7, -1)]
    )
    def test_periodic_step_points_match_reference_loop_bit_for_bit(self, monkeypatch, a, omega, q):
        # One base period of the rotated RHS, whose components turn at
        # omega / (M - 1); the bracket circle's radius a = K / (i omega)
        # sets the winding number q.
        pcf = PeriodicClosedForm(_instance_with_k(1j * omega * a), omega)
        assert pcf.q == q
        self.assert_matches_reference_loop(
            monkeypatch, pcf.system.rhs, pcf.instance.z0, pcf.base_period
        )

    @pytest.mark.parametrize("cell", sorted(RECORDED_STEPS))
    def test_a_system_and_its_rhs_give_the_same_bytes(self, cell):
        for seed in range(5):
            instance = generate_random_instance(*cell, seed)
            assert_system_and_callable_agree(
                instance.system, instance.z0, proposition_t_end(instance)
            )

    @pytest.mark.parametrize(
        "a,omega,q", [(0.3, 1.0, 0), (0.3, -0.7, 0), (2.0, 1.0, 1), (2.0, -0.7, -1)]
    )
    def test_a_periodic_system_and_its_rhs_give_the_same_bytes(self, a, omega, q):
        pcf = PeriodicClosedForm(_instance_with_k(1j * omega * a), omega)
        assert pcf.q == q
        assert_system_and_callable_agree(pcf.system, pcf.instance.z0, pcf.base_period)

    def test_threads_integrating_one_system_match_a_sequential_run(self):
        # Two threads, switching as often as the interpreter allows,
        # integrate the same systems at once. Each integration builds its own
        # kernel, so every bit matches a run alone, and the systems gain no
        # attribute from being integrated.
        cases = []
        for n, m, seed in [(2, 3, 0), (3, 4, 1), (3, 2, 2)]:
            instance = generate_random_instance(n, m, seed)
            cases.append((instance.system, instance.z0, proposition_t_end(instance)))
        pcf = PeriodicClosedForm(_instance_with_k(2j), 1.0)
        cases.append((pcf.system, pcf.instance.z0, pcf.base_period))
        attributes = [set(vars(system)) for system, _, _ in cases]

        def run():
            return [
                integrate(system, z0, t_end, t_eval=np.linspace(0.0, t_end, 64)).states.tobytes()
                for system, z0, t_end in cases
            ]

        expected, results, failures = run(), [], []
        start = threading.Barrier(2)

        def work():
            try:
                start.wait(timeout=30)
                results.extend(run() for _ in range(3))
            except Exception as exc:  # reported below, from the test's thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and len(results) == 6
        assert all(result == expected for result in results)
        assert [set(vars(system)) for system, _, _ in cases] == attributes

    def test_deterministic(self):
        sys = riccati_decay_system()
        ts = np.linspace(0, 1, 17)
        a = integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0, t_eval=ts)
        b = integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0, t_eval=ts)
        assert np.array_equal(a.states, b.states)

    def test_time_reversal(self):
        instance = generate_random_instance(2, 3, 9)
        rhs = lambda z: evaluate_rhs(instance.system, z)
        t_end = 0.5
        fwd = integrate(rhs, instance.z0, t_end, t_eval=np.array([0.0, t_end]))
        back = integrate(
            lambda z: -rhs(z), fwd.states[-1], t_end, t_eval=np.array([0.0, t_end])
        )
        one_way = np.abs(fwd.states[-1] - instance.z0).max()  # scale reference only
        assert np.abs(back.states[-1] - instance.z0).max() < 10 * 1e-8

    def test_matches_scipy_dop853(self):
        # scipy is in the test extra: its DOP853 is the independent reference.
        from scipy import integrate as scipy_integrate

        for n, m, seed in [(2, 2, 1), (2, 3, 4), (2, 4, 1), (3, 2, 1), (3, 3, 1), (3, 4, 1)]:
            instance = generate_random_instance(n, m, seed)
            times = np.linspace(0.0, proposition_t_end(instance), 9)
            ours = integrate(instance.system.rhs, instance.z0, times[-1], t_eval=times)
            ref = scipy_integrate.solve_ivp(
                lambda t, z: instance.system.rhs(z), (0.0, times[-1]), instance.z0,
                method="DOP853", t_eval=times, rtol=1e-13, atol=1e-14,
            )
            assert ref.success
            np.testing.assert_allclose(ours.states, ref.y.T, rtol=1e-8, atol=1e-10)


class UncheckedInstance(SolvableInstance):
    """A SolvableInstance built without the constraint check, so that one
    violating the constraints reaches the verifier."""

    def __post_init__(self):
        pass


class TestVerifyInstance:
    def riccati_instance(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        return SolvableInstance(sys, [1, 0], -1)

    def test_riccati_deviation_small(self):
        assert verify_instance(self.riccati_instance(), 0.5, 64) < 1e-8

    def test_broken_k_detected(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        # Violates the constraints, so only an unchecked instance holds it.
        broken = UncheckedInstance(sys, np.array([1, 0], dtype=complex), -1 + 1e-2)
        assert verify_instance(broken, 0.5, 64) > 1e-4

    def test_zero_instance(self):
        sys = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        inst = SolvableInstance(sys, [0, 0], -1)
        assert verify_instance(inst, 0.5, 16) == 0

    def test_rejects_t_end_past_blow_up(self):
        # The closed form refuses the window, as eval_closed_form does.
        with pytest.raises(SingularTime, match="blow-up time"):
            verify_instance(self.riccati_instance(), 1.5, 16)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_rejects_fewer_than_two_samples(self, samples):
        with pytest.raises(ValidationError, match="samples"):
            verify_instance(self.riccati_instance(), 0.5, samples)

    def test_order_check(self, monkeypatch):
        instance = generate_random_instance(2, 4, 3)
        d1 = verify_instance(instance, 0.5, 64)
        monkeypatch.setattr(oracle, "REL_TOL", oracle.REL_TOL / 2)
        monkeypatch.setattr(oracle, "ABS_TOL", oracle.ABS_TOL / 2)
        d2 = verify_instance(instance, 0.5, 64)
        assert d2 <= 2 * d1 + 1e-13


def integrated_closure(pcf, q):
    """The integrated trajectory's distance from z0 after the detected
    period, whose winding number must be ``q``."""
    report = detect_period(pcf)
    assert report.q == q
    psys = pcf.system
    traj = integrate(
        lambda w: eval_periodic_rhs(psys, w), pcf.instance.z0, report.T,
        t_eval=np.array([0.0, report.T]),
    )
    return np.abs(traj.states[-1] - pcf.instance.z0).max()


class TestVerifyPeriodic:
    def test_small_k_one_period(self):
        inst = generate_random_instance(2, 4, 5, k_cap=0.1)
        pcf = PeriodicClosedForm(inst, 1.0)
        assert verify_periodic(pcf, 1, 1025) < 1e-6

    @pytest.mark.parametrize("samples", [0, 1])
    def test_rejects_fewer_than_two_samples(self, samples):
        inst = generate_random_instance(2, 4, 5, k_cap=0.1)
        with pytest.raises(ValidationError, match="samples"):
            verify_periodic(PeriodicClosedForm(inst, 1.0), 1, samples)

    @pytest.mark.parametrize("omega", [1e11, 3e11])
    def test_short_base_period(self, omega):
        # The base period 2 pi / omega needs steps below MIN_STEP; the floor
        # scales with the window, so a regular closed form still verifies.
        pcf = PeriodicClosedForm(generate_random_instance(2, 4, 202, k_cap=0.1), omega)
        assert verify_periodic(pcf, 1, 65) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_a_huge_omega_warns_nothing(self):
        # |f(z0)| / scale overflows in the first step's size at omega = 1e300.
        pcf = PeriodicClosedForm(generate_random_instance(2, 3, 5), 1e300)
        assert verify_periodic(pcf, 1, 3) < 1e-6

    def test_k_zero_pure_rotation(self):
        inst = SolvableInstance(
            PolynomialSystem(2, 4, coeffs=[[], []], exponents=[]), [1 + 0j, -0.5j], 0.0
        )
        pcf = PeriodicClosedForm(inst, 1.0)
        assert verify_periodic(pcf, 3, 2049) < 1e-10

    def test_integrated_closure_at_detected_period(self):
        pcf = PeriodicClosedForm(generate_random_instance(2, 4, 5, k_cap=0.1), 1.0)
        assert integrated_closure(pcf, 0) < 1e-6

    @pytest.mark.parametrize("q", [1, -1])
    def test_integrated_closure_of_a_winding_trajectory(self, q):
        # K = 2i sgn(omega) puts a = 2 beyond Re a = 1/2: the circle winds
        # once, in the direction of omega.
        pcf = PeriodicClosedForm(_instance_with_k(2j * q), float(q))
        assert integrated_closure(pcf, q) < 1e-6


def us_per_step(instance, repeats=20):
    """Microseconds per accepted step of ``step_counts``'s integration of
    ``instance`` through its system's kernel and through the callable
    ``lambda z: system.rhs(z)``: the fastest of ``repeats`` runs each, the
    two forms run in turn so that a slow spell of the host hits both."""
    system, z0, t_end = instance.system, instance.z0, proposition_t_end(instance)
    times = np.linspace(0.0, t_end, 64)
    forms = (system, lambda z: system.rhs(z))
    best = [float("inf")] * len(forms)
    for _ in range(repeats):
        for i, rhs in enumerate(forms):
            run = lambda: integrate(rhs, z0, t_end, t_eval=times)
            best[i] = min(best[i], timeit.timeit(run, number=1))
    accepted = integrate(system, z0, t_end, t_eval=times).meta.accepted
    return [1e6 * seconds / accepted for seconds in best]


if __name__ == "__main__":
    # Prints RECORDED_STEPS as the integrator counts them now, for a
    # deliberate re-record, then the median time per accepted step of each
    # cell's 20 instances, through the system's kernel and through the
    # checked callable lambda z: system.rhs(z): one DP5 step as a layer.
    # python tests/test_oracle.py (with src on the path).
    print("RECORDED_STEPS = {")
    for cell in sorted(RECORDED_STEPS):
        counts = [f"({a}, {r})," for a, r in recorded_cell(*cell)]
        print(f"    {cell}: [")
        for row in (counts[:10], counts[10:]):
            print("        " + " ".join(row))
        print("    ],")
    print("}")
    print("# median us per accepted step: kernel, callable")
    for cell in sorted(RECORDED_STEPS):
        per_step = [us_per_step(generate_random_instance(*cell, seed)) for seed in range(20)]
        kernel, wrapped = np.median(per_step, axis=0)
        print(f"# {cell}: {kernel:6.2f} {wrapped:6.2f}")
