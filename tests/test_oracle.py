import sys
import threading
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyode import oracle
from polyode.closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from polyode.constraints import SolvableInstance
from polyode.errors import MaxStepsExceeded, SingularTime, StepUnderflow, ValidationError
from polyode.generate import generate_random_instance
from polyode.oracle import (
    MAX_DEVIATION,
    _P,
    _TABLEAU,
    integrate,
    verify_instance,
    verify_periodic,
)
from polyode.periodic import PeriodicClosedForm, PeriodReport, PeriodicSystem, detect_period
from polyode.periodic import eval_periodic_rhs
from polyode.polysys import PolynomialSystem, evaluate_rhs, full_basis
from polyode.trajectory import StepStats

from test_periodic import _instance_with_k


def riccati_decay_system():
    # z1' = -z1^2 embedded in N=2; exact solution 1/(1+t).
    return PolynomialSystem(2, 2, coeffs=[[-1.0], [0]], exponents=[[2, 0]])


def riccati_blowup_system():
    # z1' = +z1^2; blows up at t = 1 from z1(0) = 1.
    return PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])


class RecordingSystem:
    """A test system of dimension ``n``: its kernel records a copy of each
    state it is given, then stores ``f`` of it. For the tests that count
    RHS calls or inject a fault at one of them."""

    def __init__(self, f, n=1):
        self.f, self.n, self.states = f, n, []

    def kernel(self):
        def store(z, out):
            self.states.append(z.copy())
            out[...] = self.f(z)

        return store


def checked_rhs(system):
    """``system``'s checked right-hand side as a callable: ``evaluate_rhs``,
    or ``eval_periodic_rhs`` for a periodic system. The references below
    call it; the integrator's kernel must match it bit for bit."""
    evaluate = eval_periodic_rhs if isinstance(system, PeriodicSystem) else evaluate_rhs
    return lambda z: evaluate(system, z)


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


# Bracket circle radius a = K / (i omega), omega and the winding number q
# of the periodic cases whose step points are pinned.
PERIODIC_CASES = [(0.3, 1.0, 0), (0.3, -0.7, 0), (2.0, 1.0, 1), (2.0, -0.7, -1)]


def periodic_case(a, omega):
    return PeriodicClosedForm(_instance_with_k(1j * omega * a), omega)


def proposition_t_end(instance):
    t_star = blow_up_time(ClosedFormSolution.from_instance(instance))
    return 0.8 * min(t_star if t_star is not None else 1.0, 1.0)


def step_counts(system, z0, t_end):
    """Accepted and rejected DP5 steps of verify_instance's integration
    (64 samples, default tolerances)."""
    traj = integrate(system, z0, t_end, t_eval=np.linspace(0.0, t_end, 64))
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


def rescaled(instance, exponent):
    """The system and z0 of the instance scaled by 2^exponent: z0 -> 2^e z0
    and every coefficient c -> c 2^(e (1 - M)), with K unchanged. Its
    solution is the original one times 2^e, and powers of two make the
    rescaling exact."""
    system = instance.system
    scaled = PolynomialSystem(
        system.n, system.m, coeffs=system.coeffs * 2.0 ** (exponent * (1 - system.m)),
        exponents=system.exponents,
    )
    return scaled, instance.z0 * 2.0**exponent


def time_scaled(instance, scale):
    """The instance with K and every coefficient times ``scale``, z0
    unchanged: its solution is the original one at ``scale`` t."""
    system = instance.system
    faster = PolynomialSystem(
        system.n, system.m, coeffs=system.coeffs * scale, exponents=system.exponents
    )
    return SolvableInstance(faster, instance.z0, instance.k * scale)


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
        traj = integrate(
            riccati_decay_system(), np.array([1, 0], dtype=complex), 1.0,
            t_eval=np.array([0.0, 0.5, 1.0]),
        )
        np.testing.assert_allclose(traj.states[:, 0], 1 / (1 + traj.times), atol=1e-8)
        np.testing.assert_array_equal(traj.states[:, 1], 0)

    def test_blow_up_raises_step_underflow(self):
        with pytest.raises(StepUnderflow) as excinfo:
            integrate(riccati_blowup_system(), np.array([1, 0], dtype=complex), 1.0)
        assert excinfo.value.t_reached < 1.0
        assert excinfo.value.t_reached > 0.9

    def test_blow_up_in_a_window_shorter_than_one(self):
        # z' = z^2 from z0 = 2 blows up at t = 0.5; the step floor, scaled
        # by t_end = 0.9, still stops the integration there.
        with pytest.raises(StepUnderflow) as excinfo:
            integrate(riccati_blowup_system(), np.array([2, 0], dtype=complex), 0.9)
        assert abs(excinfo.value.t_reached - 0.5) < 1e-9

    def test_final_step_below_min_step_ends_the_interval(self):
        # The whole window is one step shorter than MIN_STEP: it is the last
        # step, not an underflow.
        t_end = 1e-13
        traj = integrate(riccati_decay_system(), np.array([1, 0], dtype=complex), t_end)
        assert traj.times[-1] == t_end
        np.testing.assert_allclose(traj.states[-1], [1 / (1 + t_end), 0], rtol=1e-15)

    def test_zero_initial_state(self):
        traj = integrate(riccati_blowup_system(), np.zeros(2, dtype=complex), 1.0)
        assert np.all(traj.states == 0)

    def test_max_steps_exceeded(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STEPS", 3)
        with pytest.raises(MaxStepsExceeded):
            integrate(riccati_decay_system(), np.array([1, 0], dtype=complex), 1.0)

    def test_nan_error_estimate_shrinks_the_step(self, monkeypatch):
        # k7 = rhs(y_new), each attempt's 6th call after the first k1, is NaN,
        # so the finiteness test rejects every attempt as a NaN err_norm. The
        # step must shrink (x0.2 from the first step 0.01 |z0| / |k1| = 0.01,
        # 15 rejections) to StepUnderflow, not retry the same h until MAX_STEPS.
        monkeypatch.setattr(oracle, "MAX_STEPS", 1000)

        def f(z):
            calls = len(system.states)
            return np.full_like(z, np.nan) if calls > 1 and calls % 6 == 1 else -z

        system = RecordingSystem(f)
        with pytest.raises(StepUnderflow):
            integrate(system, np.array([1 + 0j]), 1.0)
        assert len(system.states) == 1 + 15 * 6

    def test_step_history_bounded(self, monkeypatch):
        # The history starts at 32 steps (32 * 8 * 2 = 512 entries at n = 2)
        # and is refused before it doubles past MAX_HISTORY.
        system, z0 = riccati_decay_system(), np.array([1, 0], dtype=complex)
        monkeypatch.setattr(oracle, "REL_TOL", 1e-13)
        monkeypatch.setattr(oracle, "ABS_TOL", 1e-15)
        assert integrate(system, z0, 1.0).meta.accepted > 32
        monkeypatch.setattr(oracle, "MAX_HISTORY", 512)
        with pytest.raises(MaxStepsExceeded, match="history exceeds 512 entries"):
            integrate(system, z0, 1.0)

    @pytest.mark.parametrize("t_eval", [[0.5, 0.1], [0.1, 0.1], [0.0, 0.3, 0.2, 0.4]])
    def test_rejects_unordered_t_eval_before_any_rhs_call(self, t_eval):
        system = RecordingSystem(lambda z: z)
        with pytest.raises(ValidationError, match="strictly increasing"):
            integrate(system, np.array([1 + 0j]), 1.0, t_eval=t_eval)
        assert system.states == []

    def test_stage_weights_at_unit_step_reproduce_tableau(self):
        # One step of h = 1 on dz/dt = k from y: stage i's state is
        # y + (a_i . 1) k = y + c_i k, with c_i the DP5 nodes, so an
        # off-by-one in the folded weights [1 | h A] moves a stage state.
        # |y| = 200 |k| makes the first step 0.01 |y| / |k| = 2, capped at
        # t_end = 1. The error row sums to 0, so the error estimate vanishes
        # and the step is accepted at the default tolerances.
        y, k = 200 - 100j, 1 + 0.5j
        system = RecordingSystem(lambda z: np.full_like(z, k))
        traj = integrate(system, np.array([y]), 1.0)
        nodes = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
        np.testing.assert_allclose(np.ravel(system.states[1:]), y + nodes * k, rtol=1e-15)
        np.testing.assert_allclose(_TABLEAU[1:7].sum(axis=1), nodes, rtol=1e-15)
        assert abs(_TABLEAU[7].sum()) < 1e-16
        assert (traj.meta.accepted, traj.meta.rejected) == (1, 0)
        np.testing.assert_allclose(traj.states[-1], y + k, rtol=1e-15)

    def test_first_step_is_the_problem_scale(self):
        # 0.01 max |z0| / max |f(z0)| in the error test's scale: the first
        # accepted step, since this draw rejects none.
        instance = generate_random_instance(2, 3, 0)
        traj = integrate(instance.system, instance.z0, 0.8)
        h0 = first_step(instance.z0, evaluate_rhs(instance.system, instance.z0), 0.8)
        assert traj.meta.rejected == 0
        assert traj.times[1] == h0 != oracle.INITIAL_STEP

    @pytest.mark.parametrize(
        "z0,system",
        [
            ([0j, 0j], riccati_blowup_system()),
            ([1 + 0j, 0j], PolynomialSystem(2, 2, coeffs=[[], []], exponents=[])),
        ],
        ids=["zero_state", "zero_rhs"],
    )
    def test_first_step_falls_back_without_a_scale(self, z0, system):
        # z0 = 0 makes the ratio 0, f(z0) = 0 makes it infinite.
        traj = integrate(system, np.array(z0), 1.0)
        assert traj.times[1] == oracle.INITIAL_STEP
        assert traj.meta.rejected == 0

    def test_step_stats_recorded(self):
        traj = integrate(riccati_decay_system(), np.array([1, 0], dtype=complex), 1.0)
        assert traj.meta.accepted > 0
        assert traj.meta.min_step < 1.0

    def test_rejects_nonpositive_t_end(self):
        with pytest.raises(ValidationError):
            integrate(riccati_decay_system(), np.array([1, 0], dtype=complex), 0.0)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_rejects_non_finite_t_end(self, t_end):
        with pytest.raises(ValidationError, match="finite"):
            integrate(riccati_decay_system(), np.array([1, 0], dtype=complex), t_end)

    def test_non_finite_stage_state_raises(self):
        # z1' = z1^4 from 1e100 blows up at t ~ 3e-301, and k1 is already
        # infinite, so every stage state past the first is. The unchecked
        # kernel takes such a state; the integrator rejects each step,
        # shrinking h to StepUnderflow.
        system = PolynomialSystem(2, 4, coeffs=[[1.0], [0]], exponents=[[4, 0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepUnderflow):
                integrate(system, np.array([1e100, 0j]), 1.0)

    def test_overflowing_trial_step_is_rejected(self):
        # z' = -z^3 from 1 decays as (1 + 2t)^(-1/2). The step grows with t
        # until a trial step overflows its stages; that step is rejected, and
        # the run reaches t_end within the absolute tolerance. Trial steps
        # first overflow between t_end = 1e30 and 1e40.
        system = RecordingSystem(lambda z: -(z**3))
        traj = integrate(system, np.array([1 + 0j]), 1e40)
        assert not np.isfinite(system.states).all()
        assert traj.meta.rejected > 0
        np.testing.assert_allclose(traj.states[-1], (1 + 2e40) ** -0.5, rtol=0, atol=oracle.ABS_TOL)

    def test_a_step_whose_stage_states_alone_overflow_is_rejected(self):
        # The first step is the window, h = 1. Its k2 = 1.7e308 overflows
        # stage states 4 and 5, whose weights on k2 exceed 1 in modulus; the
        # 5th-order solution and the error estimate weigh k2 by 0, so they
        # stay finite and small. Only the finiteness test of the stage states
        # rejects that step; then h = 0.2 and the final 0.8 are accepted.
        system = RecordingSystem(
            lambda z: np.full_like(z, 1.7e308 if len(system.states) == 2 else 1e-3)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(system, np.array([1 + 0j]), 1.0)
        assert (traj.meta.accepted, traj.meta.rejected) == (2, 1)
        assert traj.times.tolist() == [0.0, 0.2, 1.0]
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("k7", [np.inf, np.nan, 1.7e308])
    def test_a_step_whose_seventh_stage_alone_is_non_finite_is_rejected(self, k7):
        # The first step is the window, h = 1, and its k7 = f(y_new), the 7th
        # call, is inf, NaN or huge; k7 enters only the error estimate, so
        # every stage state stays finite. Each value rejects that step with
        # h shrunk by 0.2, then h = 0.2 and the final 0.8 are accepted. A NaN
        # error estimate must not be skipped by the error norm's max.
        system = RecordingSystem(
            lambda z: np.full_like(z, k7 if len(system.states) == 7 else 1e-3)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(system, np.array([1 + 0j]), 1.0)
        assert (traj.meta.accepted, traj.meta.rejected) == (2, 1)
        assert traj.times.tolist() == [0.0, 0.2, 1.0]
        assert traj.states.ravel().tolist() == [1, 1.0002000000000002, 1.0010000000000001]

    def test_a_step_whose_error_and_scale_moduli_both_overflow_is_rejected(self):
        # Every stage, stage state and the error estimate are finite, but
        # |e| and |y_new| exceed the largest double, so the error ratio is
        # inf / inf = NaN. The first step is 0.01 |z0| / |k1| = 100, the
        # window; it is rejected as a NaN error norm is, then h = 20 and the
        # final 80 are accepted: every later stage is k1, and the error
        # weights sum to 0.
        system = RecordingSystem(
            lambda z: np.full_like(z, (5.2e307 if len(system.states) == 7 else 1.27e304) * (1 + 1j))
        )
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(system, np.array([1.27e308 * (1 + 1j)]), 100.0)
        assert (traj.meta.accepted, traj.meta.rejected) == (2, 1)
        assert traj.times.tolist() == [0.0, 20.0, 100.0]
        assert np.isfinite(traj.states).all()

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_first_rhs_warns_nothing(self):
        # f(z0) overflows at M = 3 before any step; the steps then shrink
        # to StepUnderflow, with no numpy warning on the way. The system's
        # kernel takes the non-finite stage states that evaluate_rhs refuses.
        inst = generate_random_instance(2, 3, 5)
        with pytest.raises(StepUnderflow):
            integrate(inst.system, [1e150, 1e150], 1.0)

    def test_rejects_empty_initial_state(self):
        with pytest.raises(ValidationError, match="non-empty"):
            integrate(riccati_decay_system(), np.array([], dtype=complex), 1.0)

    @pytest.mark.parametrize("n,m,seed", [(2, 2, 1), (2, 4, 3), (3, 3, 4), (3, 4, 2)])
    def test_dense_output_matches_per_sample_loop(self, monkeypatch, n, m, seed):
        instance = generate_random_instance(n, m, seed)
        system, t_end = instance.system, proposition_t_end(instance)
        steps = integrate(system, instance.z0, t_end)
        # Uniform samples plus every step boundary, where theta is 0 or 1.
        t_eval = np.unique(np.concatenate([np.linspace(0.0, t_end, 64), steps.times[:-1]]))
        dense = integrate(system, instance.z0, t_end, t_eval=t_eval)
        reference = dense_output_loop(checked_rhs(system), steps, t_end, t_eval)
        np.testing.assert_allclose(dense.states, reference, rtol=1e-14)
        np.testing.assert_array_equal(dense.states[-1], steps.states[-1])
        # Blocks of 7 samples put block boundaries inside and between steps;
        # the blocks change the memory used, never a bit of the result.
        monkeypatch.setattr(oracle, "DENSE_OUTPUT_BLOCK", 7)
        blocked = integrate(system, instance.z0, t_end, t_eval=t_eval)
        np.testing.assert_array_equal(blocked.states, dense.states)

    def test_step_points_are_accepted_states(self):
        traj = integrate(riccati_decay_system(), np.array([1, 0], dtype=complex), 1.0)
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
    def assert_matches_reference_loop(monkeypatch, system, z0, t_end):
        # The system's kernel against its checked RHS in the reference loop.
        # Many runs pass the 32 accepted steps the history starts with, and
        # so grow it, most of all at the tight tolerance.
        rhs = checked_rhs(system)
        for rel_tol, abs_tol in ((oracle.REL_TOL, oracle.ABS_TOL), (1e-13, 1e-15)):
            monkeypatch.setattr(oracle, "REL_TOL", rel_tol)
            monkeypatch.setattr(oracle, "ABS_TOL", abs_tol)
            traj = integrate(system, z0, t_end)
            times, states, accepted, rejected = reference_step_points(rhs, z0, t_end)
            assert (traj.meta.accepted, traj.meta.rejected) == (accepted, rejected)
            assert traj.times.tobytes() == times.tobytes()
            assert traj.states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("cell", sorted(RECORDED_STEPS))
    def test_step_points_match_reference_loop_bit_for_bit(self, monkeypatch, cell):
        for seed in range(20):
            instance = generate_random_instance(*cell, seed)
            self.assert_matches_reference_loop(
                monkeypatch, instance.system, instance.z0, proposition_t_end(instance)
            )

    @pytest.mark.parametrize("exponent", [-40, -10, 20, 60])
    @pytest.mark.parametrize("cell", sorted(RECORDED_STEPS))
    def test_rescaled_step_points_match_reference_loop_bit_for_bit(self, monkeypatch, cell, exponent):
        # z0 times 2^e solves the system with coefficients times 2^(e(1 - M))
        # exactly. e = -40 and -10 put the states where ABS_TOL dominates the
        # error test's scale, e = 20 and 60 far past the O(1) of the draws.
        for seed in range(5):
            instance = generate_random_instance(*cell, seed)
            system, z0 = rescaled(instance, exponent)
            self.assert_matches_reference_loop(
                monkeypatch, system, z0, proposition_t_end(instance)
            )

    @pytest.mark.parametrize("a,omega,q", PERIODIC_CASES)
    def test_periodic_step_points_match_reference_loop_bit_for_bit(self, monkeypatch, a, omega, q):
        # One base period of the rotated RHS, whose components turn at
        # omega / (M - 1); the bracket circle's radius a = K / (i omega)
        # sets the winding number q.
        pcf = periodic_case(a, omega)
        assert pcf.q == q
        self.assert_matches_reference_loop(
            monkeypatch, pcf.system, pcf.instance.z0, pcf.base_period
        )

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
        system, ts = riccati_decay_system(), np.linspace(0, 1, 17)
        a = integrate(system, np.array([1, 0], dtype=complex), 1.0, t_eval=ts)
        b = integrate(system, np.array([1, 0], dtype=complex), 1.0, t_eval=ts)
        assert np.array_equal(a.states, b.states)

    def test_time_reversal(self):
        instance = generate_random_instance(2, 3, 9)
        system, t_end = instance.system, 0.5
        reverse = PolynomialSystem(
            system.n, system.m, coeffs=-system.coeffs, exponents=system.exponents
        )
        fwd = integrate(system, instance.z0, t_end, t_eval=np.array([0.0, t_end]))
        back = integrate(reverse, fwd.states[-1], t_end, t_eval=np.array([0.0, t_end]))
        assert np.abs(back.states[-1] - instance.z0).max() < 10 * 1e-8

    def test_matches_scipy_dop853(self):
        # scipy is in the test extra: its DOP853 is the independent reference.
        from scipy import integrate as scipy_integrate

        for n, m, seed in [(2, 2, 1), (2, 3, 4), (2, 4, 1), (3, 2, 1), (3, 3, 1), (3, 4, 1)]:
            instance = generate_random_instance(n, m, seed)
            times = np.linspace(0.0, proposition_t_end(instance), 9)
            ours = integrate(instance.system, instance.z0, times[-1], t_eval=times)
            ref = scipy_integrate.solve_ivp(
                lambda t, z: evaluate_rhs(instance.system, z), (0.0, times[-1]), instance.z0,
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
    traj = integrate(pcf.system, pcf.instance.z0, report.T, t_eval=np.array([0.0, report.T]))
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


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 9),
    omega=st.sampled_from([1.0, -0.7, 2.5]),
    scale=st.sampled_from([2.0, 0.25, 8.0]),
)
def test_time_scaling_is_exact(n, m, seed, omega, scale):
    """K and every coefficient times a power of two, ``scale``, and omega
    times ``scale``, give the same solution at ``scale`` t. Every stage
    value, step size and error weight of the scaled run is the original's
    times a power of two, so it matches the original bit for bit: the
    states, the step times over ``scale``, both verifiers' deviations and
    the detected period."""
    instance = generate_random_instance(n, m, seed)
    faster, t_end = time_scaled(instance, scale), proposition_t_end(instance)
    slow = integrate(instance.system, instance.z0, t_end)
    fast = integrate(faster.system, faster.z0, t_end / scale)
    assert fast.states.tobytes() == slow.states.tobytes()
    assert fast.times.tobytes() == (slow.times / scale).tobytes()
    accepted, rejected, min_step = slow.meta.accepted, slow.meta.rejected, slow.meta.min_step
    assert fast.meta == StepStats(accepted, rejected, min_step / scale)
    assert verify_instance(faster, t_end / scale, 64) == verify_instance(instance, t_end, 64)

    periodic = generate_random_instance(n, m, seed, k_cap=1.0)
    pcf = PeriodicClosedForm(periodic, omega)
    fast_pcf = PeriodicClosedForm(time_scaled(periodic, scale), omega * scale)
    assert verify_periodic(fast_pcf, 1, 65) == verify_periodic(pcf, 1, 65)
    report, fast_report = detect_period(pcf), detect_period(fast_pcf)
    assert fast_report == PeriodReport(report.q, report.k, report.T / scale, report.closure_error)


def relabelled(instance, perm):
    """The instance with component i of its state taken from component
    ``perm[i]``, and its basis re-sorted into canonical order."""
    system = instance.system
    exponents = system.exponents[:, perm]
    order = np.lexsort(exponents.T[::-1])[::-1]  # descending, first exponent first
    coeffs = system.coeffs[perm][:, order]
    permuted = PolynomialSystem(system.n, system.m, coeffs=coeffs, exponents=exponents[order])
    return SolvableInstance(permuted, instance.z0[perm], instance.k)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 29),
    data=st.data(),
)
def test_relabelling_the_variables(n, m, seed, data):
    """Permuting the components relabels the solution: the permuted system
    of a dense draw shares ``full_basis``, and its closed form is the
    original's columns, permuted, bit for bit. The integration sums the
    monomials in another order, so its deviation is not pinned; where the
    original's is at most 1e-8, the verdict is the same."""
    perm = data.draw(st.permutations(range(n)), label="perm")
    instance = generate_random_instance(n, m, seed)
    other = relabelled(instance, perm)
    assert other.system._basis is full_basis(n, m)
    t_end = proposition_t_end(instance)
    times = np.linspace(0.0, t_end, 64)
    states = eval_closed_form(ClosedFormSolution.from_instance(instance), times).states
    permuted = eval_closed_form(ClosedFormSolution.from_instance(other), times).states
    assert permuted.tobytes() == states[:, perm].tobytes()
    deviation = verify_instance(instance, t_end, 64)
    if deviation <= 1e-8:
        assert verify_instance(other, t_end, 64) <= MAX_DEVIATION


def us_per_step(system, z0, t_end, t_eval=None, repeats=20):
    """Microseconds per accepted step of integrating ``system`` from z0 to
    t_end, one entry per run of ``repeats``."""
    run = lambda: integrate(system, z0, t_end, t_eval=t_eval)
    steps = run().meta.accepted
    return [1e6 * seconds / steps for seconds in timeit.repeat(run, number=1, repeat=repeats)]


if __name__ == "__main__":
    # Prints RECORDED_STEPS as the integrator counts them now, for a
    # deliberate re-record, then the time per accepted step through the
    # system's kernel: one DP5 step as a layer. A cell's figure is the
    # median over its 20 instances of the fastest of 20 runs of
    # ``step_counts``'s integration; a periodic case's is the median of 20
    # runs over one base period.
    # python tests/test_oracle.py (with src on the path).
    print("RECORDED_STEPS = {")
    for cell in sorted(RECORDED_STEPS):
        counts = [f"({a}, {r})," for a, r in recorded_cell(*cell)]
        print(f"    {cell}: [")
        for row in (counts[:10], counts[10:]):
            print("        " + " ".join(row))
        print("    ],")
    print("}")
    print("# median us per accepted step through the system's kernel")
    for cell in sorted(RECORDED_STEPS):
        per_step = []
        for seed in range(20):
            instance = generate_random_instance(*cell, seed)
            t_end = proposition_t_end(instance)
            times = np.linspace(0.0, t_end, 64)
            per_step.append(min(us_per_step(instance.system, instance.z0, t_end, times)))
        print(f"# {cell}: {np.median(per_step):6.2f}")
    for a, omega, q in PERIODIC_CASES:
        pcf = periodic_case(a, omega)
        per_step = us_per_step(pcf.system, pcf.instance.z0, pcf.base_period)
        print(f"# periodic a={a}, omega={omega}, q={q}: {np.median(per_step):6.2f}")
