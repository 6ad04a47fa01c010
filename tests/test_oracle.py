import numpy as np
import pytest

from polyode import oracle
from polyode.closedform import ClosedFormSolution, blow_up_time
from polyode.constraints import SolvableInstance
from polyode.errors import MaxStepsExceeded, StepUnderflow, ValidationError
from polyode.generate import generate_random_instance
from polyode.oracle import (
    _A,
    _P,
    IntegratorConfig,
    integrate,
    verify_instance,
    verify_periodic,
)
from polyode.periodic import PeriodicClosedForm
from polyode.polysys import PolynomialSystem, evaluate_rhs


def riccati_decay_system():
    # z1' = -z1^2 embedded in N=2; exact solution 1/(1+t).
    return PolynomialSystem(2, 2, {(1, (2, 0)): -1.0})


def riccati_blowup_system():
    # z1' = +z1^2; blows up at t = 1 from z1(0) = 1.
    return PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})


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
            stages[j] = rhs(y0 + h[idx] * (_A[j] @ stages[:j]))
        theta = (s - t0[idx]) / h[idx]
        p = np.array([theta, theta**2, theta**3, theta**4])
        out[i] = y0 + h[idx] * ((_P @ p) @ stages)
    return out


def proposition_t_end(instance):
    t_star = blow_up_time(ClosedFormSolution.from_instance(instance))
    return 0.8 * min(t_star if t_star is not None else 1.0, 1.0)


# Accepted and rejected DP5 steps of verify_instance's integration (64
# samples, default config) for seeds 0-4 of each (n, M) cell, as recorded
# before the integrator and the RHS changed their arithmetic layout.
RECORDED_STEPS = {
    (2, 2): [(23, 0), (44, 1), (30, 0), (21, 0), (47, 1)],
    (2, 3): [(11, 0), (26, 0), (34, 1), (19, 0), (6, 0)],
    (2, 4): [(11, 0), (19, 0), (32, 2), (21, 0), (10, 0)],
    (3, 2): [(36, 0), (62, 1), (44, 1), (30, 0), (31, 0)],
    (3, 3): [(27, 0), (22, 0), (23, 0), (13, 0), (47, 3)],
    (3, 4): [(18, 0), (14, 0), (12, 0), (14, 0), (23, 0)],
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

    def test_zero_initial_state(self):
        sys = riccati_blowup_system()
        traj = integrate(lambda z: evaluate_rhs(sys, z), np.zeros(2, dtype=complex), 1.0)
        assert np.all(traj.states == 0)

    def test_max_steps_exceeded(self, monkeypatch):
        sys = riccati_decay_system()
        monkeypatch.setattr(oracle, "MAX_STEPS", 3)
        with pytest.raises(MaxStepsExceeded):
            integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0)

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
        "rhs,config",
        [
            pytest.param(
                lambda z: evaluate_rhs(PolynomialSystem(2, 4, {(1, (4, 0)): 1.0}), z),
                None,
                id="evaluate_rhs",
            ),
            pytest.param(lambda z: z**4, None, id="plain_callable"),
        ],
    )
    def test_non_finite_stage_state_raises(self, rhs, config):
        # z1' = z1^4 from 1e100 overflows at the first stage, so the second
        # stage state is infinite. evaluate_rhs's state validation refuses
        # it; a plain callable computes on, and the integrator's check of
        # the step's stage states refuses it before any step is retried.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                integrate(rhs, np.array([1e100, 0j]), 1.0, config)

    def test_rejects_empty_initial_state(self):
        with pytest.raises(ValidationError, match="non-empty"):
            integrate(lambda z: z, np.array([], dtype=complex), 1.0)

    def test_rejects_rhs_result_of_wrong_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            integrate(lambda z: np.zeros(6, dtype=complex), np.zeros(4, dtype=complex), 1.0)

    @pytest.mark.parametrize("n,m,seed", [(2, 2, 1), (2, 4, 3), (3, 3, 4), (3, 4, 2)])
    def test_dense_output_matches_per_sample_loop(self, n, m, seed):
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

    def test_step_points_are_accepted_states(self):
        sys = riccati_decay_system()
        traj = integrate(lambda z: evaluate_rhs(sys, z), np.array([1, 0], dtype=complex), 1.0)
        assert len(traj) == traj.meta.accepted + 1
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(traj.states[:, 0], 1 / (1 + traj.times), atol=1e-8)

    @pytest.mark.parametrize("cell", sorted(RECORDED_STEPS))
    def test_step_counts_match_recorded(self, cell):
        n, m = cell
        for seed, recorded in enumerate(RECORDED_STEPS[cell]):
            instance = generate_random_instance(n, m, seed)
            t_end = proposition_t_end(instance)
            traj = integrate(
                lambda z: evaluate_rhs(instance.system, z), instance.z0, t_end,
                t_eval=np.linspace(0.0, t_end, 64),
            )
            assert (traj.meta.accepted, traj.meta.rejected) == recorded, (n, m, seed)

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
        scipy_integrate = pytest.importorskip("scipy.integrate")
        for n, m, seed in [(2, 3, 4), (3, 4, 1)]:
            instance = generate_random_instance(n, m, seed)
            times = np.linspace(0.0, proposition_t_end(instance), 9)
            ours = integrate(instance.system.rhs, instance.z0, times[-1], t_eval=times)
            ref = scipy_integrate.solve_ivp(
                lambda t, z: instance.system.rhs(z), (0.0, times[-1]), instance.z0,
                method="DOP853", t_eval=times, rtol=1e-13, atol=1e-14,
            )
            assert ref.success
            np.testing.assert_allclose(ours.states, ref.y.T, rtol=1e-8, atol=1e-10)


class TestConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(rel_tol=0)
        with pytest.raises(ValidationError):
            IntegratorConfig(abs_tol=-1)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            IntegratorConfig(**{field: value})

    def test_rejects_too_tight_rel_tol(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(rel_tol=1e-15)


class TestVerifyInstance:
    def riccati_instance(self):
        sys = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})
        return SolvableInstance(sys, [1, 0], -1)

    def test_riccati_deviation_small(self):
        assert verify_instance(self.riccati_instance(), 0.5, 64) < 1e-8

    def test_broken_k_detected(self):
        sys = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})
        broken = SolvableInstance(sys, [1, 0], -1 + 1e-2, tol=1.0)
        assert verify_instance(broken, 0.5, 64) > 1e-4

    def test_zero_instance(self):
        sys = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})
        inst = SolvableInstance(sys, [0, 0], -1)
        assert verify_instance(inst, 0.5, 16) == 0

    def test_rejects_t_end_past_blow_up(self):
        with pytest.raises(ValidationError):
            verify_instance(self.riccati_instance(), 1.5, 16)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_rejects_fewer_than_two_samples(self, samples):
        with pytest.raises(ValidationError, match="samples"):
            verify_instance(self.riccati_instance(), 0.5, samples)

    def test_order_check(self):
        instance = generate_random_instance(2, 4, 3)
        base = IntegratorConfig()
        tighter = IntegratorConfig(rel_tol=base.rel_tol / 2, abs_tol=base.abs_tol / 2)
        d1 = verify_instance(instance, 0.5, 64, base)
        d2 = verify_instance(instance, 0.5, 64, tighter)
        assert d2 <= 2 * d1 + 1e-13


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

    def test_k_zero_pure_rotation(self):
        inst = SolvableInstance(PolynomialSystem(2, 4, {}), [1 + 0j, -0.5j], 0.0)
        pcf = PeriodicClosedForm(inst, 1.0)
        assert verify_periodic(pcf, 3, 2049) < 1e-10

    def test_integrated_closure_at_detected_period(self):
        from polyode.periodic import detect_period, eval_periodic_rhs

        inst = generate_random_instance(2, 4, 5, k_cap=0.1)
        pcf = PeriodicClosedForm(inst, 1.0)
        report = detect_period(pcf)
        psys = pcf.system()
        traj = integrate(
            lambda w: eval_periodic_rhs(psys, w), pcf.z0, report.T,
            t_eval=np.array([0.0, report.T]),
        )
        assert np.abs(traj.states[-1] - pcf.z0).max() < 1e-6
