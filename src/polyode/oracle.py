"""Independent numerical integration used to verify the closed forms.

The single adaptive oracle is a Dormand-Prince 5(4) embedded pair with
proportional step control and 4th-order dense output. Complex states are
integrated as 2N real components. The integrator consumes only
right-hand-side callables; it never touches the closed-form formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from .constraints import SolvableInstance
from .errors import MaxStepsExceeded, StepUnderflow, ValidationError, check_count, check_positive
from .periodic import PeriodicClosedForm, eval_periodic_closed_form
from .periodic import eval_periodic_rhs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .polysys import evaluate_rhs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .trajectory import StepStats, Trajectory

# Step control: the first step, the step below which StepUnderflow signals a
# nearby blow-up, and the budget of accepted plus rejected steps.
INITIAL_STEP = 1e-3
MIN_STEP = 1e-12
MAX_STEPS = 10_000_000

# Most sample times a grid may have: far above the 12,289 points of the
# largest grid in use, and refused before any array is allocated.
MAX_SAMPLES = 1 << 18

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# 5th-order minus embedded 4th-order weights (local error estimator).
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Dense-output polynomial (4th order in the step fraction).
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            object.__setattr__(self, name, check_positive(name, getattr(self, name)))
        if self.rel_tol < 1e-14:
            raise ValidationError(f"rel_tol must be >= 1e-14, got {self.rel_tol}")


def integrate(
    rhs,
    z0,
    t_end: float,
    config: IntegratorConfig | None = None,
    t_eval=None,
) -> Trajectory:
    """Integrate dz/dt = rhs(z) from t=0 to t_end.

    ``rhs`` maps a complex state vector to a complex state vector of the
    same shape; it need not validate its input. z0 must be finite and
    non-empty, and the first RHS result must have its shape. The six stage
    states of a step are checked together after the step's RHS calls, so
    ``rhs`` may see a non-finite state just before ValidationError is
    raised. When ``t_eval`` (a 1-D array of times in [0, t_end]) is given,
    states are produced at those times via the dense output interpolant;
    otherwise the accepted step points are returned. Deterministic.
    """
    if config is None:
        config = IntegratorConfig()
    t_end = check_positive("t_end", t_end)
    if t_eval is not None:
        times = np.asarray(t_eval, dtype=float)
        if times.ndim != 1 or not np.all((times >= 0) & (times <= t_end + 1e-12 * max(1.0, t_end))):
            raise ValidationError("t_eval must be a 1-D array of times within [0, t_end]")
    z0 = np.array(z0, dtype=complex)
    if z0.ndim != 1 or z0.size == 0:
        raise ValidationError(
            f"initial state must be one-dimensional and non-empty, got shape {z0.shape}"
        )
    if not np.isfinite(z0).all():
        raise ValidationError("state contains non-finite components")
    k1 = np.asarray(rhs(z0))
    if k1.shape != z0.shape:
        raise ValidationError(f"rhs returned shape {k1.shape} for a state of shape {z0.shape}")

    # A complex state is integrated as the real view of its memory, with the
    # real and imaginary parts of each component interleaved. The stages of
    # a step are the rows of a complex (7, n) array; the tableau combines the
    # rows of its real view.
    y = z0.view(float)
    t = 0.0
    h = min(INITIAL_STEP, t_end)
    stats = StepStats()
    step_t0: list[float] = []
    step_h: list[float] = []
    step_y0: list[np.ndarray] = []
    step_stages: list[np.ndarray] = []

    while t < t_end:
        if h < MIN_STEP:
            raise StepUnderflow(t)
        final = h >= t_end - t
        h_step = t_end - t if final else h
        stages = np.empty((7, z0.size), dtype=complex)
        stages[0] = k1
        k = stages.view(float)
        z_stages = np.empty((6, z0.size), dtype=complex)
        y_stages = z_stages.view(float)
        for i in range(1, 7):
            np.add(y, h_step * _A[i].dot(k[:i]), out=y_stages[i - 1])
            stages[i] = rhs(z_stages[i - 1])
        if not np.isfinite(y_stages).all():
            raise ValidationError("state contains non-finite components")
        # The last stage state is the 5th-order solution: _A[6] holds _B's weights.
        y_new = y_stages[5]
        err = h_step * _E.dot(k)
        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float((np.abs(err) / scale).max())

        if err_norm <= 1.0:
            step_t0.append(t)
            step_h.append(h_step)
            step_y0.append(y)
            step_stages.append(stages)
            t = t_end if final else t + h_step
            y = y_new
            k1 = stages[6]
            stats.accepted += 1
            stats.min_step = min(stats.min_step, h_step)
        else:
            stats.rejected += 1
        if stats.accepted + stats.rejected > MAX_STEPS:
            raise MaxStepsExceeded(f"exceeded {MAX_STEPS} steps at t={t}")
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h = h_step * min(5.0, max(0.2, factor))

    t0, hs = np.array(step_t0), np.array(step_h)
    ends = t0 + hs
    if t_eval is None:
        times = np.concatenate([[0.0], ends])
        states = np.array(step_y0 + [y]).view(complex)
        return Trajectory(times, states, meta=stats)

    idx = np.minimum(np.searchsorted(ends, times, side="left"), t0.size - 1)
    theta = ((times - t0[idx]) / hs[idx])[:, None]
    # _P @ (theta, theta^2, theta^3, theta^4) by Horner's rule.
    weights = theta * (_P[:, 0] + theta * (_P[:, 1] + theta * (_P[:, 2] + theta * _P[:, 3])))
    y_s = np.array(step_y0)[idx] + hs[idx, None] * np.einsum(
        "sk,skd->sd", weights, np.array(step_stages)[idx].view(float)
    )
    y_s[times >= t_end] = y
    return Trajectory(times, y_s.view(complex), meta=stats)


def sample_times(t_end: float, samples: int) -> np.ndarray:
    """``samples`` uniform times on [0, t_end], at most ``MAX_SAMPLES``. One
    sample would be t = 0 alone, where a check compares z0 with itself: a
    vacuous pass."""
    samples = check_count("samples", samples, 2)
    if samples > MAX_SAMPLES:
        raise ValidationError(f"samples must be <= {MAX_SAMPLES}, got {samples!r}")
    return np.linspace(0.0, check_positive("t_end", t_end), samples)


def _deviation(integrated: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(integrated - reference) / (1 + np.abs(reference))))


def verify_instance(
    instance: SolvableInstance,
    t_end: float,
    samples: int,
    config: IntegratorConfig | None = None,
) -> float:
    """Integrate the base system and compare against the closed form at
    uniform sample times; returns the max relative deviation
    |z_int - z_cf| / (1 + |z_cf|)."""
    times = sample_times(t_end, samples)
    sol = ClosedFormSolution.from_instance(instance)
    t_star = blow_up_time(sol)
    if t_star is not None and times[-1] >= t_star:
        raise ValidationError(f"t_end={t_end} not below blow-up time {t_star}")
    traj = integrate(instance.system.rhs, instance.z0, t_end, config, t_eval=times)
    return _deviation(traj.states, eval_closed_form(sol, times))


def verify_periodic(
    pcf: PeriodicClosedForm,
    periods: int,
    samples: int,
    config: IntegratorConfig | None = None,
) -> float:
    """Integrate the complexified system over whole base periods and compare
    against the periodic closed form on the same grid."""
    t_end = check_count("periods", periods, 1) * pcf.base_period
    times = sample_times(t_end, samples)
    reference = eval_periodic_closed_form(pcf, times)
    traj = integrate(pcf.system().rhs, pcf.z0, t_end, config, t_eval=times)
    return _deviation(traj.states, reference.states)
