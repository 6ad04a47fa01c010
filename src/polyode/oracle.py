"""Independent numerical integration used to verify the closed forms.

The single adaptive oracle is a Dormand-Prince 5(4) embedded pair with
proportional step control and 4th-order dense output. Complex states are
integrated as 2N real components. The integrator sees only the right-hand
side, and only through one contract: a system, whose unchecked
``kernel()`` writes each stage's f(z) straight into its row of the stage
buffer. It never touches the closed-form formulas.

A step is accepted when its seven stages and six stage states are finite
and max_j |e_j| / (ABS_TOL + REL_TOL max(|y_j|, |y_new_j|)) <= 1, where
e_j is the local error estimate of complex component j and |.| the
complex modulus: one scale per complex unknown. Multiplying a component
by e^{i theta} changes none of these moduli, so the step sequence does
not depend on where the real and imaginary axes lie, as the deviation
|z_int - z_cf| / (1 + |z_cf|) does not.

The first trial step is the problem's own scale, 0.01 max_j |z0_j| / max_j
|f(z0)_j| with both measured against ABS_TOL + REL_TOL |z0_j| (Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, II.4), capped
at the window. Where that ratio is not finite and positive (z0 = 0 or
f(z0) = 0) it is INITIAL_STEP. The error test rejects a guess too large.
"""

from __future__ import annotations

import math

import numpy as np

from .closedform import ClosedFormSolution, eval_closed_form
from .closedform import blow_up_time  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .constraints import SolvableInstance
from .errors import MaxStepsExceeded, StepUnderflow, ValidationError, check_count, check_positive
from .errors import check_type
from .periodic import PeriodicClosedForm, eval_periodic_closed_form
from .periodic import eval_periodic_rhs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .polysys import as_array, as_state
from .polysys import evaluate_rhs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .trajectory import StepStats, Trajectory

# Step control: the first step where the problem's scale gives none, the step
# below which StepUnderflow signals a nearby blow-up (times t_end on windows
# shorter than 1), and the budget of accepted plus rejected steps.
INITIAL_STEP = 1e-3
MIN_STEP = 1e-12
MAX_STEPS = 10_000_000
# Most complex entries (8 n per accepted step) the step history may hold,
# 64 MB, refused before it doubles; tests, demos and benchmarks reach 6,816.
MAX_HISTORY = 1 << 22

# Most sample times a grid may have: far above the 12,289 points of the
# largest grid in use, and refused before any array is allocated.
MAX_SAMPLES = 1 << 18

# Samples per block of dense output: its temporaries stay at a few MB.
DENSE_OUTPUT_BLOCK = 4096

# Dormand-Prince 5(4) tableau, without nodes: the system is autonomous. Row
# i = 1..6 holds the weights of stage i's state over the stages k1..ki; row 6
# is also the 5th-order solution. Row 7 holds the error weights over k1..k7:
# 5th-order minus embedded 4th-order (local error estimator).
_TABLEAU = np.zeros((8, 7))
_TABLEAU[1, :1] = [1 / 5]
_TABLEAU[2, :2] = [3 / 40, 9 / 40]
_TABLEAU[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_TABLEAU[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_TABLEAU[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_TABLEAU[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_TABLEAU[7] = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
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


# The error control's tolerances, read at each call, and the acceptance bound
# on a verification's max relative deviation. No option changes them.
REL_TOL = 1e-10
ABS_TOL = 1e-12
MAX_DEVIATION = 1e-6


def integrate(system, z0, t_end: float, *, t_eval=None) -> Trajectory:
    """Integrate dz/dt = f(z), the right-hand side of ``system``, from t=0
    to t_end.

    ``system`` is anything with a ``kernel`` attribute and a dimension
    ``n``, such as ``PolynomialSystem`` or ``PeriodicSystem``; anything else
    is refused before z0 is read. z0 must have its ``n`` components, checked
    before any RHS call. One kernel is built per call; its work arrays live
    as long as the call and are never kept, so one system may be integrated
    by several threads at once. Each stage's RHS is written straight into
    the stage buffer, unchecked.

    z0 must be finite and non-empty. The seven stages and six stage states
    of a step are checked together after the step's RHS calls, so the
    kernel may see a non-finite state; a step with one is rejected and h
    shrinks by 0.2, as on a NaN error estimate. When ``t_eval`` (a 1-D
    array of times in [0, t_end]) is given, states are produced at those
    times via the dense output interpolant; otherwise the accepted step
    points are returned. Deterministic.
    """
    if not (hasattr(system, "kernel") and hasattr(system, "n")):
        raise ValidationError(f"system must have kernel() and n, got {type(system).__name__}")
    t_end = check_positive("t_end", t_end)
    if t_eval is not None:
        times = as_array(t_eval, float, "t_eval")
        within = (times >= 0) & (times <= t_end + 1e-12 * max(1.0, t_end))
        if times.ndim != 1 or not np.logical_and.reduce(within):
            raise ValidationError("t_eval must be a 1-D array of times within [0, t_end]")
        if not np.logical_and.reduce(times[1:] > times[:-1]):
            raise ValidationError("t_eval times must be strictly increasing")
    z0 = as_state(as_array(z0, complex, "initial state"), system.n)

    # A complex state is integrated as the real view of its memory, with the
    # real and imaginary parts of each component interleaved. ``buf`` holds
    # the step's start state y, its stages k1..k7, its stage states s1..s6
    # (s6 is the 5th-order y_new) and its error estimate as complex (n,) rows.
    # Each step folds h into ``weights`` = [1 | h * A; 0 | h * e]: stage i's
    # state y + h * (a_i . k) is one dot of row i - 1 with buf[:i + 1], and
    # the error estimate h * (e . k) one dot of the last row with k. Buffers
    # and views are made once; h is a 0-d array for ufuncs.
    n = z0.size
    buf = np.empty((15, n), dtype=complex)
    buf[0] = z0
    view = buf.view(float)
    y, y_new, k, rows = buf[0], buf[13], view[1:8], buf[:8]
    weights = np.zeros((7, 8))
    weights[:6, 0] = 1.0
    tableau, h_weights, error_weights = _TABLEAU[1:], weights[:, 1:], weights[6, 1:]
    stage_dots = [
        (weights[i - 1, : i + 1], view[: i + 1], view[7 + i], buf[7 + i], buf[i + 1])
        for i in range(1, 7)
    ]
    h_arr, rel_tol, abs_tol = np.empty(()), REL_TOL, ABS_TOL
    # y_new and the error estimate are adjacent rows, so one modulus call
    # gives |y_new| and |e|; the error norm is then taken on Python floats,
    # with |y| kept from the step that produced y.
    new_and_err, err_row, moduli = buf[13:15], view[14], np.empty((2, n))
    # 0 * x is NaN exactly where x is +-inf or NaN, and 0 (of either sign)
    # elsewhere, so one dot of every stage and stage state with zeros tests
    # them: a sum would overflow on finite values.
    stages_flat, zeros = view[1:14].reshape(-1), np.zeros(13 * 2 * n)
    # Accepted steps: start times, sizes, and start states and stages as rows.
    starts, sizes = [], []
    history = np.empty((32, 8, n), dtype=complex)
    t, accepted, rejected, min_step = 0.0, 0, 0, float("inf")
    step_floor = MIN_STEP * min(1.0, t_end)

    # Overflow is expected in the first rhs and step of a finite but huge z0,
    # and in a trial step far past the stability limit.
    with np.errstate(over="ignore", invalid="ignore"):
        store = system.kernel()
        store(z0, buf[1])
        abs_z0 = np.abs(y)
        # The first trial step from the problem's scale (see the module docstring).
        scale = abs_z0 * rel_tol + abs_tol
        size = float(np.maximum.reduce(abs_z0 / scale))
        rate = float(np.maximum.reduce(np.abs(buf[1]) / scale))
        first = 0.01 * size / rate if rate > 0 else 0.0
        h = min(first if 0 < first < math.inf else INITIAL_STEP, t_end)
        abs_y = abs_z0.tolist()

        while t < t_end:
            # A final step shorter than the floor only ends the interval.
            final = h >= t_end - t
            if h < step_floor and not final:
                raise StepUnderflow(t)
            h_step = t_end - t if final else h
            h_arr[()] = h_step
            np.multiply(tableau, h_arr, out=h_weights)
            for a, operands, state, z, row in stage_dots:
                a.dot(operands, out=state)
                store(z, row)
            error_weights.dot(k, out=err_row)
            # A trial step with a non-finite stage or stage state is rejected as
            # a NaN error norm is. A ratio is NaN only where |e_j| and the scale
            # both overflow; the norm keeps that NaN, which max() would skip.
            if zeros.dot(stages_flat) != 0:
                err_norm = math.nan
            else:
                abs_y_new, abs_e = np.abs(new_and_err, out=moduli).tolist()
                err_norm = 0.0
                for e_j, y_j, new_j in zip(abs_e, abs_y, abs_y_new):
                    ratio = e_j / ((y_j if y_j > new_j else new_j) * rel_tol + abs_tol)
                    if ratio > err_norm or ratio != ratio:
                        err_norm = ratio

            if err_norm <= 1.0:
                if accepted == len(history):
                    if 2 * history.size > MAX_HISTORY:
                        raise MaxStepsExceeded(f"step history exceeds {MAX_HISTORY} entries at t={t}")
                    history = np.concatenate([history, np.empty_like(history)])
                history[accepted] = rows
                starts.append(t)
                sizes.append(h_step)
                t = t_end if final else t + h_step
                y[:] = y_new
                abs_y = abs_y_new
                buf[1] = buf[7]
                accepted += 1
                min_step = min(min_step, h_step)
            else:
                rejected += 1
            if accepted + rejected > MAX_STEPS:
                raise MaxStepsExceeded(f"exceeded {MAX_STEPS} steps at t={t}")
            # A NaN err_norm gives a NaN factor, which max(0.2, .) turns into 0.2.
            factor = 0.9 * err_norm ** -0.2 if err_norm != 0 else 5.0
            h = h_step * min(5.0, max(0.2, factor))

    t0, hs = np.array(starts), np.array(sizes)
    ends = t0 + hs
    steps, stats = history[:accepted], StepStats(accepted, rejected, min_step)
    if t_eval is None:
        return Trajectory(np.append(0.0, ends), np.concatenate([steps[:, 0], buf[:1]]), meta=stats)

    y0s, ks = steps[:, 0].view(float), steps[:, 1:].view(float)
    y_s = np.empty((times.size, 2 * n))
    for s in range(0, times.size, DENSE_OUTPUT_BLOCK):
        block = times[s : s + DENSE_OUTPUT_BLOCK]
        idx = np.minimum(np.searchsorted(ends, block, side="left"), t0.size - 1)
        theta = ((block - t0[idx]) / hs[idx])[:, None]
        # b = _P @ (theta, theta^2, theta^3, theta^4) by Horner's rule.
        b = theta * (_P[:, 0] + theta * (_P[:, 1] + theta * (_P[:, 2] + theta * _P[:, 3])))
        y_s[s : s + block.size] = y0s[idx] + hs[idx, None] * np.einsum("sk,skd->sd", b, ks[idx])
    y_s[times >= t_end] = view[0]
    return Trajectory(times, y_s.view(complex), meta=stats)


def sample_times(t_end: float, samples: int) -> np.ndarray:
    """``samples`` uniform times on [0, t_end], at most ``MAX_SAMPLES``. One
    sample would be t = 0 alone, where a check compares z0 with itself: a
    vacuous pass. A t_end of a few subnormals spaces the times below the
    doubles' resolution, so some repeat; such a grid is refused."""
    samples = check_count("samples", samples, 2)
    if samples > MAX_SAMPLES:
        raise ValidationError(f"samples must be <= {MAX_SAMPLES}, got {samples!r}")
    t_end = check_positive("t_end", t_end)
    times = np.linspace(0.0, t_end, samples)
    if not np.logical_and.reduce(times[1:] > times[:-1]):
        raise ValidationError(
            f"{samples} sample times on [0, {t_end!r}] repeat a time: "
            "raise t_end (--t-max) or lower samples (--samples)"
        )
    return times


def _verify(system, reference: Trajectory) -> float:
    """Integrate ``system`` from ``reference``'s first state over its times to
    its last; returns the max relative deviation |z_int - z_ref| / (1 + |z_ref|)."""
    times, expected = reference.times, reference.states
    traj = integrate(system, expected[0], times[-1], t_eval=times)
    deviation = np.abs(traj.states - expected) / (1 + np.abs(expected))
    return float(np.maximum.reduce(deviation, axis=None))


def verify_instance(instance: SolvableInstance, t_end: float, samples: int) -> float:
    """Integrate the base system and compare against the closed form at
    uniform sample times; returns the max relative deviation
    |z_int - z_cf| / (1 + |z_cf|). The closed form, evaluated first,
    refuses a window that reaches blow-up before any step is taken."""
    check_type("instance", instance, SolvableInstance)
    times = sample_times(t_end, samples)
    reference = eval_closed_form(ClosedFormSolution.from_instance(instance), times)
    return _verify(instance.system, reference)


def verify_periodic(pcf: PeriodicClosedForm, periods: int, samples: int) -> float:
    """Integrate the complexified system over whole base periods and compare
    against the periodic closed form on the same grid."""
    check_type("pcf", pcf, PeriodicClosedForm)
    # check_positive names a count beyond the double range, where the
    # product with the base period would overflow.
    t_end = check_positive("periods", check_count("periods", periods, 1)) * pcf.base_period
    reference = eval_periodic_closed_form(pcf, sample_times(t_end, samples))
    return _verify(pcf.system, reference)
