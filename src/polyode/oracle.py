"""Independent numerical integration used to verify the closed forms.

The single adaptive oracle is a Dormand-Prince 5(4) embedded pair with
proportional step control and 4th-order dense output. Complex states are
integrated as 2N real components. The integrator sees only the right-hand
side: a system, whose kernel writes each stage's f(z) straight into its
row of the stage buffer, or any callable, whose results are checked and
copied there. It never touches the closed-form formulas.

A step is accepted when max_j |e_j| / (ABS_TOL + REL_TOL max(|y_j|,
|y_new_j|)) <= 1, where e_j is the local error estimate of complex
component j and |.| the complex modulus: one scale per complex unknown.
Multiplying a component by e^{i theta} changes none of these moduli, so
the step sequence does not depend on where the real and imaginary axes
lie, as the deviation |z_int - z_cf| / (1 + |z_cf|) does not.

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


def integrate(rhs, z0, t_end: float, *, t_eval=None) -> Trajectory:
    """Integrate dz/dt = rhs(z) from t=0 to t_end.

    ``rhs`` is either a system or a callable. A system (anything with a
    ``kernel`` attribute and a dimension ``n``, such as ``PolynomialSystem``
    or ``PeriodicSystem``) fixes the dimension: z0 must have its ``n``
    components, checked before any RHS call. One kernel is
    built per call; its work arrays live as long as the call and are never
    kept, so one system may be integrated by several threads at once. Each
    stage's RHS is written straight into the stage buffer, unchecked. Any
    other callable maps a complex state vector to a complex state vector of
    the same shape, and need not validate its input; each of its results is
    checked to be numeric and of the state's shape before it is stored.

    z0 must be finite and non-empty. The six stage states of a step are
    checked together after the step's RHS calls, so ``rhs`` may see a
    non-finite state; a step with one is rejected and h shrinks by 0.2, as
    on a NaN error estimate. When ``t_eval`` (a 1-D array of times in
    [0, t_end]) is given, states are produced at those times via the dense
    output interpolant; otherwise the accepted step points are returned.
    Deterministic, and bit for bit the same for a system and its ``rhs``.
    """
    kernel = getattr(rhs, "kernel", None)
    if kernel is None and not callable(rhs):
        raise ValidationError(f"rhs must be callable, got {type(rhs).__name__}")
    t_end = check_positive("t_end", t_end)
    if t_eval is not None:
        times = as_array(t_eval, float, "t_eval")
        within = (times >= 0) & (times <= t_end + 1e-12 * max(1.0, t_end))
        if times.ndim != 1 or not np.logical_and.reduce(within):
            raise ValidationError("t_eval must be a 1-D array of times within [0, t_end]")
        if not np.logical_and.reduce(times[1:] > times[:-1]):
            raise ValidationError("t_eval times must be strictly increasing")
    z0 = as_array(z0, complex, "initial state")
    z0 = as_state(z0, z0.size if kernel is None else rhs.n)

    # A complex state is integrated as the real view of its memory, with the
    # real and imaginary parts of each component interleaved. ``rows`` holds
    # the step's start state y and its stages k1..k7 as complex (n,) rows.
    # Each step folds h into ``weights`` = [1 | h * A; 0 | h * e]: stage i's
    # state y + h * (a_i . k) is one dot of row i - 1 with rows[:i + 1], and
    # the error estimate h * (e . k) one dot of the last row with k. Buffers
    # and views are made once; h and the tolerances are 0-d arrays for ufuncs.
    n = z0.size
    rows = np.empty((8, n), dtype=complex)
    rows[0] = z0
    stage_states = np.empty((6, n), dtype=complex)
    row_view, state_view = rows.view(float), stage_states.view(float)
    y, y_new, k = rows[0], stage_states[5], row_view[1:]
    weights = np.zeros((7, 8))
    weights[:6, 0] = 1.0
    tableau, h_weights, error_weights = _TABLEAU[1:], weights[:, 1:], weights[6, 1:]
    stage_dots = [
        (weights[i - 1, : i + 1], row_view[: i + 1], state_view[i - 1], stage_states[i - 1],
         rows[i + 1])
        for i in range(1, 7)
    ]
    h_arr, rel_tol, abs_tol = np.empty(()), np.array(REL_TOL), np.array(ABS_TOL)
    # The error estimate is formed in the real view ``err`` and measured by
    # the moduli of its n complex components. |y| is kept from the step that
    # produced y; |y_new| is formed per step.
    err = np.empty(2 * n)
    err_complex, err_abs, scale = err.view(complex), np.empty(n), np.empty(n)
    abs_y_new = np.empty(n)
    finite = np.empty(state_view.shape, dtype=bool)
    # Accepted steps: start times, sizes, and start states and stages as rows.
    starts, sizes = [], []
    history = np.empty((32, 8, n), dtype=complex)
    t, accepted, rejected, min_step = 0.0, 0, 0, float("inf")
    step_floor = MIN_STEP * min(1.0, t_end)

    # Overflow is expected in the first rhs and step of a finite but huge z0,
    # and in a trial step far past the stability limit.
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel is None:
            store = _checked(rhs, z0, rows[1])
        else:
            store = kernel()
            store(z0, rows[1])
        abs_y = np.abs(y)
        # The first trial step from the problem's scale (see the module docstring).
        np.multiply(abs_y, rel_tol, out=scale)
        scale += abs_tol
        size = float(np.maximum.reduce(abs_y / scale))
        rate = float(np.maximum.reduce(np.abs(rows[1]) / scale))
        first = 0.01 * size / rate if rate > 0 else 0.0
        h = min(first if 0 < first < math.inf else INITIAL_STEP, t_end)

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
            # The last stage state is the 5th-order solution (_TABLEAU row 6).
            error_weights.dot(k, out=err)
            np.abs(err_complex, out=err_abs)
            np.maximum(abs_y, np.abs(y_new, out=abs_y_new), out=scale)
            scale *= rel_tol
            scale += abs_tol
            err_abs /= scale
            err_norm = float(np.maximum.reduce(err_abs))
            # A trial step whose stage states overflow is rejected as a NaN error
            # estimate is. ufunc reductions: ndarray.all and .max add a wrapper.
            if not np.logical_and.reduce(np.isfinite(state_view, out=finite), axis=None):
                err_norm = np.nan

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
                abs_y, abs_y_new = abs_y_new, abs_y
                rows[1] = rows[7]
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
        return Trajectory(np.append(0.0, ends), np.concatenate([steps[:, 0], rows[:1]]), meta=stats)

    y0s, ks = steps[:, 0].view(float), steps[:, 1:].view(float)
    y_s = np.empty((times.size, 2 * n))
    for s in range(0, times.size, DENSE_OUTPUT_BLOCK):
        block = times[s : s + DENSE_OUTPUT_BLOCK]
        idx = np.minimum(np.searchsorted(ends, block, side="left"), t0.size - 1)
        theta = ((block - t0[idx]) / hs[idx])[:, None]
        # b = _P @ (theta, theta^2, theta^3, theta^4) by Horner's rule.
        b = theta * (_P[:, 0] + theta * (_P[:, 1] + theta * (_P[:, 2] + theta * _P[:, 3])))
        y_s[s : s + block.size] = y0s[idx] + hs[idx, None] * np.einsum("sk,skd->sd", b, ks[idx])
    y_s[times >= t_end] = row_view[0]
    return Trajectory(times, y_s.view(complex), meta=stats)


def _checked(rhs, z0, k1):
    """The callable ``rhs`` as a kernel ``store(z, out)``. Its first call,
    at ``z0``, is made here and stored in ``k1``: a result that numpy cannot
    read as complex numbers, or whose shape is not z0's, is refused. Each
    later result is stored in ``out`` if it is numeric and of z0's shape (a
    list of n numbers is); anything else is a ValidationError."""
    shape = z0.shape
    value = as_array(rhs(z0), complex, "rhs value")
    if value.shape != shape:
        raise ValidationError(f"rhs returned shape {value.shape} for a state of shape {shape}")
    k1[...] = value

    def store(z, out):
        value = rhs(z)
        try:
            # np.shape only where .shape is missing or differs: a list passes.
            if getattr(value, "shape", None) != shape and np.shape(value) != shape:
                raise ValueError(f"shape {np.shape(value)} for a state of shape {shape}")
            out[...] = value
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"rhs value cannot be stored as a state: {exc}") from exc

    return store


def sample_times(t_end: float, samples: int) -> np.ndarray:
    """``samples`` uniform times on [0, t_end], at most ``MAX_SAMPLES``. One
    sample would be t = 0 alone, where a check compares z0 with itself: a
    vacuous pass."""
    samples = check_count("samples", samples, 2)
    if samples > MAX_SAMPLES:
        raise ValidationError(f"samples must be <= {MAX_SAMPLES}, got {samples!r}")
    return np.linspace(0.0, check_positive("t_end", t_end), samples)


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
