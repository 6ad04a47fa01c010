"""The three benchmark workloads and their per-op correctness gate.

One op is one user pipeline built only from polyode's public library
functions. Ops call the library through its module objects
(``generate.generate_random_instance`` and so on) so that the traced run
can wrap those names without touching library code.

An op's inputs are a pure function of (workload, benchmark seed, op index):
the same seed gives the same op sequence, whatever the run length.

Admission. No op of a gated workload may fail, so ``proposition`` and
``periodic`` skip two kinds of instance draw, before the op and outside its
timing, and count every skipped draw:

- ``unstable``: the special solution is linearly unstable over the
  verification window, so the oracle's local errors grow past the deviation
  bound, and tightening its tolerance does not shrink the deviation. ``log_error_growth`` bounds that growth from
  the instance alone. The bound is loose, but the deviation tracks it: on
  calibration samples of both workloads no draw with a log bound below 22
  missed, and draws between 14 and 16 deviated at most 8e-10, over 1000
  times below the bound. ``MAX_LOG_GROWTH`` is 16.
- ``near_singular`` (periodic): the bracket circle passes within
  ``MIN_BRACKET_MARGIN`` of its radius from zero. There the trajectory nears
  its singularity and ``verify_periodic``'s 257-point grid raises
  ``GridTooCoarse`` (it does so below about 1/32 of the radius).

``large_system`` admits every draw, so unstable instances still fail and are
counted there; ``GridTooCoarse`` shows as ``ops.rejected_draws.near_singular``.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from polyode import closedform, constraints, generate, oracle, periodic, serialization
from polyode.errors import GridTooCoarse, NotClosed, PolyOdeError, SingularBracket

# North-star acceptance bounds; an op that misses one fails.
MAX_DEVIATION = 1e-6
MAX_CLOSURE = 1e-8
MAX_RESIDUAL = 1e-10
NEWTON_TOL = 1e-12

VERIFY_SAMPLES = 64
PERIODIC_POINTS_PER_BASE_PERIOD = 4096
PERIODIC_VERIFY_SAMPLES = 257

DETECT_ERROR_CLASSES = (GridTooCoarse, NotClosed, SingularBracket)

# Admission limits (see the module docstring).
MAX_LOG_GROWTH = 16.0
MIN_BRACKET_MARGIN = 1 / 8
GROWTH_WINDOW_POINTS = 257
MAX_DRAWS = 256
REJECTION_REASONS = ("unstable", "near_singular")

# Failure counters every workload reports, zero where a layer does not run.
FAILURE_KEYS = (
    "oracle.deviation_failures",
    "periodic.detect_failures.GridTooCoarse",
    "periodic.detect_failures.NotClosed",
    "periodic.detect_failures.SingularBracket",
    "periodic.detect_failures.other",
    "periodic.closure_failures",
    "constraints.newton_failures",
    "constraints.residual_failures",
    "ops.typed_errors",
    "ops.untyped_errors",
)
# Checks of outputs that must hold exactly on every op; a miss marks the run
# incorrect, not just the op failed.
EXACTNESS_CHECKS = ("serialization.roundtrip", "serialization.csv_rows")


@dataclass(frozen=True)
class OpSpec:
    n: int
    m: int
    instance_seed: int
    density: float = 1.0
    k_cap: float | None = None
    omega: float | None = None
    perturbation: np.ndarray | None = None
    # Draws skipped before this one, per reason in REJECTION_REASONS.
    rejected: tuple = (0, 0)

    @property
    def cell(self) -> str:
        label = f"({self.n},{self.m})"
        if self.density != 1.0:
            label += f" density {self.density:g}"
        return label


@dataclass
class OpResult:
    """Outcome of one op: failure reasons (empty when it passed) and
    facts the provenance record counts."""

    failures: list = field(default_factory=list)
    error: str | None = None  # "stage:ExceptionClass" when the pipeline raised
    winding: int | None = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)


class Workload:
    """A named op sequence drawn from a benchmark seed."""

    name = ""
    cells: tuple = ()
    warmup_cell = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def spec(self, index: int) -> OpSpec:
        """Op ``index``'s inputs: the first admitted draw from its stream."""
        rng = np.random.default_rng([self.seed, index])
        rejected = dict.fromkeys(REJECTION_REASONS, 0)
        for _ in range(MAX_DRAWS):
            spec = self._spec(index, rng)
            reason = self.rejection(spec)
            if reason is None:
                return replace(spec, rejected=tuple(rejected.values()))
            rejected[reason] += 1
        raise RuntimeError(f"{self.name} op {index}: no admitted draw in {MAX_DRAWS}: {rejected}")

    def warmup_spec(self) -> OpSpec:
        """The op run once, untimed, before the loop; ``warmup_cell`` picks a
        cheap one."""
        return self.spec(self.warmup_cell)

    def _spec(self, index: int, rng) -> OpSpec:
        raise NotImplementedError

    def rejection(self, spec: OpSpec) -> str | None:
        """The reason to skip this draw, or None to admit it."""
        return None

    def run(self, spec: OpSpec, state: dict) -> None:
        """Run the op's pipeline, leaving its outputs in ``state``; raises
        whatever the library raises."""
        raise NotImplementedError

    def check(self, spec: OpSpec, state: dict, result: OpResult) -> None:
        """Untimed checks on what ``run`` left in ``state``."""


def _t_end(instance) -> float:
    t_star = closedform.blow_up_time(closedform.ClosedFormSolution.from_instance(instance))
    return 0.8 * min(t_star if t_star is not None else 1.0, 1.0)


def _relative_residual(instance) -> float:
    res = float(np.abs(constraints.constraint_residual(instance.system, instance.z0, instance.k)).max())
    return res / constraints.residual_scale(instance.system, instance.z0, instance.k)


def log_error_growth(instance, log_bracket: np.ndarray) -> float:
    """Log of a bound on how much the linearised flow along the special
    solution amplifies an error made at one time of a window at a later one.

    Along z0 * g^(1/(1-M)) a perturbation evolves as g^A with A = DP(z0)/K
    (P homogeneous of degree M), so with A = V diag(lam) V^-1 the growth from
    time s to t is at most cond(V) * max exp(Re(lam (log g(t) - log g(s)))).
    ``log_bracket`` is the continuous log g on the window's time grid.
    """
    system, k = instance.system, instance.k
    # constraints.jacobian is K*I - (1-M)*DP(z).
    dp = (constraints.jacobian(system, instance.z0, k) - k * np.eye(system.n)) / (system.m - 1)
    lam, vecs = np.linalg.eig(dp / k)
    rates = (lam[:, None] * log_bracket[None, :]).real
    growth = float((rates - np.minimum.accumulate(rates, axis=1)).max())
    return growth + math.log(np.linalg.cond(vecs))


def _instances_identical(a, b) -> bool:
    return (
        np.array_equal(a.z0, b.z0)
        and a.k == b.k
        and a.system.n == b.system.n
        and a.system.m == b.system.m
        and a.system.coefficients == b.system.coefficients
    )


class Proposition(Workload):
    """``polyode gen`` + ``verify`` at paper and test sizes (n <= 3): per-call
    RHS overhead and the DP5 step loop dominate, so a batched DP5 or an
    unchecked RHS kernel shows its gain here."""

    name = "proposition"
    cells = tuple((n, m) for n in (2, 3) for m in (2, 3, 4))
    warmup_cell = 0

    def _spec(self, index, rng):
        n, m = self.cells[index % len(self.cells)]
        return OpSpec(n, m, int(rng.integers(2**31)))

    def rejection(self, spec):
        instance = generate.generate_random_instance(spec.n, spec.m, spec.instance_seed)
        times = np.linspace(0.0, _t_end(instance), GROWTH_WINDOW_POINTS)
        if log_error_growth(instance, np.log(1 + instance.k * times)) > MAX_LOG_GROWTH:
            return "unstable"
        return None

    def run(self, spec, state):
        state["stage"] = "generate"
        instance = generate.generate_random_instance(spec.n, spec.m, spec.instance_seed)
        state["stage"] = "json"
        path = os.path.join(self.workdir, "instance.json")
        serialization.write_instance_file(instance, path)
        loaded = serialization.parse_instance_file(path)
        state.update(instance=instance, loaded=loaded, stage="verify")
        state["deviation"] = oracle.verify_instance(loaded, _t_end(loaded), VERIFY_SAMPLES)

    def check(self, spec, state, result):
        if not _instances_identical(state["instance"], state["loaded"]):
            result.failures.append("serialization.roundtrip")
        _check_instance(state["loaded"], result)
        _check_deviation(state["deviation"], result)


class LargeSystem(Workload):
    """Generate + Newton + verify past the test sizes: per-term RHS cost and
    system construction dominate, and the two density-0.1 cells show a
    dense-storage rewrite that loses on sparse systems as a regression."""

    name = "large_system"
    # Dense (10, 6) is left out: 50,050 terms, ~20 s per verification.
    cells = ((6, 5, 1.0), (8, 4, 1.0), (8, 4, 0.1), (10, 6, 0.1))
    warmup_cell = 2

    def _spec(self, index, rng):
        n, m, density = self.cells[index % len(self.cells)]
        seed = int(rng.integers(2**31))
        perturbation = 0.01 * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
        return OpSpec(n, m, seed, density=density, perturbation=perturbation)

    def run(self, spec, state):
        state["stage"] = "generate"
        instance = generate.generate_random_instance(
            spec.n, spec.m, spec.instance_seed, density=spec.density
        )
        state.update(instance=instance, stage="newton")
        guess = instance.z0 * (1 + spec.perturbation)
        state["newton_z0"] = constraints.newton_solve_initial_data(
            instance.system, instance.k, guess, tol=NEWTON_TOL
        )
        state["stage"] = "verify"
        state["deviation"] = oracle.verify_instance(instance, _t_end(instance), VERIFY_SAMPLES)

    def check(self, spec, state, result):
        instance = state["instance"]
        _check_instance(instance, result)
        res = constraints.constraint_residual(instance.system, state["newton_z0"], instance.k)
        if not float(np.abs(res).max()) <= NEWTON_TOL:
            result.failures.append("constraints.newton_failures")
        _check_deviation(state["deviation"], result)


class Periodic(Workload):
    """The ``period``/``periodize``/``demo example2`` flow: the only workload
    that touches ``periodic`` and bulk CSV writing. The oracle runs the
    rotated RHS over whole periods; winding numbers -1, 0 and 1 all occur."""

    name = "periodic"
    cells = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4))
    omegas = (1.0, -0.7, 2.5)
    k_caps = (0.1, 1.0, 3.0)
    warmup_cell = 0

    def _spec(self, index, rng):
        # Every 5 consecutive ops cover the cells and every 9 the (omega,
        # K cap) pairs, so a run that stops mid-cycle keeps the mix; 45 ops
        # cover every combination once (5 and 9 are coprime).
        n, m = self.cells[index % len(self.cells)]
        omega = self.omegas[index % len(self.omegas)]
        k_cap = self.k_caps[(index // len(self.omegas)) % len(self.k_caps)]
        return OpSpec(n, m, int(rng.integers(2**31)), k_cap=k_cap, omega=omega)

    def rejection(self, spec):
        instance = generate.generate_random_instance(
            spec.n, spec.m, spec.instance_seed, k_cap=spec.k_cap
        )
        # g(t) = c + a exp(i omega t) with a = K/(i omega), c = 1 - a: a circle
        # whose closest approach to zero is ||c| - |a||.
        a = instance.k / (1j * spec.omega)
        if abs(abs(1 - a) - abs(a)) < MIN_BRACKET_MARGIN * abs(a):
            return "near_singular"
        pcf = periodic.PeriodicClosedForm(instance, spec.omega)
        # Over one base period, the window verify_periodic checks. Away from
        # zero the grid's phase steps are small, so unwrapping is exact.
        times = np.linspace(0.0, pcf.base_period, PERIODIC_POINTS_PER_BASE_PERIOD + 1)
        g = periodic.bracket_values(pcf, times)
        log_g = np.log(np.abs(g)) + 1j * np.unwrap(np.angle(g))
        if log_error_growth(instance, log_g) > MAX_LOG_GROWTH:
            return "unstable"
        return None

    def run(self, spec, state):
        state["stage"] = "generate"
        instance = generate.generate_random_instance(
            spec.n, spec.m, spec.instance_seed, k_cap=spec.k_cap
        )
        state.update(instance=instance, stage="detect")
        pcf = periodic.PeriodicClosedForm(instance, spec.omega)
        report = periodic.detect_period(pcf)
        state.update(report=report, stage="eval")
        points = PERIODIC_POINTS_PER_BASE_PERIOD * report.k
        zeta = periodic.eval_periodic_closed_form(pcf, np.linspace(0.0, report.T, points + 1))
        state.update(zeta=zeta, stage="csv")
        path = os.path.join(self.workdir, "zeta.csv")
        serialization.write_trajectory_csv(zeta, path, periodic=True)
        state.update(csv_path=path, stage="verify")
        state["deviation"] = oracle.verify_periodic(
            pcf, periods=1, samples=PERIODIC_VERIFY_SAMPLES
        )

    def check(self, spec, state, result):
        instance, report, zeta = state["instance"], state["report"], state["zeta"]
        result.winding = report.q
        _check_instance(instance, result)
        closure = float(np.abs(zeta.states[-1] - instance.z0).max())
        if not (report.closure_error <= MAX_CLOSURE and closure <= MAX_CLOSURE):
            result.failures.append("periodic.closure_failures")
        with open(state["csv_path"]) as fh:
            rows = sum(1 for _ in fh)
        if rows != len(zeta) + 1:
            result.failures.append("serialization.csv_rows")
        _check_deviation(state["deviation"], result)


def _check_instance(instance, result: OpResult) -> None:
    if not _relative_residual(instance) <= MAX_RESIDUAL:
        result.failures.append("constraints.residual_failures")


def _check_deviation(deviation: float, result: OpResult) -> None:
    if not deviation <= MAX_DEVIATION:
        result.failures.append("oracle.deviation_failures")


WORKLOADS = {cls.name: cls for cls in (Proposition, LargeSystem, Periodic)}


def classify_error(exc: BaseException, stage: str) -> str:
    """The failure counter for an exception raised at a pipeline stage."""
    if not isinstance(exc, PolyOdeError):
        return "ops.untyped_errors"
    if stage == "detect":
        for cls in DETECT_ERROR_CLASSES:
            if isinstance(exc, cls):
                return f"periodic.detect_failures.{cls.__name__}"
        return "periodic.detect_failures.other"
    if stage == "newton":
        return "constraints.newton_failures"
    return "ops.typed_errors"


def run_op(workload: Workload, spec: OpSpec, scope=None):
    """Run one op, time its pipeline, then check it untimed.

    ``scope`` is an optional context manager entered around the pipeline
    (the traced run's root span). Returns (wall seconds of the pipeline,
    OpResult). An exception from the pipeline is a failed op, never a
    dropped one.

    The op's files are deleted afterwards, untimed, so every op writes new
    files as a user's run does. Rewriting a file in place would make ext4
    start writeback at each close (``auto_da_alloc``), which times the host's
    disk rather than the op.
    """
    result = OpResult()
    state: dict = {}
    t0 = time.perf_counter()
    try:
        try:
            with scope or contextlib.nullcontext():
                workload.run(spec, state)
        except Exception as exc:  # every failure is counted, typed or not
            elapsed = time.perf_counter() - t0
            result.failures.append(classify_error(exc, state.get("stage", "")))
            result.error = f"{state.get('stage', '')}:{type(exc).__name__}"
            return elapsed, result
        elapsed = time.perf_counter() - t0
        workload.check(spec, state, result)
        return elapsed, result
    finally:
        for name in os.listdir(workload.workdir):
            os.remove(os.path.join(workload.workdir, name))
