"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np
import pytest

from polyode.closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from polyode.constraints import (
    SolvableInstance,
    constraint_residual,
    jacobian,
    newton_solve_initial_data,
)
from polyode.errors import NoConvergence, SingularTime, StepUnderflow
from polyode.generate import generate_random_instance
from polyode.oracle import integrate, verify_instance, verify_periodic
from polyode.periodic import PeriodicClosedForm, detect_period
from polyode.polysys import (
    PolynomialSystem,
    enumerate_multi_indices,
    evaluate_rhs,
)

from test_constraints import fd_jacobian
from test_oracle import UncheckedInstance
from test_polysys import random_system


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {desc}: {status}  {detail}".rstrip())
    assert ok, f"criterion {num} ({desc}) failed: {detail}"


def _instance_t_end(instance):
    t_star = blow_up_time(ClosedFormSolution.from_instance(instance))
    return 0.8 * min(t_star if t_star is not None else 1.0, 1.0)


def test_criterion_1_proposition_suite():
    start = time.monotonic()
    worst = 0.0
    count = 0
    for n in (2, 3):
        for m in (2, 3, 4):
            for i in range(50):
                instance = generate_random_instance(n, m, seed=10_000 * n + 1_000 * m + i)
                deviation = verify_instance(instance, _instance_t_end(instance), 64)
                worst = max(worst, deviation)
                count += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "proposition suite (300 random instances vs oracle)",
        worst <= 1e-6 and elapsed < 60,
        f"max deviation {worst:.3e}, {count} instances in {elapsed:.1f}s",
    )


def test_criterion_2_example1_golden():
    from polyode.demo import DEMO_SEED_EXAMPLE1

    instance = generate_random_instance(2, 4, DEMO_SEED_EXAMPLE1)
    residual = float(np.abs(constraint_residual(instance.system, instance.z0, instance.k)).max())

    sol = ClosedFormSolution.from_instance(instance)
    # Exponent check: log|z_n(t)/z_n(0)| must equal -(1/3) log|1 + K t|.
    times = np.linspace(0.1, _instance_t_end(instance), 7)
    lhs = np.log(np.abs(eval_closed_form(sol, times).states / instance.z0))
    rhs = -(1 / 3) * np.log(np.abs(1 + instance.k * times))
    exponent_err = float(np.abs(lhs - rhs[:, None]).max())

    deviation = verify_instance(instance, _instance_t_end(instance), 64)
    _report(
        2,
        "Example-1 golden (N=2, M=4 demo instance)",
        residual < 1e-10 and exponent_err < 1e-10 and deviation < 1e-6,
        f"residual {residual:.3e}, exponent err {exponent_err:.3e}, deviation {deviation:.3e}",
    )


def test_criterion_3_example2_golden():
    from polyode.demo import DEMO_SEED_EXAMPLE2

    instance = generate_random_instance(2, 4, DEMO_SEED_EXAMPLE2, k_cap=0.1)
    pcf = PeriodicClosedForm(instance, 1.0)

    deviation = verify_periodic(pcf, periods=1, samples=1025)
    report = detect_period(pcf)

    # Closure confirmed by integration alone, independent of the closed form.
    t_closure = 3 * pcf.base_period
    traj = integrate(pcf.system, instance.z0, t_closure, t_eval=np.array([0.0, t_closure]))
    integrated_closure = float(np.abs(traj.states[-1] - instance.z0).max())

    _report(
        3,
        "Example-2 golden (periodized demo)",
        deviation < 1e-6
        and report.k == 3
        and report.closure_error < 1e-8
        and integrated_closure < 1e-6,
        f"deviation {deviation:.3e}, k={report.k}, closure {report.closure_error:.3e}, "
        f"integrated closure {integrated_closure:.3e}",
    )


def test_criterion_4_homogeneity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        system = random_system(rng, n, m, density=0.6)
        z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = evaluate_rhs(system, lam * np.asarray(z, dtype=complex))
        rhs = lam**m * evaluate_rhs(system, z)
        scale = np.abs(rhs).max()
        if scale > 0:
            worst = max(worst, float(np.abs(lhs - rhs).max() / scale))
    _report(4, "homogeneity over 1000 random triples", worst <= 1e-12, f"max rel err {worst:.3e}")


def test_criterion_5_combinatorics():
    ok = True
    for n in range(1, 7):
        for m in range(0, 7):
            ok = ok and len(enumerate_multi_indices(n, m)) == math.comb(m + n - 1, n - 1)
    slots = 2 * len(enumerate_multi_indices(2, 4))
    ok = ok and slots == 10
    _report(5, "multi-index counts and Example-1 slot count", ok, f"(2,4) slots = {slots}")


def _diagonal_plus_noise(rng, n=3, m=3, noise=0.05):
    exponents = enumerate_multi_indices(n, m)
    coeffs = np.zeros((n, len(exponents)), dtype=complex)
    diag = rng.uniform(0.5, 1.5, n)
    for eq in range(n):
        for u, index in enumerate(exponents):
            if index[eq] == m:
                coeffs[eq, u] = diag[eq]
            else:
                coeffs[eq, u] = noise * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return PolynomialSystem(n, m, coeffs=coeffs, exponents=exponents), diag


def test_criterion_6_jacobian_and_newton():
    rng = np.random.default_rng(77)
    jac_err = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        system = random_system(rng, n, m, density=0.7)
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        k = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        jac_err = max(
            jac_err, float(np.abs(jacobian(system, z, k) - fd_jacobian(system, z, k)).max())
        )

    n, m, k = 3, 3, 1.0
    converged = 0
    residual_ok = True
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        system, diag = _diagonal_plus_noise(rng, n, m)
        # Nontrivial diagonal root: z^(m-1) = -k/((m-1)*diag), perturbed.
        root = (-k / ((m - 1) * diag.astype(complex))) ** (1 / (m - 1))
        guess = root * (1 + 0.05 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)))
        try:
            z0 = newton_solve_initial_data(system, k, guess, tol=1e-10)
        except NoConvergence:
            continue
        converged += 1
        if np.abs(constraint_residual(system, z0, k)).max() >= 1e-10:
            residual_ok = False
    _report(
        6,
        "Jacobian vs finite differences; Newton on diagonal-plus-noise",
        jac_err <= 1e-6 and converged >= 90 and residual_ok,
        f"max jacobian err {jac_err:.3e}, {converged}/100 converged",
    )


def test_criterion_7_broken_constraint_sensitivity():
    instance = generate_random_instance(2, 4, seed=321)
    # Violates the constraints, so only an unchecked instance holds it.
    broken = UncheckedInstance(instance.system, instance.z0, instance.k + 1e-2)
    t_end = min(_instance_t_end(instance), _instance_t_end(broken), 0.5)
    deviation = verify_instance(broken, t_end, 64)
    _report(
        7,
        "verifier detects K perturbed by 1e-2",
        deviation > 1e-4,
        f"deviation {deviation:.3e}",
    )


def test_criterion_8_singularity_handling():
    system = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
    instance = SolvableInstance(system, [1, 0], -1)
    sol = ClosedFormSolution.from_instance(instance)

    singular_ok = True
    for t in (1.0 - 1e-12, 1.0, 1.0 + 1e-9, 2.0):
        with pytest.raises(SingularTime):
            eval_closed_form(sol, [t])

    underflow_before_blow_up = False
    try:
        integrate(system, instance.z0, 1.0)
    except StepUnderflow as exc:
        underflow_before_blow_up = exc.t_reached < 1.0
    _report(
        8,
        "Riccati blow-up fixture (SingularTime + StepUnderflow)",
        singular_ok and underflow_before_blow_up,
        "",
    )
