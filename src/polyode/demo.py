"""Built-in demonstrations: the N=2, M=4 solvable instance and its
periodic variant, with all artifacts written to an output directory and
every tolerance check reported."""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from .closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from .constraints import RESIDUAL_TOL, constraint_residual
from .errors import ValidationError
from .generate import generate_random_instance
from .oracle import MAX_DEVIATION, integrate, verify_instance, verify_periodic
from .periodic import PeriodicClosedForm, detect_period
from .periodic import eval_periodic_closed_form
from .serialization import (
    write_instance_file,
    write_report,
    write_system_file,
    write_trajectory_csv,
)

DEMO_SEED_EXAMPLE1 = 101
DEMO_SEED_EXAMPLE2 = 202
DEMO_NAMES = ("example1", "example2")


def _emit_base_artifacts(instance, out: Path) -> tuple[dict, np.ndarray]:
    write_system_file(instance.system, out / "system.json")
    write_instance_file(instance, out / "instance.json")

    sol = ClosedFormSolution.from_instance(instance)
    t_star = blow_up_time(sol)
    t_end = 0.8 * min(t_star if t_star is not None else 1.0, 1.0)
    times = np.linspace(0.0, t_end, 201)
    write_trajectory_csv(eval_closed_form(sol, times), out / "closed_form.csv")

    integrated = integrate(instance.system.rhs, instance.z0, t_end, t_eval=times)
    write_trajectory_csv(integrated, out / "integrated.csv")

    deviation = verify_instance(instance, t_end, 64)
    write_report({"max_deviation": deviation, "samples": 64, "t_end": t_end}, out / "verify.json")
    residual = constraint_residual(instance.system, instance.z0, instance.k)
    largest = float(np.maximum.reduce(np.abs(residual)))
    return {"t_end": t_end, "max_deviation": deviation, "residual": largest}, residual


def run_demo(name: str, out_dir) -> tuple[bool, dict]:
    """Run a named demo; returns (all checks passed, summary)."""
    if name not in DEMO_NAMES:
        raise ValidationError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if name == "example1":
        instance = generate_random_instance(2, 4, DEMO_SEED_EXAMPLE1)
        summary, _ = _emit_base_artifacts(instance, out)
        ok = summary["max_deviation"] <= MAX_DEVIATION and summary["residual"] <= RESIDUAL_TOL
        return ok, summary

    # example2: small-K regime so the bracket stays in the right half-plane.
    instance = generate_random_instance(2, 4, DEMO_SEED_EXAMPLE2, k_cap=0.1)
    summary, residual = _emit_base_artifacts(instance, out)

    omega = 1.0
    pcf = PeriodicClosedForm(instance, omega)
    grid = np.linspace(0.0, pcf.base_period, 4097)
    zeta = eval_periodic_closed_form(pcf, grid)
    write_trajectory_csv(zeta, out / "zeta.csv", periodic=True)

    report = detect_period(pcf)
    write_report(asdict(report), out / "period.json")

    periodic_deviation = verify_periodic(pcf, periods=1, samples=1025)
    write_report(
        {"max_deviation": periodic_deviation, "samples": 1025, "t_end": pcf.base_period},
        out / "verify_periodic.json",
    )

    # The 2 complex constraints are 4 real ones for the periodized data.
    summary.update(
        omega=omega,
        q=report.q,
        k_multiple=report.k,
        period=report.T,
        closure_error=report.closure_error,
        periodic_deviation=periodic_deviation,
        max_real_residual=float(np.maximum.reduce(np.abs(residual.view(float)))),
    )
    # detect_period raises NotClosed past CLOSURE_TOL, and the real residual
    # is at most the complex one, so neither needs a check of its own.
    ok = (
        summary["max_deviation"] <= MAX_DEVIATION
        and summary["residual"] <= RESIDUAL_TOL
        and report.k == 3
        and periodic_deviation <= MAX_DEVIATION
    )
    return ok, summary
