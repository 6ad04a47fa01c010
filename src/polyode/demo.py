"""Built-in demonstrations: the N=2, M=4 solvable instance and its
periodic variant, with all artifacts written to an output directory and
every tolerance check reported."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from .constraints import constraint_residual
from .errors import ValidationError
from .generate import generate_random_instance
from .oracle import integrate, verify_instance, verify_periodic
from .periodic import PeriodicClosedForm, detect_period, eval_periodic_closed_form
from .serialization import (
    write_instance_file,
    write_report,
    write_system_file,
    write_trajectory_csv,
)
from .trajectory import Trajectory

DEMO_SEED_EXAMPLE1 = 101
DEMO_SEED_EXAMPLE2 = 202
DEMO_NAMES = ("example1", "example2")


def _emit_base_artifacts(instance, out: Path) -> dict:
    write_system_file(instance.system, out / "system.json")
    write_instance_file(instance, out / "instance.json")

    sol = ClosedFormSolution.from_instance(instance)
    t_star = blow_up_time(sol)
    t_end = 0.8 * min(t_star if t_star is not None else 1.0, 1.0)
    times = np.linspace(0.0, t_end, 201)
    states = eval_closed_form(sol, times)
    write_trajectory_csv(Trajectory(times, states), out / "closed_form.csv")

    integrated = integrate(instance.system.rhs, instance.z0, t_end, t_eval=times)
    write_trajectory_csv(integrated, out / "integrated.csv")

    deviation = verify_instance(instance, t_end, 64)
    write_report(
        {"max_deviation": deviation, "samples": 64, "t_end": t_end},
        out / "verify.json",
    )
    residual = float(np.abs(instance.residual()).max())
    return {"t_end": t_end, "max_deviation": deviation, "residual": residual}


def run_demo(name: str, out_dir) -> tuple[bool, dict]:
    """Run a named demo; returns (all checks passed, summary)."""
    if name not in DEMO_NAMES:
        raise ValidationError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if name == "example1":
        instance = generate_random_instance(2, 4, DEMO_SEED_EXAMPLE1)
        summary = _emit_base_artifacts(instance, out)
        ok = summary["max_deviation"] < 1e-6 and summary["residual"] < 1e-10
        return ok, summary

    # example2: small-K regime so the bracket stays in the right half-plane.
    instance = generate_random_instance(2, 4, DEMO_SEED_EXAMPLE2, k_cap=0.1)
    summary = _emit_base_artifacts(instance, out)

    omega = 1.0
    pcf = PeriodicClosedForm(instance, omega)
    grid = np.linspace(0.0, pcf.base_period, 4097)
    zeta = eval_periodic_closed_form(pcf, grid)
    write_trajectory_csv(zeta, out / "zeta.csv", periodic=True)

    report = detect_period(pcf)
    write_report(report.as_dict(), out / "period.json")

    periodic_deviation = verify_periodic(pcf, periods=1, samples=1025)
    write_report(
        {"max_deviation": periodic_deviation, "samples": 1025, "t_end": pcf.base_period},
        out / "verify_periodic.json",
    )

    # Residual of the 2 complex (4 real) constraints for the periodized data.
    residual = constraint_residual(instance.system, instance.z0, instance.k)
    real_residuals = np.concatenate([np.abs(residual.real), np.abs(residual.imag)])
    summary.update(
        {
            "omega": omega,
            "q": report.q,
            "k_multiple": report.k,
            "period": report.T,
            "closure_error": report.closure_error,
            "periodic_deviation": periodic_deviation,
            "max_real_residual": float(real_residuals.max()),
        }
    )
    ok = (
        summary["max_deviation"] < 1e-6
        and summary["residual"] < 1e-10
        and report.k == 3
        and report.closure_error < 1e-8
        and periodic_deviation < 1e-6
        and summary["max_real_residual"] < 1e-10
    )
    return ok, summary
