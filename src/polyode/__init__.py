"""Explicitly solvable systems of first-order ODEs with homogeneous
polynomial right-hand sides, their periodic complexified variants, and an
independent numerical-integration oracle for verifying both."""

from .closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from .constraints import (
    SolvableInstance,
    constraint_residual,
    jacobian,
    newton_solve_initial_data,
    solve_linear_selection,
)
from .generate import generate_random_instance
from .oracle import integrate, verify_instance, verify_periodic
from .periodic import (
    PeriodicClosedForm,
    PeriodicSystem,
    PeriodReport,
    detect_period,
    eval_periodic_closed_form,
    eval_periodic_rhs,
)
from .polysys import (
    PolynomialSystem,
    enumerate_multi_indices,
    evaluate_rhs,
)
from .trajectory import StepStats, Trajectory

__all__ = [
    "ClosedFormSolution",
    "PeriodReport",
    "PeriodicClosedForm",
    "PeriodicSystem",
    "PolynomialSystem",
    "SolvableInstance",
    "StepStats",
    "Trajectory",
    "blow_up_time",
    "constraint_residual",
    "detect_period",
    "enumerate_multi_indices",
    "eval_closed_form",
    "eval_periodic_closed_form",
    "eval_periodic_rhs",
    "evaluate_rhs",
    "generate_random_instance",
    "integrate",
    "jacobian",
    "newton_solve_initial_data",
    "solve_linear_selection",
    "verify_instance",
    "verify_periodic",
]

__version__ = "0.1.0"
