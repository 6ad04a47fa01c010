"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 tolerance failure,
3 singularity.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .closedform import ClosedFormSolution, eval_closed_form
from .constraints import (
    RATE_K,
    CoefficientSlot,
    SolvableInstance,
    UnknownSelection,
    newton_solve_initial_data,
    solve_linear_selection,
)
from .demo import run_demo
from .errors import (
    NoConvergence,
    NotClosed,
    PolyOdeError,
    SingularBracket,
    SingularJacobian,
    SingularSystem,
    SingularTime,
    StepUnderflow,
    ValidationError,
    check_count,
    check_positive,
)
from .generate import generate_random_instance
from .oracle import IntegratorConfig, sample_times, verify_instance
from .periodic import PeriodicClosedForm, detect_period, eval_periodic_closed_form
from .polysys import enumerate_multi_indices
from .serialization import (
    instance_to_dict,
    parse_instance_file,
    parse_system_file,
    write_instance_file,
    write_trajectory_csv,
)
from .trajectory import Trajectory

_SINGULAR_ERRORS = (SingularSystem, SingularJacobian, SingularTime, SingularBracket, StepUnderflow)
_TOLERANCE_ERRORS = (NotClosed, NoConvergence)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number {text!r}: {exc}") from exc


def _parse_complex_list(text: str) -> np.ndarray:
    return np.array([_parse_complex(tok) for tok in text.split(",")], dtype=complex)


def _parse_unknowns(text: str) -> UnknownSelection:
    """Selection syntax: comma-separated slots, e.g. "K,c:1:4-0,c:2:0-4"."""
    slots = []
    for token in text.split(","):
        token = token.strip()
        if token == "K":
            slots.append(RATE_K)
            continue
        parts = token.split(":")
        if len(parts) != 3 or parts[0] != "c":
            raise ValidationError(f"bad unknown slot {token!r}; expected K or c:EQ:EXPONENTS")
        try:
            eq = int(parts[1])
            index = tuple(int(e) for e in parts[2].split("-"))
        except ValueError as exc:
            raise ValidationError(f"bad unknown slot {token!r}: {exc}") from exc
        slots.append(CoefficientSlot(eq, index))
    return UnknownSelection(tuple(slots))


def _emit_instance(instance: SolvableInstance, out: str | None) -> None:
    if out:
        write_instance_file(instance, out)
    else:
        print(json.dumps(instance_to_dict(instance), indent=2))


def _cmd_enumerate(args) -> int:
    for index in enumerate_multi_indices(args.n, args.m):
        print("-".join(str(e) for e in index))
    return 0


def _cmd_solve(args) -> int:
    system = parse_system_file(args.system)
    z0 = _parse_complex_list(args.z0)
    selection = _parse_unknowns(args.unknowns)
    k_given = _parse_complex(args.k) if args.k is not None else None
    instance = solve_linear_selection(system, z0, k_given, selection)
    _emit_instance(instance, args.out)
    return 0


def _cmd_newton(args) -> int:
    system = parse_system_file(args.system)
    k = _parse_complex(args.k)
    guess = _parse_complex_list(args.guess)
    z0 = newton_solve_initial_data(system, k, guess, tol=args.tol, max_iter=args.max_iter)
    instance = SolvableInstance(system, z0, k, tol=max(args.tol, 1e-10))
    _emit_instance(instance, args.out)
    return 0


def _cmd_eval(args) -> int:
    instance = parse_instance_file(args.instance)
    times = sample_times(args.t_max, args.samples)
    states = eval_closed_form(ClosedFormSolution.from_instance(instance), times)
    write_trajectory_csv(Trajectory(times, states), args.out)
    return 0


def _cmd_verify(args) -> int:
    check_positive("max-dev", args.max_dev)
    instance = parse_instance_file(args.instance)
    config = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    deviation = verify_instance(instance, args.t_max, args.samples, config)
    print(json.dumps({"max_deviation": deviation, "samples": args.samples, "t_end": args.t_max}))
    return 0 if deviation <= args.max_dev else 2


def _cmd_periodize(args) -> int:
    check_count("samples", args.samples, 1)
    instance = parse_instance_file(args.instance)
    pcf = PeriodicClosedForm(instance, args.omega)
    times = sample_times(pcf.base_period, args.samples + 1)
    zeta = eval_periodic_closed_form(pcf, times)
    write_trajectory_csv(zeta, args.out, periodic=True)
    return 0


def _cmd_period(args) -> int:
    instance = parse_instance_file(args.instance)
    pcf = PeriodicClosedForm(instance, args.omega)
    report = detect_period(pcf, tol=args.tol)
    print(json.dumps(report.as_dict()))
    return 0


def _cmd_gen(args) -> int:
    instance = generate_random_instance(args.n, args.m, args.seed, density=args.density)
    _emit_instance(instance, args.out)
    return 0


def _cmd_demo(args) -> int:
    ok, summary = run_demo(args.name, args.out_dir)
    print(json.dumps(summary, indent=2))
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyode",
        description="Explicitly solvable homogeneous polynomial ODE systems "
        "and their periodic variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list multi-indices for (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve", help="solve constraints for selected unknowns")
    p.add_argument("--system", required=True)
    p.add_argument("--z0", required=True, help='comma-separated complex values, e.g. "1+0.5j,-0.3j"')
    p.add_argument("--unknowns", required=True, help='e.g. "K,c:1:4-0" or "c:1:4-0,c:2:0-4"')
    p.add_argument("--k", default=None, help="rate parameter (omit when K is an unknown)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("newton", help="solve constraints for the initial data")
    p.add_argument("--system", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--guess", required=True, help="comma-separated complex values")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("eval", help="sample the closed-form solution to CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="compare closed form against the integrator")
    p.add_argument("--instance", required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--max-dev", type=float, default=1e-6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("periodize", help="sample the periodic closed form to CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_periodize)

    p = sub.add_parser("period", help="detect the period of the periodized solution")
    p.add_argument("--instance", required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("gen", help="generate a seeded random solvable instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    p.add_argument("name", choices=["example1", "example2"])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolyOdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _SINGULAR_ERRORS):
            return 3
        return 2 if isinstance(exc, _TOLERANCE_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
