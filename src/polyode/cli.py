"""Command-line front end.

Exit codes: 0 success, 1 validation error (a malformed command line
too), 2 tolerance failure, 3 singularity: the ``exit_code`` of the error's
class in ``errors`` (an OSError exits 1). ``verify`` past blow-up exits 3,
as ``eval`` does. No option changes a tolerance bound of a check.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from .closedform import ClosedFormSolution, eval_closed_form
from .constraints import NEWTON_TOL, SolvableInstance
from .constraints import newton_solve_initial_data, solve_linear_selection
from .demo import DEMO_NAMES, run_demo
from .errors import PolyOdeError, ValidationError, check_count
from .generate import generate_random_instance
from .oracle import MAX_DEVIATION, MAX_SAMPLES, sample_times, verify_instance
from .periodic import PeriodicClosedForm, detect_period
from .periodic import eval_periodic_closed_form
from .polysys import enumerate_multi_indices
from .serialization import (
    document_text,
    instance_to_dict,
    parse_instance_file,
    parse_system_file,
    write_instance_file,
    write_trajectory_csv,
)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number {text!r}: {exc}") from exc


def _parse_complex_list(text: str) -> np.ndarray:
    return np.array([_parse_complex(tok) for tok in text.split(",")], dtype=complex)


def _parse_unknowns(text: str) -> tuple[list, bool]:
    """Unknowns syntax: comma-separated K and coefficient keys, e.g.
    "K,c:1:4-0,c:2:0-4". Returns the keys and whether K was listed."""
    tokens = [token.strip() for token in text.split(",")]
    if tokens.count("K") > 1:
        raise ValidationError("K is listed more than once")
    keys = []
    for token in tokens:
        if token == "K":
            continue
        parts = token.split(":")
        if len(parts) != 3 or parts[0] != "c":
            raise ValidationError(f"bad unknown {token!r}; expected K or c:EQ:EXPONENTS")
        try:
            keys.append((int(parts[1]), tuple(int(e) for e in parts[2].split("-"))))
        except ValueError as exc:
            raise ValidationError(f"bad unknown {token!r}: {exc}") from exc
    return keys, "K" in tokens


def _emit_instance(instance: SolvableInstance, out: str | None) -> None:
    if out:
        write_instance_file(instance, out)
    else:
        sys.stdout.write(document_text(instance_to_dict(instance)))


def _cmd_enumerate(args) -> int:
    for index in enumerate_multi_indices(args.n, args.m):
        print("-".join(str(e) for e in index))
    return 0


def _cmd_solve(args) -> int:
    system = parse_system_file(args.system)
    z0 = _parse_complex_list(args.z0)
    keys, k_listed = _parse_unknowns(args.unknowns)
    if k_listed == (args.k is not None):
        raise ValidationError("give K exactly once: listed in --unknowns or as --k")
    k = None if k_listed else _parse_complex(args.k)
    instance = solve_linear_selection(system, z0, k, keys)
    _emit_instance(instance, args.out)
    return 0


def _cmd_newton(args) -> int:
    system = parse_system_file(args.system)
    k = _parse_complex(args.k)
    guess = _parse_complex_list(args.guess)
    z0 = newton_solve_initial_data(system, k, guess, tol=args.tol)
    instance = SolvableInstance(system, z0, k)
    _emit_instance(instance, args.out)
    return 0


def _cmd_eval(args) -> int:
    instance = parse_instance_file(args.instance)
    times = sample_times(args.t_max, args.samples)
    sol = ClosedFormSolution.from_instance(instance)
    write_trajectory_csv(eval_closed_form(sol, times), args.out)
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance_file(args.instance)
    deviation = verify_instance(instance, args.t_max, args.samples)
    print(json.dumps({"max_deviation": deviation, "samples": args.samples, "t_end": args.t_max}))
    return 0 if deviation <= MAX_DEVIATION else 2


def _cmd_periodize(args) -> int:
    samples = check_count("samples", args.samples, 1)
    if samples > MAX_SAMPLES - 1:  # the grid also holds the period's end
        raise ValidationError(f"samples must be <= {MAX_SAMPLES - 1}, got {samples!r}")
    instance = parse_instance_file(args.instance)
    pcf = PeriodicClosedForm(instance, args.omega)
    times = sample_times(pcf.base_period, samples + 1)
    zeta = eval_periodic_closed_form(pcf, times)
    write_trajectory_csv(zeta, args.out, periodic=True)
    return 0


def _cmd_period(args) -> int:
    instance = parse_instance_file(args.instance)
    pcf = PeriodicClosedForm(instance, args.omega)
    print(json.dumps(asdict(detect_period(pcf))))
    return 0


def _cmd_gen(args) -> int:
    instance = generate_random_instance(args.n, args.m, args.seed, density=args.density)
    _emit_instance(instance, args.out)
    return 0


def _cmd_demo(args) -> int:
    ok, summary = run_demo(args.name, args.out_dir)
    print(json.dumps(summary, indent=2))
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ValidationErrors (exit 1), not
    argparse's exit 2, which here means a failed check. Its subparsers
    share the class. An argument that starts with "-" and a digit or ".",
    as in ``--guess -0.9,-0.4`` or ``--omega -1e-3``, is a value: no option
    starts so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--tol", type=float, default=NEWTON_TOL)
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
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("gen", help="generate a seeded random solvable instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PolyOdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, PolyOdeError) else 1


if __name__ == "__main__":
    sys.exit(main())
