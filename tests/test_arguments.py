"""Bad counts, positive reals, scalars, states, coefficient keys, time
arrays and library objects at every public entry point: each must raise ValidationError (never
an untyped error, never a silent result), and its CLI form must exit 1 with
``error:``."""

import os
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from polyode import oracle
from polyode.cli import main
from polyode.closedform import ClosedFormSolution, blow_up_time, eval_closed_form
from polyode.constraints import (
    SolvableInstance,
    constraint_residual,
    jacobian,
    newton_solve_initial_data,
    residual_scale,
    solve_linear_selection,
)
from polyode.errors import ValidationError, ZeroOmega, check_complex, check_count, check_positive
from polyode.generate import generate_random_instance
from polyode.oracle import integrate, sample_times, verify_instance, verify_periodic
from polyode.periodic import PeriodicClosedForm, PeriodicSystem, bracket_values, detect_period
from polyode.periodic import eval_periodic_closed_form, eval_periodic_rhs
from polyode.polysys import MAX_BASIS_SIZE, PolynomialSystem, as_state, enumerate_multi_indices
from polyode.polysys import evaluate_rhs, full_basis
from polyode.serialization import write_instance_file, write_system_file, write_trajectory_csv
from polyode.trajectory import Trajectory


@cache
def instance():
    return generate_random_instance(2, 4, 42, k_cap=0.1)


def pcf():
    return PeriodicClosedForm(instance(), 1.0)


def solution():
    return ClosedFormSolution.from_instance(instance())


def too_many_samples():
    return oracle.MAX_SAMPLES + 1


# A dimension whose n x n Jacobian exceeds MAX_BASIS_SIZE entries.
WIDE = 1500
assert WIDE**2 > MAX_BASIS_SIZE


@cache
def wide_system():
    """One term at n = WIDE: small to build, but its Jacobian is too large."""
    return PolynomialSystem(WIDE, 2, coeffs=np.eye(WIDE, 1), exponents=[[2] + [0] * (WIDE - 1)])


class KernelWithoutN:
    """A kernel without a dimension ``n``, so not a system. Building the
    kernel fails the test: the refusal must come before any RHS call."""

    def kernel(self):
        raise AssertionError("kernel built for an object without n")


def integrate_misfit(system, extra):
    """Integrate ``system`` from the instance's z0 with its last component
    dropped (``extra`` = -1) or one component appended (1)."""
    z0 = instance().z0
    return integrate(system, z0[:-1] if extra < 0 else np.append(z0, 1j), 0.1)


def solve(k, unknowns):
    """The linear solve on the (2, 4) instance, for K when ``k`` is None."""
    return solve_linear_selection(instance().system, instance().z0, k, unknowns)


# (id, library call, CLI form or None). A CLI form is run on the instance
# file of ``instance()``, given after the command name.
BAD_ARGUMENTS = [
    ("gen_n_float", lambda: generate_random_instance(2.5, 4, 1), None),
    ("gen_seed_float", lambda: generate_random_instance(2, 4, 1.5), None),
    ("gen_seed_bool", lambda: generate_random_instance(2, 4, True), None),
    ("gen_k_cap_negative", lambda: generate_random_instance(2, 4, 3, k_cap=-1), None),
    ("gen_k_cap_nan", lambda: generate_random_instance(2, 4, 3, k_cap=float("nan")), None),
    ("enumerate_n_float", lambda: enumerate_multi_indices(2.5, 3), None),
    ("enumerate_n_bool", lambda: enumerate_multi_indices(True, 3), None),
    ("verify_samples_float", lambda: verify_instance(instance(), 0.1, 2.5), None),
    ("verify_periodic_periods_float", lambda: verify_periodic(pcf(), 1.5, 65), None),
    # Beyond the double range, periods * base period would overflow.
    ("verify_periodic_periods_huge_int", lambda: verify_periodic(pcf(), 10**400, 3), None),
    ("closed_form_m_float", lambda: ClosedFormSolution(instance().z0, instance().k, 2.5), None),
    ("closed_form_k_nan", lambda: ClosedFormSolution(instance().z0, complex("nan"), 4), None),
    ("closed_form_k_inf", lambda: ClosedFormSolution(instance().z0, complex("inf"), 4), None),
    ("closed_form_scalar_z0", lambda: ClosedFormSolution(1.0, 0.5, 4), None),
    ("closed_form_empty_z0", lambda: ClosedFormSolution([], 0.5, 4), None),
    (
        "integrate_t_eval_2d",
        lambda: integrate(instance().system, instance().z0, 0.1, t_eval=[[0, 0.05]]),
        None,
    ),
    # A state one component short or long for a system is refused before
    # any RHS arithmetic: the kernel's gather would clip an index past the
    # state's end.
    ("integrate_system_z0_short", lambda: integrate_misfit(instance().system, -1), None),
    ("integrate_system_z0_long", lambda: integrate_misfit(instance().system, 1), None),
    ("integrate_periodic_z0_short", lambda: integrate_misfit(pcf().system, -1), None),
    ("integrate_periodic_z0_long", lambda: integrate_misfit(pcf().system, 1), None),
    # Only a system (a kernel and a dimension n) is integrated; a callable
    # is not one.
    ("integrate_rhs_str", lambda: integrate("x", instance().z0, 0.1), None),
    ("integrate_rhs_none", lambda: integrate(None, instance().z0, 0.1), None),
    (
        "integrate_rhs_callable",
        lambda: integrate(lambda z: evaluate_rhs(instance().system, z), instance().z0, 0.1),
        None,
    ),
    ("integrate_kernel_without_n", lambda: integrate(KernelWithoutN(), instance().z0, 0.1), None),
    ("eval_closed_form_times_2d", lambda: eval_closed_form(solution(), [[0, 0.1]]), None),
    (
        "eval_samples_above_bound",
        lambda: sample_times(0.4, too_many_samples()),
        lambda: ["eval", "--t-max", "0.4", "--samples", str(too_many_samples()), "--out", "OUT"],
    ),
    # A t_end of a few subnormals spaces the samples below the doubles'
    # resolution, so some times repeat.
    (
        "sample_times_repeat_a_time",
        lambda: sample_times(5e-324, 64),
        lambda: ["verify", "--t-max", "5e-324", "--samples", "64"],
    ),
    ("as_state_str", lambda: as_state("x", 1), None),
    ("as_state_ragged", lambda: as_state([[1], [1, 2]], 2), None),
    # An integer beyond the double range, where a complex or float belongs.
    ("as_state_huge_int", lambda: as_state([10**400, 1], 2), None),
    ("closed_form_z0_huge_int", lambda: ClosedFormSolution([10**400, 1], 0.5, 4), None),
    (
        "system_coeffs_huge_int",
        lambda: PolynomialSystem(2, 2, coeffs=[[10**400], [0]], exponents=[[2, 0]]),
        None,
    ),
    ("pcf_omega_str", lambda: PeriodicClosedForm(instance(), "x"), None),
    ("pcf_omega_numeric_str", lambda: PeriodicClosedForm(instance(), "1.0"), None),
    ("pcf_omega_bool", lambda: PeriodicClosedForm(instance(), True), None),
    ("pcf_omega_complex", lambda: PeriodicClosedForm(instance(), 1j), None),
    ("pcf_omega_huge_int", lambda: PeriodicClosedForm(instance(), 10**400), None),
    ("periodic_system_omega_none", lambda: PeriodicSystem(instance().system, None), None),
    # A field that holds a library object is checked for its type.
    ("pcf_instance_str", lambda: PeriodicClosedForm("x", 1.0), None),
    ("periodic_system_base_str", lambda: PeriodicSystem("x", 1.0), None),
    ("instance_system_str", lambda: SolvableInstance("x", instance().z0, instance().k), None),
    # So is an argument that should be a library object.
    ("verify_instance_str", lambda: verify_instance("x", 0.1, 3), None),
    ("verify_periodic_str", lambda: verify_periodic("x", 1, 3), None),
    ("detect_period_str", lambda: detect_period("x"), None),
    ("eval_periodic_closed_form_str", lambda: eval_periodic_closed_form("x", [0.0]), None),
    ("eval_periodic_rhs_str", lambda: eval_periodic_rhs("x", [1, 1]), None),
    ("bracket_values_str", lambda: bracket_values("x", [0.0]), None),
    ("eval_closed_form_str", lambda: eval_closed_form("x", [0.0]), None),
    ("blow_up_time_str", lambda: blow_up_time("x"), None),
    ("from_instance_str", lambda: ClosedFormSolution.from_instance("x"), None),
    ("write_instance_file_str", lambda: write_instance_file("x", os.devnull), None),
    ("write_system_file_str", lambda: write_system_file("x", os.devnull), None),
    ("write_trajectory_csv_str", lambda: write_trajectory_csv("x", os.devnull), None),
    ("evaluate_rhs_str", lambda: evaluate_rhs("x", [1, 1]), None),
    ("constraint_residual_str", lambda: constraint_residual("x", [1, 1], 1.0), None),
    ("residual_scale_str", lambda: residual_scale("x", [1, 1], 1.0), None),
    ("jacobian_str", lambda: jacobian("x", [1, 1], 1.0), None),
    ("newton_str", lambda: newton_solve_initial_data("x", 1.0, [1, 1]), None),
    ("solve_linear_selection_str", lambda: solve_linear_selection("x", [1, 1], None, [(1, (4, 0))]), None),
    ("closed_form_k_str", lambda: ClosedFormSolution(instance().z0, "x", 3), None),
    ("closed_form_k_huge_int", lambda: ClosedFormSolution(instance().z0, 10**400, 3), None),
    ("instance_k_none", lambda: SolvableInstance(instance().system, instance().z0, None), None),
    (
        "instance_k_str",
        lambda: SolvableInstance(instance().system, instance().z0, str(instance().k)),
        None,
    ),
    ("residual_k_str", lambda: constraint_residual(instance().system, instance().z0, "x"), None),
    ("residual_k_bool", lambda: constraint_residual(instance().system, instance().z0, True), None),
    ("jacobian_k_str", lambda: jacobian(instance().system, instance().z0, "x"), None),
    ("newton_k_str", lambda: newton_solve_initial_data(instance().system, "x", [1, 1]), None),
    ("solve_k_str", lambda: solve("x", [(1, (4, 0)), (2, (0, 4))]), None),
    ("solve_keys_none", lambda: solve(None, None), None),
    ("solve_keys_not_iterable", lambda: solve(None, 5), None),
    ("solve_key_not_a_pair", lambda: solve(None, [5]), None),
    ("solve_key_one_entry", lambda: solve(None, [(1,)]), None),
    ("solve_key_bool_eq", lambda: solve(None, [(True, (2, 2))]), None),
    ("solve_key_index_not_iterable", lambda: solve(None, [(1, 5)]), None),
    ("solve_key_eq_zero", lambda: solve(None, [(0, (2, 2))]), None),
    ("solve_key_eq_above_n", lambda: solve(None, [(3, (2, 2))]), None),
    ("solve_key_eq_float", lambda: solve(None, [(1.0, (2, 2))]), None),
    ("solve_key_bad_multi_index", lambda: solve(None, [(1, (3, 0))]), None),
    ("solve_key_bool_in_multi_index", lambda: solve(None, [(1, (True, 3))]), None),
    ("solve_key_multi_index_too_long", lambda: solve(None, [(1, (2, 1, 1))]), None),
    ("solve_key_duplicate", lambda: solve(1.0, [(1, (2, 2)), (1, (2, 2))]), None),
    ("solve_k_unknown_too_many_keys", lambda: solve(None, [(1, (4, 0)), (2, (0, 4))]), None),
    ("solve_k_unknown_no_keys", lambda: solve(None, []), None),
    ("solve_k_given_too_few_keys", lambda: solve(1.0, [(1, (4, 0))]), None),
    (
        "solve_k_given_too_many_keys",
        lambda: solve(1.0, [(1, (4, 0)), (2, (0, 4)), (1, (2, 2))]),
        None,
    ),
    (
        "system_exponents_bool",
        lambda: PolynomialSystem(2, 2, coeffs=[[1.0], [0.0]], exponents=[[True, 1]]),
        None,
    ),
    # A basis passed as exponents is not checked again, but it must be one
    # of (n, m): its rows of length n, of degree m.
    (
        "system_basis_of_another_n",
        lambda: PolynomialSystem(2, 2, coeffs=np.ones((2, 15)), exponents=full_basis(3, 4)),
        None,
    ),
    (
        "system_basis_of_another_m",
        lambda: PolynomialSystem(3, 2, coeffs=np.ones((3, 15)), exponents=full_basis(3, 4)),
        None,
    ),
    ("jacobian_dimension_above_bound", lambda: jacobian(wide_system(), np.ones(WIDE), 1.0), None),
    (
        "newton_dimension_above_bound",
        lambda: newton_solve_initial_data(wide_system(), 1.0, np.ones(WIDE)),
        None,
    ),
    (
        "periodize_samples_above_bound",
        lambda: sample_times(pcf().base_period, too_many_samples()),
        lambda: ["periodize", "--omega", "1.0", "--samples", str(too_many_samples() - 1), "--out", "OUT"],
    ),
    # NaN compares False both ways, so a strictly increasing check must
    # refuse it, also as the only time; +-inf increase but are refused too.
    ("trajectory_nan_time", lambda: Trajectory([0.0, np.nan, 1.0], np.zeros((3, 1))), None),
    ("trajectory_single_nan_time", lambda: Trajectory([np.nan], np.zeros((1, 1))), None),
    # Times one-dimensional, states one row per time.
    ("trajectory_times_2d", lambda: Trajectory([[0.0, 1.0]], np.zeros((1, 1))), None),
    ("trajectory_states_1d", lambda: Trajectory([0.0, 1.0], np.zeros(2)), None),
    ("trajectory_states_rows_mismatch", lambda: Trajectory([0.0, 1.0], np.zeros((3, 1))), None),
    ("trajectory_inf_time", lambda: Trajectory([0.0, np.inf], [[1], [1]]), None),
    ("trajectory_minus_inf_time", lambda: Trajectory([-np.inf, 0.0], [[1], [1]]), None),
    # Arrays that numpy cannot convert at all: a string, a complex as a
    # time, a ragged list. Each conversion goes through polysys.as_array.
    ("eval_closed_form_times_str", lambda: eval_closed_form(solution(), ["a"]), None),
    ("eval_periodic_times_str", lambda: eval_periodic_closed_form(pcf(), ["a"]), None),
    ("bracket_values_times_str", lambda: bracket_values(pcf(), ["a"]), None),
    (
        "integrate_t_eval_str",
        lambda: integrate(instance().system, instance().z0, 0.1, t_eval=["a"]),
        None,
    ),
    (
        "integrate_t_eval_complex",
        lambda: integrate(instance().system, instance().z0, 0.1, t_eval=1j),
        None,
    ),
    ("integrate_z0_str", lambda: integrate(instance().system, "a", 0.1), None),
    ("integrate_z0_ragged", lambda: integrate(instance().system, [[0, 1], [2]], 0.1), None),
    ("closed_form_z0_ragged", lambda: ClosedFormSolution([[0, 1], [2]], 0.5, 4), None),
    ("trajectory_times_str", lambda: Trajectory(["a"], np.zeros((1, 1))), None),
    ("trajectory_states_str", lambda: Trajectory([0.0], "a"), None),
]


@pytest.mark.parametrize("call", [row[1] for row in BAD_ARGUMENTS], ids=[row[0] for row in BAD_ARGUMENTS])
def test_bad_argument_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


CLI_FORMS = [row for row in BAD_ARGUMENTS if row[2] is not None]


@pytest.mark.parametrize("argv", [row[2] for row in CLI_FORMS], ids=[row[0] for row in CLI_FORMS])
def test_bad_argument_cli_form_exits_1(tmp_path, capsys, argv):
    path = tmp_path / "instance.json"
    write_instance_file(instance(), path)
    out = tmp_path / "out.csv"
    args = [str(out) if arg == "OUT" else arg for arg in argv()]
    assert main(args[:1] + ["--instance", str(path)] + args[1:]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_newton_dimension_above_bound_exits_1(tmp_path, capsys):
    path = tmp_path / "system.json"
    write_system_file(wide_system(), path)
    guess = ",".join(["1"] * WIDE)
    assert main(["newton", "--system", str(path), "--k", "1", "--guess", guess]) == 1
    assert capsys.readouterr().err.startswith("error: an n x n Jacobian")


@pytest.mark.parametrize(
    "terms, message",
    [
        ([(0, (2, 0))], r"equation index must be an integer in 1\.\.2, got 0"),
        ([(True, (2, 0))], r"equation index must be an integer in 1\.\.2, got True"),
        ([(1, (3, 0))], r"multi-index \[3, 0\] is not 2 nonnegative integers summing to 4"),
        ([5], r"coefficient key 5 is not \(eq, multi-index\)"),
    ],
)
def test_system_mapping_errors_keep_their_message(terms, message):
    # Keys of the ``coefficients`` mapping, given as the unknowns of the
    # selection solve: each bad key is refused in its own words.
    with pytest.raises(ValidationError, match="^" + message):
        solve(None, terms)


def test_malformed_coefficients_keep_their_message():
    with pytest.raises(ValidationError, match="^malformed coefficients: "):
        PolynomialSystem(2, 2, coeffs=[["x"], [0]], exponents=[[2, 0]])


@pytest.mark.parametrize("value", [2, np.int64(7), 10**30])
def test_check_count_returns_an_int(value):
    assert check_count("n", value, 2) == value
    assert type(check_count("n", value, 2)) is int


@pytest.mark.parametrize("value", [1, np.float32(0.5), Fraction(1, 3), 1e308])
def test_check_positive_returns_a_float(value):
    assert check_positive("tol", value) == float(value)
    assert type(check_positive("tol", value)) is float


@pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), 10**400, "1", None, False])
def test_check_positive_refuses(value):
    with pytest.raises(ValidationError, match=r"tol must be finite and positive, got .+"):
        check_positive("tol", value)


@pytest.mark.parametrize("value", [1, -2.5, np.float32(0.5), np.complex128(1 - 2j), Fraction(1, 3)])
def test_check_complex_returns_a_complex(value):
    assert check_complex("K", value) == complex(value)
    assert type(check_complex("K", value)) is complex


@pytest.mark.parametrize("value", [complex("nan"), complex(0, np.inf), 10**400, "1", None, True])
def test_check_complex_refuses(value):
    with pytest.raises(ValidationError, match=r"K must be a finite number, got .+"):
        check_complex("K", value)


@pytest.mark.parametrize("omega", [0, 0.0, -0.0, np.float64(0)])
def test_zero_omega_is_its_own_error(omega):
    with pytest.raises(ZeroOmega):
        PeriodicClosedForm(instance(), omega)
    with pytest.raises(ZeroOmega):
        PeriodicSystem(instance().system, omega)


@pytest.mark.parametrize("rhs, name", [("x", "str"), (None, "NoneType")])
def test_a_non_callable_rhs_is_refused_first(rhs, name):
    # Named before the state is read: the bad z0 here is never converted.
    with pytest.raises(ValidationError, match=f"^system must have kernel\\(\\) and n, got {name}$"):
        integrate(rhs, "not a state", 0.1)


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_a_grid_that_repeats_a_time_names_both_options(tmp_path, capsys, command):
    path = tmp_path / "instance.json"
    write_instance_file(instance(), path)
    argv = [command, "--instance", str(path), "--t-max", "1e-322", "--samples", "64"]
    out = tmp_path / "out.csv"
    assert main(argv + (["--out", str(out)] if command == "eval" else [])) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: 64 sample times on [0, 1e-322] repeat a time")
    assert "--t-max" in error and "--samples" in error
    assert not out.exists()


def test_a_wrong_library_object_names_the_argument_and_its_type():
    with pytest.raises(ValidationError, match=r"^pcf must be a PeriodicClosedForm, got str$"):
        detect_period("x")
