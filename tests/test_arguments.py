"""Bad counts, positive reals and time arrays at every public entry point:
each must raise ValidationError (never an untyped error, never a silent
result), and its CLI form must exit 1 with ``error:``."""

from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from polyode import oracle
from polyode.cli import main
from polyode.closedform import ClosedFormSolution, eval_closed_form
from polyode.constraints import newton_solve_initial_data
from polyode.errors import ValidationError, check_count, check_positive
from polyode.generate import generate_random_instance
from polyode.oracle import IntegratorConfig, integrate, sample_times, verify_instance, verify_periodic
from polyode.periodic import PeriodicClosedForm, detect_period
from polyode.polysys import enumerate_multi_indices
from polyode.serialization import write_instance_file


@cache
def instance():
    return generate_random_instance(2, 4, 42, k_cap=0.1)


def pcf():
    return PeriodicClosedForm(instance(), 1.0)


def solution():
    return ClosedFormSolution.from_instance(instance())


def too_many_samples():
    return oracle.MAX_SAMPLES + 1


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
    (
        "newton_max_iter_float",
        lambda: newton_solve_initial_data(instance().system, instance().k, instance().z0, max_iter=2.5),
        None,
    ),
    ("verify_samples_float", lambda: verify_instance(instance(), 0.1, 2.5), None),
    ("verify_periodic_periods_float", lambda: verify_periodic(pcf(), 1.5, 65), None),
    ("detect_period_tol_str", lambda: detect_period(pcf(), tol="x"), None),
    ("config_rel_tol_bool", lambda: IntegratorConfig(rel_tol=True), None),
    ("closed_form_m_float", lambda: ClosedFormSolution(instance().z0, instance().k, 2.5), None),
    ("closed_form_k_nan", lambda: ClosedFormSolution(instance().z0, complex("nan"), 4), None),
    ("closed_form_k_inf", lambda: ClosedFormSolution(instance().z0, complex("inf"), 4), None),
    ("closed_form_scalar_z0", lambda: ClosedFormSolution(1.0, 0.5, 4), None),
    (
        "integrate_t_eval_2d",
        lambda: integrate(instance().system.rhs, instance().z0, 0.1, t_eval=[[0, 0.05]]),
        None,
    ),
    ("eval_closed_form_times_2d", lambda: eval_closed_form(solution(), [[0, 0.1]]), None),
    (
        "eval_samples_above_bound",
        lambda: sample_times(0.4, too_many_samples()),
        lambda: ["eval", "--t-max", "0.4", "--samples", str(too_many_samples()), "--out", "OUT"],
    ),
    (
        "periodize_samples_above_bound",
        lambda: sample_times(pcf().base_period, too_many_samples()),
        lambda: ["periodize", "--omega", "1.0", "--samples", str(too_many_samples() - 1), "--out", "OUT"],
    ),
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
