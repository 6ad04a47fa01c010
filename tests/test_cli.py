import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyode import cli, errors, oracle
from polyode.cli import build_parser, main
from polyode.constraints import (
    NEWTON_TOL,
    RESIDUAL_TOL,
    SolvableInstance,
    constraint_residual,
    newton_solve_initial_data,
)
from polyode.generate import generate_random_instance
from polyode.oracle import MAX_DEVIATION, MAX_SAMPLES, sample_times
from polyode.periodic import CLOSURE_TOL, PeriodicClosedForm, eval_periodic_closed_form
from polyode.serialization import (
    instance_to_dict,
    parse_instance_file,
    parse_system_file,
    write_instance_file,
    write_system_file,
)
from polyode.polysys import PolynomialSystem

from test_constraints import diagonal_system_64
from test_periodic import _instance_with_k
from test_serialization import old_layout, read_trajectory, reference_write_trajectory_csv

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def instance_file(tmp_path):
    instance = generate_random_instance(2, 4, 42)
    path = tmp_path / "instance.json"
    write_instance_file(instance, path)
    return path, instance


def test_enumerate(capsys):
    assert main(["enumerate", "--n", "2", "--m", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["4-0", "3-1", "2-2", "1-3", "0-4"]


def test_enumerate_validation_error():
    assert main(["enumerate", "--n", "0", "--m", "4"]) == 1


def test_solve_with_k_unknown(tmp_path, capsys):
    system = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
    sys_path = tmp_path / "system.json"
    write_system_file(system, sys_path)
    code = main(
        [
            "solve",
            "--system", str(sys_path),
            "--z0", "1,1",
            "--unknowns", "K,c:2:0-2",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"][0] == pytest.approx(-1)


def test_solve_singular_exit_code(tmp_path):
    system = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
    sys_path = tmp_path / "system.json"
    write_system_file(system, sys_path)
    code = main(
        [
            "solve",
            "--system", str(sys_path),
            "--z0", "0,0",
            "--unknowns", "c:1:0-2,c:2:0-2",
            "--k", "1",
        ]
    )
    assert code == 3


SOLVE_EXIT_CODES = [
    ("K,c:2:0-2", None, 0),
    ("c:2:0-2,K", None, 0),
    ("c:1:0-2,c:2:0-2", "1", 0),
    ("K,c:2:0-2", "1", 1),  # K listed and given
    ("c:1:0-2,c:2:0-2", None, 1),  # K neither listed nor given
    ("K,K", None, 1),
    ("K", None, 1),  # too few
    ("K,c:1:0-2,c:2:0-2", None, 1),  # too many
    ("c:2:0-2", "1", 1),  # too few
    ("c:1:0-2,c:2:0-2,c:2:1-1", "1", 1),  # too many
    ("c:1:0-2,c:1:0-2", "1", 1),  # duplicate key
    ("K,c:0:0-2", None, 1),
    ("K,c:3:0-2", None, 1),
    ("K,c:1:3-0", None, 1),  # exponents do not sum to M
    ("K,c:1:1-0-1", None, 1),  # multi-index of the wrong length
]


@pytest.mark.parametrize("unknowns,k,code", SOLVE_EXIT_CODES)
def test_solve_exit_codes(tmp_path, capsys, unknowns, k, code):
    sys_path = tmp_path / "system.json"
    write_system_file(
        PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 0.5]], exponents=[[2, 0], [1, 1]]), sys_path
    )
    argv = ["solve", "--system", str(sys_path), "--z0", "1,0.5", "--unknowns", unknowns]
    assert main(argv + (["--k", k] if k is not None else [])) == code
    assert capsys.readouterr().err.startswith("error: ") == (code != 0)


def test_solve_places_k_first_wherever_it_is_listed(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    write_system_file(
        PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 0.5]], exponents=[[2, 0], [1, 1]]), sys_path
    )
    outputs = []
    for unknowns in ("K,c:2:0-2", "c:2:0-2,K"):
        argv = ["solve", "--system", str(sys_path), "--z0", "1,0.5", "--unknowns", unknowns]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_newton(tmp_path):
    system = PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 2.0]], exponents=[[2, 0], [0, 2]])
    sys_path = tmp_path / "system.json"
    write_system_file(system, sys_path)
    out_path = tmp_path / "instance.json"
    code = main(
        [
            "newton",
            "--system", str(sys_path),
            "--k", "1",
            "--guess=-0.9,-0.4",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    instance = parse_instance_file(out_path)
    np.testing.assert_allclose(instance.z0, [-1.0, -0.5], atol=1e-9)


def test_newton_writes_no_instance_that_misses_the_residual_bound(tmp_path, capsys):
    # Newton stops at a residual of at most 1e-2, far above the one bound
    # every instance meets.
    system = PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 2.0]], exponents=[[2, 0], [0, 2]])
    sys_path = tmp_path / "system.json"
    write_system_file(system, sys_path)
    out_path = tmp_path / "instance.json"
    args = ["--system", str(sys_path), "--k", "1", "--guess=-0.9,-0.4", "--out", str(out_path)]
    assert main(["newton", *args, "--tol", "1e-2"]) == 1
    assert "constraint residual" in capsys.readouterr().err
    assert not out_path.exists()


def test_newton_singular_jacobian_exit_code(tmp_path, capsys):
    # The guess makes the Jacobian exactly zero (see test_constraints).
    sys_path = tmp_path / "system.json"
    write_system_file(
        PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 2.0]], exponents=[[2, 0], [0, 2]]), sys_path
    )
    out_path = tmp_path / "instance.json"
    args = ["--system", str(sys_path), "--k", "1", "--guess=-0.5,-0.25", "--out", str(out_path)]
    assert main(["newton", *args]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out_path.exists()


@pytest.mark.parametrize("guess", ["1e200,1e200", "1e120,1", "1e150,1e-150"])
def test_newton_overflowing_guess_exit_code(tmp_path, capsys, guess):
    # The system of `polyode gen --n 2 --m 3 --seed 1`: the residual or the
    # trial states overflow, which is NoConvergence, not a warning.
    sys_path = tmp_path / "system.json"
    write_system_file(generate_random_instance(2, 3, 1).system, sys_path)
    assert main(["newton", "--system", str(sys_path), "--k", "1", f"--guess={guess}"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert captured.out == ""


def test_newton_rank_deficient_jacobian_at_n_64(tmp_path, capsys):
    # With K = 1, z_1 = -0.5 zeroes one Jacobian entry (see test_constraints).
    sys_path = tmp_path / "system.json"
    write_system_file(diagonal_system_64(), sys_path)
    guess = ",".join(["-0.5"] + ["1"] * 63)
    assert main(["newton", "--system", str(sys_path), "--k", "1", f"--guess={guess}"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "rank 63 < 64" in err[0], err


def test_parser_defaults_are_the_library_names():
    # The acceptance bounds of the north star, each defined once.
    assert (MAX_DEVIATION, CLOSURE_TOL, RESIDUAL_TOL) == (1e-6, 1e-8, 1e-10)
    parser = build_parser()
    # Options that restate a library argument's default keep its value.
    library = {
        name: parameter.default
        for function in (newton_solve_initial_data, generate_random_instance)
        for name, parameter in inspect.signature(function).parameters.items()
    }
    newton = parser.parse_args(["newton", "--system", "s.json", "--k", "1", "--guess", "1"])
    assert newton.tol == library["tol"]
    assert library["tol"] == NEWTON_TOL
    gen = parser.parse_args(["gen", "--n", "2", "--m", "2", "--seed", "0"])
    assert gen.density == library["density"]


def test_eval_and_reload(tmp_path, instance_file):
    path, instance = instance_file
    out = tmp_path / "traj.csv"
    code = main(
        ["eval", "--instance", str(path), "--t-max", "0.4", "--samples", "33", "--out", str(out)]
    )
    assert code == 0
    times, states = read_trajectory(out)
    assert times.size == 33
    np.testing.assert_array_equal(states[0], instance.z0)


def test_verify(instance_file, capsys):
    path, _ = instance_file
    code = main(["verify", "--instance", str(path), "--t-max", "0.4", "--samples", "32"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_deviation"] < 1e-6
    assert report["samples"] == 32


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--t-max", "nan"],
        ["verify", "--t-max", "inf"],
        ["verify", "--t-max", "0.4", "--samples", "0"],
        ["verify", "--t-max", "0.4", "--samples", "1"],
        ["eval", "--t-max", "0.4", "--samples", "0", "--out", "unused.csv"],
        # Options that no longer exist are refused like any unknown option.
        ["verify", "--t-max", "0.4", "--rel-tol", "nan"],
        ["verify", "--t-max", "0.4", "--rel-tol", "inf"],
        ["verify", "--t-max", "0.4", "--abs-tol", "nan"],
        ["verify", "--t-max", "0.4", "--abs-tol", "inf"],
        ["verify", "--t-max", "0.4", "--max-dev", "nan"],
        ["verify", "--t-max", "0.4", "--max-dev", "inf"],
        ["verify", "--t-max", "0.4", "--max-dev", "0"],
        # A malformed command line exits 1: argparse's 2 would read as a
        # failed check.
        ["verify", "--t-max", "0.4", "--samples", "x"],
        ["verify", "--samples", "8"],
        ["verify", "--t-max", "0.4", "--bogus", "1"],
    ],
)
def test_bad_times_and_samples_are_validation_errors(instance_file, capsys, args):
    path, _ = instance_file
    assert main(args[:1] + ["--instance", str(path)] + args[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_tolerance_failure(tmp_path, capsys):
    # A generated draw the oracle cannot follow to 1e-6 over [0, 0.8]: the
    # check fails against the fixed MAX_DEVIATION, with no option set.
    path = tmp_path / "instance.json"
    assert main(["gen", "--n", "3", "--m", "4", "--seed", "66", "--out", str(path)]) == 0
    assert main(["verify", "--instance", str(path), "--t-max", "0.8"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["max_deviation"] == pytest.approx(2.46e-4, rel=0.01)


def test_verify_past_the_stability_limit(tmp_path, capsys):
    # The solution decays, so the step grows until a trial step overflows
    # its stages. That step is rejected and h shrinks; numpy's overflow
    # warnings stay off stderr.
    path = tmp_path / "instance.json"
    assert main(["gen", "--n", "2", "--m", "3", "--seed", "5", "--out", str(path)]) == 0
    assert main(["verify", "--instance", str(path), "--t-max", "1e30"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["max_deviation"] <= MAX_DEVIATION


def test_verify_exits_2_when_the_oracle_gives_up(tmp_path, capsys, monkeypatch):
    # The oracle stops before t_end, so the check has failed, as a Newton
    # solve that does not converge has. A step history of 512 entries (32
    # steps at n = 2) is spent long before t = 1e30.
    path = tmp_path / "instance.json"
    assert main(["gen", "--n", "2", "--m", "3", "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(oracle, "MAX_HISTORY", 512)
    assert main(["verify", "--instance", str(path), "--t-max", "1e30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: step history exceeds 512 entries")


@pytest.mark.parametrize("t_max", ["1e-13", "1e-300"])
def test_verify_over_a_window_shorter_than_the_least_step(tmp_path, capsys, t_max):
    path = tmp_path / "instance.json"
    assert main(["gen", "--n", "2", "--m", "3", "--seed", "5", "--out", str(path)]) == 0
    assert main(["verify", "--instance", str(path), "--t-max", t_max]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["max_deviation"] <= MAX_DEVIATION


@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polyode")


def test_periodize_and_period(tmp_path, capsys):
    instance = generate_random_instance(2, 4, 42, k_cap=0.1)
    path = tmp_path / "instance.json"
    write_instance_file(instance, path)

    out = tmp_path / "zeta.csv"
    assert main(["periodize", "--instance", str(path), "--omega", "1.0", "--out", str(out)]) == 0
    times, states = read_trajectory(out)
    assert times[-1] == pytest.approx(2 * np.pi)
    capsys.readouterr()

    assert main(["period", "--instance", str(path), "--omega", "1.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 3
    assert report["closure_error"] < 1e-8


@pytest.mark.parametrize("seed, q", [(2, 1), (1, -1)])
def test_period_and_periodize_of_a_winding_trajectory(tmp_path, capsys, seed, q):
    # The bracket circle encloses 0, so q = sgn(omega), exactly when omega
    # lies strictly between 0 and 2 Im K; omega = Im K is such a value.
    instance = generate_random_instance(2, 4, seed)
    omega = instance.k.imag
    assert np.sign(omega) == q
    path = tmp_path / "instance.json"
    write_instance_file(instance, path)
    args = ["--instance", str(path), f"--omega={omega!r}"]
    assert main(["period", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["q"], report["k"]) == (q, 1)
    assert report["closure_error"] <= CLOSURE_TOL

    out, ref = tmp_path / "zeta.csv", tmp_path / "ref.csv"
    assert main(["periodize", *args, "--samples", "4096", "--out", str(out)]) == 0
    pcf = PeriodicClosedForm(instance, omega)
    zeta = eval_periodic_closed_form(pcf, sample_times(pcf.base_period, 4097))
    reference_write_trajectory_csv(zeta, ref, periodic=True)
    assert out.read_bytes() == ref.read_bytes()
    times, states = read_trajectory(out)
    assert times.tobytes() == zeta.times.tobytes()
    assert states.tobytes() == zeta.states.tobytes()


@pytest.mark.parametrize(
    "args",
    [
        ["period", "--omega", "nan"],
        ["period", "--omega", "inf"],
        # period has no --tol: the closure bound is fixed.
        ["period", "--omega", "1.0", "--tol", "nan"],
        ["period", "--omega", "1.0", "--tol", "-1"],
        ["periodize", "--omega", "1.0", "--samples", "0", "--out", "unused.csv"],
        ["periodize", "--omega", "1.0", "--samples", "-3", "--out", "unused.csv"],
    ],
)
def test_bad_omega_tol_and_samples_are_validation_errors(tmp_path, capsys, args):
    path = tmp_path / "instance.json"
    write_instance_file(generate_random_instance(2, 4, 42, k_cap=0.1), path)
    out = tmp_path / "unused.csv"
    args = [str(out) if arg == "unused.csv" else arg for arg in args]
    assert main(args[:1] + ["--instance", str(path)] + args[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if "--samples" in args:
        assert f"got {args[args.index('--samples') + 1]}\n" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["period", "periodize"])
def test_a_bracket_circle_through_zero_is_singular(tmp_path, capsys, command):
    # K = i/2 with omega = 1: the bracket circle passes through the origin.
    path = tmp_path / "instance.json"
    write_instance_file(_instance_with_k(0.5j), path)
    out = tmp_path / "zeta.csv"
    args = ["--instance", str(path), "--omega", "1.0"]
    if command == "periodize":
        args += ["--out", str(out)]
    assert main([command, *args]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bracket circle passes within")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_periodize_refuses_one_sample_past_the_grid_bound(tmp_path, capsys):
    # The grid holds samples + 1 times, so the largest count is MAX_SAMPLES - 1.
    path = tmp_path / "instance.json"
    write_instance_file(generate_random_instance(2, 4, 42, k_cap=0.1), path)
    out = tmp_path / "zeta.csv"
    args = ["--instance", str(path), "--omega", "1.0", "--out", str(out)]
    assert main(["periodize", *args, "--samples", str(MAX_SAMPLES)]) == 1
    message = f"error: samples must be <= {MAX_SAMPLES - 1}, got {MAX_SAMPLES}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--n", "2", "--m", "4", "--seed", "1", "--out", str(a)]) == 0
    assert main(["gen", "--n", "2", "--m", "4", "--seed", "1", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    instance = parse_instance_file(a)
    assert np.abs(constraint_residual(instance.system, instance.z0, instance.k)).max() < 1e-10


def test_gen_density(tmp_path):
    out = tmp_path / "sparse.json"
    assert main(
        ["gen", "--n", "3", "--m", "3", "--seed", "7", "--density", "0.3", "--out", str(out)]
    ) == 0
    instance = parse_instance_file(out)
    assert np.abs(constraint_residual(instance.system, instance.z0, instance.k)).max() < 1e-10


def test_gen_draws_again_when_the_solve_misses_the_tolerance(tmp_path):
    # The first draw of (2, 40) seed 0 solves to a residual above 1e-10 of
    # its scale; the file holds the next attempt's instance, which reads back.
    out = tmp_path / "instance.json"
    assert main(["gen", "--n", "2", "--m", "40", "--seed", "0", "--out", str(out)]) == 0
    assert parse_instance_file(out).system.m == 40


def test_demo_example1(tmp_path, capsys):
    out_dir = tmp_path / "demo1"
    assert main(["demo", "example1", "--out-dir", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_deviation"] < 1e-6
    for name in ("system.json", "instance.json", "closed_form.csv", "integrated.csv", "verify.json"):
        assert (out_dir / name).exists()
    # Every emitted file re-parses, the documents to the demo's instance
    # bit for bit.
    read_trajectory(out_dir / "closed_form.csv")
    read_trajectory(out_dir / "integrated.csv")
    expected = generate_random_instance(2, 4, 101)
    instance = parse_instance_file(out_dir / "instance.json")
    system = parse_system_file(out_dir / "system.json")
    for got in (instance.system, system):
        assert got.coeffs.tobytes() == expected.system.coeffs.tobytes()
        assert np.array_equal(got.exponents, expected.system.exponents)
    assert instance.z0.tobytes() == expected.z0.tobytes()
    assert np.complex128(instance.k).tobytes() == np.complex128(expected.k).tobytes()


def test_demo_example2(tmp_path, capsys):
    out_dir = tmp_path / "demo2"
    assert main(["demo", "example2", "--out-dir", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["k_multiple"] == 3
    assert summary["periodic_deviation"] < 1e-6
    assert summary["max_real_residual"] < 1e-10
    for name in ("zeta.csv", "period.json", "verify_periodic.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "period.json").read_text())
    assert report["k"] == 3


def test_the_runtime_needs_numpy_alone(tmp_path):
    # pyproject.toml declares numpy alone; scipy and hypothesis are installed
    # for the tests only, so the CLI must run with both unimportable. The
    # demo never calls Newton, whose step is numpy's LAPACK least squares.
    sys_path, out_path = tmp_path / "system.json", tmp_path / "instance.json"
    write_system_file(
        PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 2.0]], exponents=[[2, 0], [0, 2]]), sys_path
    )
    newton = ["newton", "--system", str(sys_path), "--k", "1", "--guess=-0.9,-0.4",
              "--out", str(out_path)]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
        "from polyode.cli import main\n"
        f"assert main({newton!r}) == 0\n"
        f"sys.exit(main(['demo', 'example2', '--out-dir', {str(tmp_path / 'demo')!r}]))\n"
    )
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=50
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["k_multiple"] == 3
    np.testing.assert_allclose(parse_instance_file(out_path).z0, [-1.0, -0.5], atol=1e-9)


def test_missing_file_exit_code(tmp_path):
    assert main(["verify", "--instance", str(tmp_path / "nope.json"), "--t-max", "0.5"]) == 1


def test_undecodable_instance_file_is_an_error_line(tmp_path):
    path = tmp_path / "instance.json"
    path.write_bytes(b"\xff\xfe{")
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["verify", "--instance", str(path), "--t-max", "0.1"]
    result = subprocess.run(
        [sys.executable, "-m", "polyode.cli", *argv],
        capture_output=True, text=True, env=env, timeout=50,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {path}: not valid JSON"), result.stderr


def test_overflowing_solve_is_one_error_line(tmp_path):
    # The monomials of z0 = (1e300, 1) overflow at M = 3. The solve ends in
    # the error of a non-finite coefficient, with no numpy warning before it.
    path = tmp_path / "system.json"
    write_system_file(generate_random_instance(2, 3, 5).system, path)
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["solve", "--system", str(path), "--z0", "1e300,1",
            "--unknowns", "c:1:3-0,c:2:0-3", "--k", "1"]
    result = subprocess.run(
        [sys.executable, "-m", "polyode.cli", *argv],
        capture_output=True, text=True, env=env, timeout=50,
    )
    assert result.returncode == 1
    assert result.stderr == "error: coefficients contain non-finite values\n", result.stderr


# The documented exit code of every error class: 1 validation, 2 tolerance,
# 3 singularity.
EXIT_CODES = {
    errors.PolyOdeError: 1,
    errors.ValidationError: 1,
    errors.ConstraintNotSatisfied: 1,
    errors.NegativeTime: 1,
    errors.ZeroOmega: 1,
    errors.GridTooCoarse: 1,
    errors.MaxStepsExceeded: 2,
    errors.NoConvergence: 2,
    errors.NotClosed: 2,
    errors.SingularSystem: 3,
    errors.SingularJacobian: 3,
    errors.SingularTime: 3,
    errors.SingularBracket: 3,
    errors.StepUnderflow: 3,
}


def test_every_error_class_has_a_documented_exit_code():
    defined = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    assert defined == set(EXIT_CODES)
    assert {cls: cls.exit_code for cls in defined} == EXIT_CODES


@pytest.mark.parametrize(
    "error, code",
    [(cls("boom"), code) for cls, code in EXIT_CODES.items()] + [(OSError("boom"), 1)],
    ids=[cls.__name__ for cls in EXIT_CODES] + ["OSError"],
)
def test_main_exits_with_the_error_class_code(monkeypatch, capsys, error, code):
    def command(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_enumerate", command)
    assert main(["enumerate", "--n", "2", "--m", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 1


@pytest.mark.parametrize("command", ["verify", "eval"])
@pytest.mark.parametrize("t_max", ["1.0", "1.5", "0.99999999999999"])
def test_a_window_past_blow_up_is_singular(tmp_path, capsys, command, t_max):
    # z1' = z1^2 from z0 = (1, 0) with K = -1 blows up at t* = 1. The closed
    # form refuses the window before any integration, so verify names the
    # blow-up time, even just below t*, and exits 3 as eval does.
    system = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
    riccati = SolvableInstance(system, [1, 0], -1)
    path, out = tmp_path / "riccati.json", tmp_path / "out.csv"
    write_instance_file(riccati, path)
    extra = ["--out", str(out)] if command == "eval" else []
    assert main([command, "--instance", str(path), "--t-max", t_max] + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "blow-up time t*=1.0" in captured.err
    assert not out.exists()


def edited_instance(tmp_path, edit, raw="null"):
    """The instance file of generate_random_instance(2, 4, 42, k_cap=0.1),
    with ``edit`` applied to its document; a field set to the string "RAW"
    is written as the JSON text ``raw``."""
    doc = instance_to_dict(generate_random_instance(2, 4, 42, k_cap=0.1))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc).replace('"RAW"', raw))
    return path


COMMANDS_ON_AN_INSTANCE = [
    ["verify", "--t-max", "0.4"],
    ["eval", "--t-max", "0.4", "--out", "unused.csv"],
    ["period", "--omega", "1.0"],
]


def run_on_instance(command, path, tmp_path):
    """Exit code of ``command`` run on the instance file ``path``."""
    argv = [str(tmp_path / "out.csv") if arg == "unused.csv" else arg for arg in command]
    return main(argv[:1] + ["--instance", str(path)] + argv[1:])


@pytest.mark.parametrize("args", COMMANDS_ON_AN_INSTANCE)
@pytest.mark.parametrize("k", ["NaN", "1e400"])
def test_non_finite_k_is_a_validation_error(tmp_path, capsys, args, k):
    path = edited_instance(tmp_path, lambda d: d.update(k=["RAW", 0.0]), raw=k)
    assert run_on_instance(args, path, tmp_path) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "edit,raw",
    [
        (lambda d: d.update(coeffs="RAW"), "5"),
        (lambda d: _set(d, ("exponents", 0, 0), "RAW"), "1e400"),
        (lambda d: _set(d, ("exponents", 0, 1), "RAW"), "true"),
        (lambda d: d.update(n="RAW"), "1e400"),
        (lambda d: d.update(n="RAW"), "2.7"),
        (lambda d: _set(d, ("exponents", 0), "RAW"), "[2.5, 1.5]"),
        (lambda d: _set(d, ("exponents", 0), "RAW"), "[4.0, 0.0]"),
    ],
)
def test_lax_documents_are_validation_errors(tmp_path, capsys, edit, raw):
    path = edited_instance(tmp_path, edit, raw)
    assert main(["verify", "--instance", str(path), "--t-max", "0.4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: (n|coeffs|exponents) ", captured.err), captured.err


def test_old_layout_document_is_refused(tmp_path, capsys):
    path = edited_instance(tmp_path, old_layout)
    assert main(["verify", "--instance", str(path), "--t-max", "0.4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a JSON object with key 'exponents'\n"


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--n", "2", "--m", "2", "--seed", "-1"],
        ["gen", "--n", "2", "--m", "1500", "--seed", "0"],
        ["enumerate", "--n", "2", "--m", "1500"],
    ],
)
def test_seed_and_size_are_validation_errors(capsys, args):
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_newton_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    path = tmp_path / "system.json"
    write_system_file(
        PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 2.0]], exponents=[[2, 0], [0, 2]]), path
    )
    args = ["newton", "--system", str(path), "--k", "1", "--guess=-0.9,-0.4", "--tol", tol]
    assert main(args) == 1
    assert "tol must be finite and positive" in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


FIELDS = [
    ("n",), ("m",), ("exponents",), ("coeffs",), ("z0",), ("k",), ("extra",),
    ("exponents", 0), ("exponents", 0, 1), ("exponents", 4, 0),
    ("coeffs", 0), ("coeffs", 1, 0), ("coeffs", 0, 1, 4), ("coeffs", 1, 0, 2),
    ("z0", 0), ("z0", 1), ("z0", 1, 0), ("k", 0), ("k", 1),
]


def test_every_fuzzed_field_is_in_the_document(tmp_path):
    # A path the document lacks would be skipped by the fuzz test below.
    text = edited_instance(tmp_path, lambda d: None).read_text()
    for path in FIELDS:
        _set(json.loads(text), path, None)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    edits=st.lists(st.tuples(st.sampled_from(FIELDS), JSON_VALUES), min_size=1, max_size=3),
    command=st.sampled_from(COMMANDS_ON_AN_INSTANCE),
)
def test_fuzz_malformed_instance_documents(tmp_path, capsys, edits, command):
    def edit(doc):
        for path, value in edits:
            try:
                _set(doc, path, value)
            except (KeyError, IndexError, TypeError):
                pass

    path = edited_instance(tmp_path, edit)
    assert run_on_instance(command, path, tmp_path) in {0, 1, 2, 3}
    assert "Traceback" not in capsys.readouterr().err


NUMBERS = ["0", "-1", "1", "2", "2.5", "nan", "inf", "-inf", "1e400", "1e-300", "x", ""]

NUMERIC_COMMANDS = [
    ["verify", "--instance", "INSTANCE", "--t-max", "0.2", "--samples", "8"],
    ["eval", "--instance", "INSTANCE", "--t-max", "0.2", "--samples", "8", "--out", "OUT"],
    ["periodize", "--instance", "INSTANCE", "--omega", "1", "--samples", "8", "--out", "OUT"],
    ["period", "--instance", "INSTANCE", "--omega", "1"],
    ["gen", "--n", "2", "--m", "3", "--seed", "0", "--density", "0.5"],
    ["enumerate", "--n", "2", "--m", "3"],
    ["newton", "--system", "SYSTEM", "--k", "1", "--guess", "-0.9,-0.4", "--tol", "1e-12"],
    ["solve", "--system", "SYSTEM", "--z0", "1,1", "--unknowns", "K,c:2:0-2"],
]


@pytest.mark.parametrize("command", NUMERIC_COMMANDS, ids=[c[0] for c in NUMERIC_COMMANDS])
def test_fuzz_numeric_arguments(tmp_path, capsys, command):
    """Every numeric option of the command, set in turn to each of NUMBERS
    (the complex lists to that value and 1), ends in a documented exit
    code without a traceback."""
    files = {
        "INSTANCE": tmp_path / "instance.json",
        "SYSTEM": tmp_path / "system.json",
        "OUT": tmp_path / "out.csv",
    }
    write_instance_file(generate_random_instance(2, 4, 42, k_cap=0.1), files["INSTANCE"])
    system = PolynomialSystem(2, 2, coeffs=[[1.0, 0], [0, 2.0]], exponents=[[2, 0], [0, 2]])
    write_system_file(system, files["SYSTEM"])
    command = [str(files.get(arg, arg)) for arg in command]
    numeric = [i for i in range(2, len(command), 2) if command[i - 1] not in
               ("--instance", "--system", "--out", "--unknowns")]
    for i in numeric:
        for number in NUMBERS:
            value = f"{number},1" if command[i - 1] in ("--z0", "--guess") else number
            argv = command[:i - 1] + [f"{command[i - 1]}={value}"] + command[i + 1:]
            assert main(argv) in {0, 1, 2, 3}, argv
            assert "Traceback" not in capsys.readouterr().err, argv
