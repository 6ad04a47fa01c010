import json

import numpy as np
import pytest

from polyode.cli import main
from polyode.generate import generate_random_instance
from polyode.serialization import (
    parse_instance_file,
    read_trajectory_csv,
    write_instance_file,
    write_system_file,
)
from polyode.polysys import PolynomialSystem


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
    system = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})
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
    system = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0})
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


def test_newton(tmp_path):
    system = PolynomialSystem(2, 2, {(1, (2, 0)): 1.0, (2, (0, 2)): 2.0})
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


def test_eval_and_reload(tmp_path, instance_file):
    path, instance = instance_file
    out = tmp_path / "traj.csv"
    code = main(
        ["eval", "--instance", str(path), "--t-max", "0.4", "--samples", "33", "--out", str(out)]
    )
    assert code == 0
    times, states = read_trajectory_csv(out)
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
    ],
)
def test_bad_times_and_samples_are_validation_errors(instance_file, capsys, args):
    path, _ = instance_file
    assert main(args[:1] + ["--instance", str(path)] + args[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_tolerance_failure(instance_file):
    path, _ = instance_file
    code = main(
        ["verify", "--instance", str(path), "--t-max", "0.4", "--max-dev", "1e-18"]
    )
    assert code == 2


def test_periodize_and_period(tmp_path, capsys):
    instance = generate_random_instance(2, 4, 42, k_cap=0.1)
    path = tmp_path / "instance.json"
    write_instance_file(instance, path)

    out = tmp_path / "zeta.csv"
    assert main(["periodize", "--instance", str(path), "--omega", "1.0", "--out", str(out)]) == 0
    times, states = read_trajectory_csv(out)
    assert times[-1] == pytest.approx(2 * np.pi)
    capsys.readouterr()

    assert main(["period", "--instance", str(path), "--omega", "1.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 3
    assert report["closure_error"] < 1e-8


@pytest.mark.parametrize(
    "args",
    [
        ["period", "--omega", "nan"],
        ["period", "--omega", "inf"],
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


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--n", "2", "--m", "4", "--seed", "1", "--out", str(a)]) == 0
    assert main(["gen", "--n", "2", "--m", "4", "--seed", "1", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    instance = parse_instance_file(a)
    assert np.abs(instance.residual()).max() < 1e-10


def test_gen_density(tmp_path):
    out = tmp_path / "sparse.json"
    assert main(
        ["gen", "--n", "3", "--m", "3", "--seed", "7", "--density", "0.3", "--out", str(out)]
    ) == 0
    instance = parse_instance_file(out)
    assert np.abs(instance.residual()).max() < 1e-10


def test_demo_example1(tmp_path, capsys):
    out_dir = tmp_path / "demo1"
    assert main(["demo", "example1", "--out-dir", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_deviation"] < 1e-6
    for name in ("system.json", "instance.json", "closed_form.csv", "integrated.csv", "verify.json"):
        assert (out_dir / name).exists()
    # Every emitted file re-parses.
    parse_instance_file(out_dir / "instance.json")
    read_trajectory_csv(out_dir / "closed_form.csv")
    read_trajectory_csv(out_dir / "integrated.csv")


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


def test_missing_file_exit_code(tmp_path):
    assert main(["verify", "--instance", str(tmp_path / "nope.json"), "--t-max", "0.5"]) == 1
