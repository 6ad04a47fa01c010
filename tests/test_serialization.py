import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyode import serialization
from polyode.errors import ConstraintNotSatisfied, ValidationError
from polyode.generate import generate_random_instance
from polyode.serialization import (
    instance_from_dict,
    instance_to_dict,
    parse_instance_file,
    parse_system_file,
    system_from_dict,
    write_instance_file,
    write_system_file,
    write_trajectory_csv,
)
from polyode.trajectory import Trajectory

from test_polysys import random_system


class TestSystemFormat:
    def test_minimal_round_trip(self, tmp_path):
        doc = {
            "n": 2,
            "m": 2,
            "coefficients": [{"eq": 1, "exponents": [2, 0], "re": 1.0, "im": 0.0}],
        }
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        system = parse_system_file(path)
        assert system.coefficients == {(1, (2, 0)): 1 + 0j}

    @pytest.mark.parametrize("n,m,density", [(2, 4, 1.0), (3, 3, 0.4), (4, 2, 0.7)])
    def test_document_lists_the_coefficients_mapping_in_order(self, n, m, density):
        # The writer reads the arrays; the mapping is the reference for the
        # entries' order, keys and value bits.
        system = random_system(np.random.default_rng(n * 10 + m), n, m, density)
        expected = [
            {"eq": eq, "exponents": list(index), "re": value.real, "im": value.imag}
            for (eq, index), value in system.coefficients.items()
        ]
        document = serialization.system_to_dict(system)
        assert json.dumps(document["coefficients"]) == json.dumps(expected)

    def test_rejects_wrong_exponent_sum(self, tmp_path):
        doc = {
            "n": 2,
            "m": 4,
            "coefficients": [{"eq": 1, "exponents": [3, 0], "re": 1.0, "im": 0.0}],
        }
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            parse_system_file(path)

    def test_rejects_duplicate_keys(self):
        doc = {
            "n": 2,
            "m": 2,
            "coefficients": [
                {"eq": 1, "exponents": [2, 0], "re": 1.0, "im": 0.0},
                {"eq": 1, "exponents": [2, 0], "re": 2.0, "im": 0.0},
            ],
        }
        with pytest.raises(ValidationError):
            system_from_dict(doc)

    def test_rejects_small_n(self):
        with pytest.raises(ValidationError):
            system_from_dict({"n": 1, "m": 4, "coefficients": []})

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text("not json")
        with pytest.raises(ValidationError):
            parse_system_file(path)

    def test_random_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        system = random_system(rng, 2, 4)
        path = tmp_path / "sys.json"
        write_system_file(system, path)
        again = parse_system_file(path)
        assert again.coefficients == system.coefficients
        assert (again.n, again.m) == (system.n, system.m)


class TestStrictReader:
    """Only JSON integers (not bools) are read as n, m, eq and exponents,
    and only JSON numbers as real and imaginary parts."""

    def doc(self):
        return {
            "n": 2,
            "m": 4,
            "coefficients": [{"eq": 1, "exponents": [4, 0], "re": 1.0, "im": 0.0}],
        }

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(n=2.7),
            lambda d: d.update(n=1e400),
            lambda d: d.update(m=True),
            lambda d: d.update(coefficients=5),
            lambda d: d.update(coefficients=[7]),
            lambda d: d["coefficients"][0].update(eq=True),
            lambda d: d["coefficients"][0].update(eq=1e400),
            lambda d: d["coefficients"][0].update(exponents=[2.5, 1.5]),
            lambda d: d["coefficients"][0].update(exponents="40"),
            lambda d: d["coefficients"][0].update(re="1.0"),
            lambda d: d["coefficients"][0].update(im=10**400),
            lambda d: d["coefficients"][0].pop("im"),
            lambda d: d.pop("n"),
        ],
    )
    def test_rejects_non_integer_fields(self, edit):
        doc = self.doc()
        edit(doc)
        with pytest.raises(ValidationError):
            system_from_dict(doc)

    @pytest.mark.parametrize(
        "z0,k",
        [([[1, 0]], [0, 0]), ([[1, 0], [0]], [0, 0]), ([[1, 0], [0, 1]], [0]),
         ([[1, 0], [0, 1]], [True, 0]), ([[1, 0], [0, 1]], "0"), ([[1, 0], [0, 1]], [10**400, 0])],
    )
    def test_rejects_malformed_initial_data_and_k(self, z0, k):
        doc = dict(self.doc(), coefficients=[], z0=z0, k=k)
        with pytest.raises(ValidationError):
            serialization.instance_from_dict(doc)

    def test_writer_bytes_survive_a_read(self, tmp_path):
        path = tmp_path / "inst.json"
        for n, m, seed in [(2, 4, 23), (3, 3, 1)]:
            write_instance_file(generate_random_instance(n, m, seed, density=0.6), path)
            text = path.read_bytes()
            write_instance_file(parse_instance_file(path), path)
            assert path.read_bytes() == text


class TestInstanceFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        instance = generate_random_instance(2, 4, 23)
        path = tmp_path / "inst.json"
        write_instance_file(instance, path)
        again = parse_instance_file(path)
        assert np.array_equal(again.z0, instance.z0)
        assert again.k == instance.k
        assert again.system.coefficients == instance.system.coefficients

    def test_in_memory_round_trip_bit_exact(self):
        instance = generate_random_instance(3, 4, 23)
        again = instance_from_dict(instance_to_dict(instance))
        assert again.z0.tobytes() == instance.z0.tobytes()
        assert np.complex128(again.k).tobytes() == np.complex128(instance.k).tobytes()
        assert again.system.coeffs.tobytes() == instance.system.coeffs.tobytes()
        assert np.array_equal(again.system.exponents, instance.system.exponents)

    def test_written_on_one_line_and_read_in_any_layout(self, tmp_path):
        instance = generate_random_instance(3, 3, 7, density=0.6)
        path = tmp_path / "inst.json"
        write_instance_file(instance, path)
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc) + "\n"
        assert "\n" not in text[:-1]
        for layout in (dict(indent=2), dict(indent="\t", separators=(" , ", " : "))):
            path.write_text(json.dumps(doc, **layout))
            again = parse_instance_file(path)
            assert again.system.coeffs.tobytes() == instance.system.coeffs.tobytes()
            assert again.z0.tobytes() == instance.z0.tobytes()
            assert again.k == instance.k

    def test_rejects_inconsistent_instance(self, tmp_path):
        instance = generate_random_instance(2, 4, 23)
        path = tmp_path / "inst.json"
        write_instance_file(instance, path)
        doc = json.loads(path.read_text())
        doc["k"] = [doc["k"][0] + 0.5, doc["k"][1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConstraintNotSatisfied):
            parse_instance_file(path)


def reference_write_trajectory_csv(traj, path, periodic=False):
    """The per-value ``csv.writer`` loop the block writer replaced; its bytes
    are the trajectory CSV format."""
    n = traj.dimension
    if periodic:
        header = ["t"] + [c for i in range(1, n + 1) for c in (f"x{i}", f"y{i}")]
    else:
        header = ["t"] + [c for i in range(1, n + 1) for c in (f"re_z{i}", f"im_z{i}")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, state in zip(traj.times, traj.states):
            row = [format(float(t), ".17g")]
            for z in state:
                row.extend([format(float(z.real), ".17g"), format(float(z.imag), ".17g")])
            writer.writerow(row)


def read_trajectory(path):
    """A trajectory CSV read back as (times, complex states). The states are
    a view of the parsed columns, not re + 1j*im: that product turns an
    infinite imaginary part into a NaN real part and can turn a -0.0 real
    part into +0.0."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], np.ascontiguousarray(data[:, 1:]).view(complex)


SPECIAL_VALUES = [-0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf]


def _assert_same_bits(got, expected):
    """Equal values, NaN where NaN, and the sign of every non-NaN value kept."""
    got = np.ascontiguousarray(got).view(float)
    expected = np.ascontiguousarray(expected).view(float)
    np.testing.assert_array_equal(got, expected)
    signed = ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(got[signed]), np.signbit(expected[signed]))


def _check_writer(tmp_path, times, states, periodic):
    traj = Trajectory(times, states)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, ours, periodic=periodic)
    reference_write_trajectory_csv(traj, ref, periodic=periodic)
    assert ours.read_bytes() == ref.read_bytes()
    if len(traj):
        t2, s2 = read_trajectory(ours)
        _assert_same_bits(t2, times)
        _assert_same_bits(s2, states)


class TestTrajectoryCsv:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
    def test_matches_reference_and_round_trips(self, tmp_path, rows, n, periodic):
        rng = np.random.default_rng(1000 * rows + 10 * n + periodic)
        times = np.sort(rng.uniform(0, 1, rows))
        states = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        flat = states.view(float).reshape(-1)
        for j, value in enumerate(SPECIAL_VALUES[: flat.size]):
            flat[(j * 7919) % flat.size] = value
        _check_writer(tmp_path, times, states, periodic)

    def test_non_contiguous_states(self, tmp_path):
        rng = np.random.default_rng(5)
        wide = rng.standard_normal((1500, 6)) + 1j * rng.standard_normal((1500, 6))
        _check_writer(tmp_path, np.arange(1500.0), wide[:, ::-2], periodic=False)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), block_rows=st.sampled_from([1, 2, 3, serialization.CSV_BLOCK_ROWS]))
    def test_arbitrary_floats_property(self, tmp_path, data, block_rows):
        n = data.draw(st.integers(1, 3))
        times = sorted(data.draw(st.lists(st.floats(allow_nan=False), max_size=12, unique=True)))
        parts = data.draw(
            st.lists(st.floats(), min_size=2 * n * len(times), max_size=2 * n * len(times))
        )
        states = np.array(parts, dtype=float).view(complex).reshape(len(times), n)
        with mock.patch.object(serialization, "CSV_BLOCK_ROWS", block_rows):
            _check_writer(tmp_path, np.array(times, dtype=float), states, data.draw(st.booleans()))

    @pytest.mark.parametrize("block_rows", [1, 3, 256])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edge_values(self, tmp_path, n, block_rows):
        # Where the kernel's exponent, rounding or layout can go wrong:
        # powers of ten and their neighbours (log10 misjudges X next to
        # them; 1e-5, 1e-4, 1e16 and 1e17 are where %g switches between
        # fixed and scientific notation), exact ties, the ends of the double
        # range, and runs of values with no digits, so that whole rows and
        # blocks fall back or are zero.
        near = np.array([float(f"1e{k}") for k in range(-307, 309)])
        edges = np.concatenate([
            near, np.nextafter(near, 0), np.nextafter(near, np.inf),
            [1234567890123456.75, 1234567890123456.25],
            [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        ])
        runs = np.repeat([0.0, -0.0, np.nan, np.inf, -np.inf], 2 * n * block_rows + 1)
        values = np.concatenate([edges, -edges, runs])
        rows = -(-values.size // (2 * n))
        times = np.unique(values[~np.isnan(values)])
        times = times[np.linspace(0, times.size - 1, rows).astype(int)]
        states = np.resize(values, 2 * n * rows).view(complex).reshape(rows, n)
        with mock.patch.object(serialization, "CSV_BLOCK_ROWS", block_rows):
            _check_writer(tmp_path, times, states, periodic=n == 2)

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_log10_off_by_one_ulp_changes_no_byte(self, tmp_path, direction):
        # The kernel's exponent is floor(log10|x|). Next to a power of ten a
        # last-bit error in log10 moves it by one; the range checks on the 17
        # digits must then hand the value to Python.
        log10 = np.log10
        near = np.array([float(f"1e{k}") for k in range(-280, 281)])
        values = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf)])
        states = np.resize(values, values.size + 1).view(complex)[:, None]
        with mock.patch.object(np, "log10", lambda v: np.nextafter(log10(v), direction)):
            _check_writer(tmp_path, np.arange(float(states.size)), states, periodic=False)

    def test_importing_the_cli_builds_no_kernel_tables(self):
        # Building them takes milliseconds, which a command that writes no
        # CSV should not pay at start-up.
        code = (
            "import polyode.cli; from polyode.serialization import _csv_tables as tables; "
            "print(tables.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(serialization.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=50
        )
        assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr

    def test_headers(self, tmp_path):
        times = np.array([0.0, 1.0])
        states = np.zeros((2, 2), dtype=complex)
        states[:, 0] = 1  # keep strictly increasing times, nonzero data
        path = tmp_path / "a.csv"
        write_trajectory_csv(Trajectory(times, states), path)
        assert path.read_text().splitlines()[0] == "t,re_z1,im_z1,re_z2,im_z2"
        write_trajectory_csv(Trajectory(times, states), path, periodic=True)
        assert path.read_text().splitlines()[0] == "t,x1,y1,x2,y2"
