import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyode import serialization
from polyode.constraints import SolvableInstance
from polyode.errors import ConstraintNotSatisfied, ValidationError
from polyode.generate import generate_random_instance
from polyode.polysys import PolynomialSystem
from polyode.serialization import (
    document_text,
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


def system_doc(**fields):
    """A (2, 4) system document with one term, 1 * z1^4 in equation 1,
    with ``fields`` replaced."""
    doc = {"n": 2, "m": 4, "exponents": [[4, 0]], "coeffs": [[[1.0], [0.0]], [[0.0], [0.0]]]}
    return dict(doc, **fields)


class TestSystemFormat:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_doc(m=2, exponents=[[2, 0]])))
        system = parse_system_file(path)
        assert system.coefficients == {(1, (2, 0)): 1 + 0j}

    @pytest.mark.parametrize("n,m,density", [(2, 4, 1.0), (3, 3, 0.4), (4, 2, 0.7)])
    def test_document_lists_the_coefficients_mapping_in_order(self, n, m, density):
        # The document is the system's two arrays, the complex one as its
        # real and imaginary parts; it reads back to the same mapping, in
        # the same order.
        system = random_system(np.random.default_rng(n * 10 + m), n, m, density)
        document = serialization.system_to_dict(system)
        expected = {
            "n": n,
            "m": m,
            "exponents": system.exponents.tolist(),
            "coeffs": [system.coeffs.real.tolist(), system.coeffs.imag.tolist()],
        }
        assert json.dumps(document) == json.dumps(expected)
        again = system_from_dict(json.loads(json.dumps(document)))
        assert list(again.coefficients.items()) == list(system.coefficients.items())

    def test_rejects_wrong_exponent_sum(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_doc(exponents=[[3, 0]])))
        with pytest.raises(ValidationError, match=r"multi-index \[3, 0\] is not 2 nonnegative"):
            parse_system_file(path)

    def test_rejects_duplicate_keys(self):
        # Two equal exponent rows: the second is not below the first.
        doc = system_doc(exponents=[[4, 0], [4, 0]], coeffs=[[[1.0, 2.0], [0.0, 0.0]]] * 2)
        with pytest.raises(ValidationError, match="exponent rows must be unique"):
            system_from_dict(doc)

    def test_rejects_small_n(self):
        doc = system_doc(n=1, exponents=[], coeffs=[[[]], [[]]])
        with pytest.raises(ValidationError, match="n must be an integer >= 2, got 1"):
            system_from_dict(doc)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text("not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            parse_system_file(path)

    @pytest.mark.parametrize("parse", [parse_system_file, parse_instance_file])
    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{",
            b"[" * 100_000 + b"]" * 100_000,
            # json.loads would detect each of these encodings in bytes.
            '{"n": 2}'.encode("utf-8-sig"),
            '{"n": 2}'.encode("utf-16"),
            '{"n": 2}'.encode("utf-16-le"),
        ],
        ids=["undecodable", "too_deep", "utf8_bom", "utf16_bom", "utf16le"],
    )
    def test_rejects_files_that_do_not_decode(self, tmp_path, parse, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not valid JSON"):
            parse(path)

    def test_random_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        system = random_system(rng, 2, 4)
        path = tmp_path / "sys.json"
        write_system_file(system, path)
        again = parse_system_file(path)
        assert again.coefficients == system.coefficients
        assert (again.n, again.m) == (system.n, system.m)

    def test_signed_zeros_and_a_subnormal_keep_their_bits(self):
        system = PolynomialSystem(
            2,
            2,
            coeffs=[[complex(-0.0, 1.0), complex(2.0, -0.0)], [complex(-0.0, -0.0), 5e-324]],
            exponents=[[2, 0], [1, 1]],
        )
        again = system_from_dict(json.loads(json.dumps(serialization.system_to_dict(system))))
        assert again.coeffs.tobytes() == system.coeffs.tobytes()
        # z0 and K pass the constraints: K z0 = (1 - M) rhs(z0) for z1^2 at M = 2.
        riccati = PolynomialSystem(2, 2, coeffs=[[1.0], [0]], exponents=[[2, 0]])
        instance = SolvableInstance(riccati, [complex(1, -0.0), complex(-0.0, -0.0)], complex(-1, -0.0))
        again = instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))
        assert again.z0.tobytes() == instance.z0.tobytes()
        assert np.complex128(again.k).tobytes() == np.complex128(instance.k).tobytes()

    def test_empty_system_round_trips(self):
        document = serialization.system_to_dict(
            PolynomialSystem(2, 4, coeffs=[[], []], exponents=[])
        )
        assert document["exponents"] == [] and document["coeffs"] == [[[], []], [[], []]]
        again = system_from_dict(json.loads(json.dumps(document)))
        assert again.exponents.shape == (0, 2) and again.coeffs.shape == (2, 0)

    def test_dense_64_2_file_is_small_and_bit_exact(self, tmp_path):
        # One entry per stored coefficient part and per exponent: 5.9 MB,
        # where a document of one object per coefficient took 36.3 MB.
        instance = generate_random_instance(64, 2, 1)
        path = tmp_path / "inst.json"
        write_instance_file(instance, path)
        assert path.stat().st_size <= 8_000_000
        again = parse_instance_file(path)
        assert again.system.coeffs.tobytes() == instance.system.coeffs.tobytes()
        assert np.array_equal(again.system.exponents, instance.system.exponents)
        assert again.z0.tobytes() == instance.z0.tobytes()


def old_layout(doc):
    """``doc`` rewritten in the older layout, which is refused: one JSON
    object per coefficient, and z0 as one [re, im] pair per component."""
    system = system_from_dict(doc)
    del doc["exponents"], doc["coeffs"]
    doc["coefficients"] = [
        {"eq": eq, "exponents": list(index), "re": value.real, "im": value.imag}
        for (eq, index), value in system.coefficients.items()
    ]
    if "z0" in doc:
        doc["z0"] = [list(pair) for pair in zip(*doc["z0"])]


# (edit of ``system_doc()``, the error message it must raise).
MALFORMED_SYSTEMS = [
    (lambda d: d.update(n=2.7), r"n must be an integer >= 2, got 2\.7"),
    (lambda d: d.update(n=1e400), r"n must be an integer >= 2, got inf"),
    (lambda d: d.update(m=True), r"m must be an integer >= 2, got True"),
    (lambda d: d.update(coeffs=5), r"coeffs holds 5, not a JSON list"),
    (lambda d: d.update(coeffs=[7]), r"coeffs holds 7, not a JSON list"),
    (lambda d: d["exponents"][0].__setitem__(0, True), r"exponents holds True, not a JSON int"),
    (lambda d: d["exponents"][0].__setitem__(0, 1e400), r"exponents holds inf, not a JSON int"),
    (lambda d: d.update(exponents=[[2.5, 1.5]]), r"exponents holds 2\.5, not a JSON int"),
    (lambda d: d.update(exponents="40"), r"exponents holds '40', not a JSON list"),
    (lambda d: d["coeffs"][0][0].__setitem__(0, "1.0"), r"coeffs holds '1\.0', not a JSON int or float"),
    (lambda d: d["coeffs"][1][0].__setitem__(0, 10**400), r"coeffs is not an array of numbers: int too large"),
    (lambda d: d["coeffs"].pop(), r"coeffs must be a \[real parts, imaginary parts\] pair"),
    (lambda d: d.pop("n"), r"expected a JSON object with key 'n'"),
    # Added with the array layout: one of each check the reader or
    # PolynomialSystem makes on the arrays.
    (lambda d: d.update(exponents=[[4, 0], [3]]), r"exponents is not an array of numbers"),
    (lambda d: d.update(exponents=[[[4], 0]]), r"exponents holds \[4\], not a JSON int"),
    (lambda d: d.update(exponents=[[4, 0, 0]]), r"exponents must be integer rows of length 2"),
    (lambda d: d.update(exponents=[[2**63, 0]]), r"exponents is not an array of numbers"),
    (lambda d: d.update(exponents=[]), r"coefficients \(2, 1\) do not fit exponents \(0, 2\)"),
    (lambda d: d["coeffs"][0].__setitem__(0, [1.0, 2.0]), r"coeffs is not an array of numbers"),
    (lambda d: d["coeffs"][0][0].__setitem__(0, [1.0]), r"coeffs holds \[1\.0\], not a JSON int or float"),
    (lambda d: d["coeffs"][1][1].__setitem__(0, float("nan")), r"coefficients contain non-finite"),
    (
        lambda d: d.update(exponents=[[0, 4], [4, 0]], coeffs=[[[1.0, 1.0], [0.0, 0.0]]] * 2),
        r"exponent rows must be unique and in descending order",
    ),
    (old_layout, r"expected a JSON object with key 'exponents'"),
]


class TestStrictReader:
    """Only JSON integers (not bools) are read as n, m and exponents, and
    only JSON numbers as real and imaginary parts; each refusal names its
    field or check."""

    @pytest.mark.parametrize("edit", [edit for edit, _ in MALFORMED_SYSTEMS])
    def test_rejects_non_integer_fields(self, edit):
        doc = system_doc()
        edit(doc)
        with pytest.raises(ValidationError, match=dict(MALFORMED_SYSTEMS)[edit]):
            system_from_dict(doc)

    @pytest.mark.parametrize(
        "z0,k",
        [([[1, 0]], [0, 0]), ([[1, 0], [0]], [0, 0]), ([[1, 0], [0, 1]], [0]),
         ([[1, 0], [0, 1]], [True, 0]), ([[1, 0], [0, 1]], "0"), ([[1, 0], [0, 1]], [10**400, 0]),
         ([], [0, 0]), ([[1, 0], [0, 1], [0, 0]], [0, 0])],
    )
    def test_rejects_malformed_initial_data_and_k(self, z0, k):
        # z0 = [[1, 0], [0, 1]] is (1, i), well formed; the other field is not.
        doc = system_doc(exponents=[], coeffs=[[[], []], [[], []]], z0=z0, k=k)
        field = "k" if z0 == [[1, 0], [0, 1]] else "z0"
        with pytest.raises(ValidationError, match=f"^{field} "):
            serialization.instance_from_dict(doc)

    def test_writer_bytes_survive_a_read(self, tmp_path):
        path = tmp_path / "inst.json"
        for n, m, seed in [(2, 4, 23), (3, 3, 1)]:
            write_instance_file(generate_random_instance(n, m, seed, density=0.6), path)
            text = path.read_bytes()
            write_instance_file(parse_instance_file(path), path)
            assert path.read_bytes() == text

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 5),
        density=st.sampled_from([0.2, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, n, m, density, seed):
        instance = generate_random_instance(n, m, seed, density=density)
        text = document_text(instance_to_dict(instance))
        again = instance_from_dict(json.loads(text))
        assert again.system.coeffs.tobytes() == instance.system.coeffs.tobytes()
        assert np.array_equal(again.system.exponents, instance.system.exponents)
        assert again.z0.tobytes() == instance.z0.tobytes()
        assert np.complex128(again.k).tobytes() == np.complex128(instance.k).tobytes()
        assert document_text(instance_to_dict(again)) == text


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

    def test_rejects_z0_of_the_wrong_length(self):
        doc = instance_to_dict(generate_random_instance(2, 4, 23))
        doc["z0"] = [parts + [0.5] for parts in doc["z0"]]
        with pytest.raises(ValidationError, match=r"^z0 has 3 components, expected n = 2$"):
            instance_from_dict(doc)

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


def csv_block(rows, n):
    """Patches the writer's block to ``rows`` rows of an n-dimensional
    trajectory; None keeps the shipped block."""
    values = serialization.CSV_BLOCK_VALUES if rows is None else rows * (1 + 2 * n)
    return mock.patch.object(serialization, "CSV_BLOCK_VALUES", values)


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
    @given(data=st.data(), block_rows=st.sampled_from([1, 2, 3, None]))
    def test_arbitrary_floats_property(self, tmp_path, data, block_rows):
        n = data.draw(st.integers(1, 3))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        times = sorted(data.draw(st.lists(finite, max_size=12, unique=True)))
        parts = data.draw(
            st.lists(st.floats(), min_size=2 * n * len(times), max_size=2 * n * len(times))
        )
        states = np.array(parts, dtype=float).view(complex).reshape(len(times), n)
        with csv_block(block_rows, n):
            _check_writer(tmp_path, np.array(times, dtype=float), states, data.draw(st.booleans()))

    @pytest.mark.parametrize("block_rows", [1, 3, pytest.param(None, id="shipped")])
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
        block = block_rows or serialization.CSV_BLOCK_VALUES // (1 + 2 * n)
        runs = np.repeat([0.0, -0.0, np.nan, np.inf, -np.inf], 2 * n * block + 1)
        values = np.concatenate([edges, -edges, runs])
        rows = -(-values.size // (2 * n))
        times = np.unique(values[np.isfinite(values)])  # a Trajectory's times are finite
        if times.size < rows:  # runs the length of a large block outnumber the edges
            times = np.union1d(times, np.arange(float(rows)))
        times = times[np.linspace(0, times.size - 1, rows).astype(int)]
        states = np.resize(values, 2 * n * rows).view(complex).reshape(rows, n)
        with csv_block(block_rows, n):
            _check_writer(tmp_path, times, states, periodic=n == 2)

    @pytest.mark.parametrize("block_rows", [1, 2, 3, pytest.param(None, id="shipped")])
    @pytest.mark.parametrize("n", [1, 3])
    def test_blocks_alternating_fallback_and_plain_rows(self, tmp_path, n, block_rows):
        # One write formats every block in the same work arrays, so what a
        # block of fallback values leaves there (Python's text, its layout
        # keys) must not reach the plain block after it, nor the short last
        # block, and the reverse. Blocks 0, 2 and 4 fall back; 1, 3 and the
        # short last one do not.
        block = block_rows or serialization.CSV_BLOCK_VALUES // (1 + 2 * n)
        odd = [np.nan, np.inf, -np.inf, 5e-324, -2.2e-310, -0.0, 1234567890123456.75,
               1234567890123456.25, *np.nextafter([1e16, 1e17], 0), *np.nextafter([1e16, 1e17], 2e17)]
        rows = 5 * block + max(1, block // 2)
        values = np.random.default_rng(n).standard_normal((rows, 2 * n))
        for start in range(0, 5 * block, 2 * block):
            values[start : start + block] = np.resize(odd, (block, 2 * n))
        states = values.view(complex)
        with csv_block(block_rows, n):
            for length in (rows, 0, 1):
                _check_writer(tmp_path, np.arange(float(length)), states[:length], periodic=n == 1)

    @pytest.mark.parametrize("n", [3, 64])
    def test_traced_memory_of_a_write_is_one_block(self, tmp_path, n):
        # A write makes its work arrays once, sized by CSV_BLOCK_VALUES, so
        # its traced peak is the same for 2 blocks and 40, up to a few
        # Python objects, and as small at n = 64 as at n = 3.
        block = max(1, serialization.CSV_BLOCK_VALUES // (1 + 2 * n))
        one = np.random.default_rng(n).standard_normal((block, 2 * n)).view(complex)
        write_trajectory_csv(Trajectory([0.0], one[:1]), tmp_path / "a.csv")  # tables, first-call caches

        def peak(blocks):
            traj = Trajectory(np.arange(float(blocks * block)), np.tile(one, (blocks, 1)))
            tracemalloc.start()
            try:
                write_trajectory_csv(traj, tmp_path / "a.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(2), peak(40)
        assert abs(long - short) < 1000 and long <= 1.5e6, (short, long)

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_log10_off_by_one_ulp_changes_no_byte(self, tmp_path, direction):
        # The kernel's exponent is floor(log10|x|). Next to a power of ten a
        # last-bit error in log10 moves it by one; the range checks on the 17
        # digits must then hand the value to Python.
        log10 = np.log10
        near = np.array([float(f"1e{k}") for k in range(-280, 281)])
        values = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf)])
        states = np.resize(values, values.size + 1).view(complex)[:, None]
        def off_by_one_ulp(v, out):
            return np.nextafter(log10(v, out=out), direction, out=out)

        with mock.patch.object(np, "log10", off_by_one_ulp):
            _check_writer(tmp_path, np.arange(float(states.size)), states, periodic=False)

    def test_no_kept_byte_is_nul(self):
        # The writer zeroes the bytes it drops and then deletes every NUL,
        # which deletes exactly the dropped bytes only if no table word and
        # no fallback text holds a NUL.
        _, lead, quads, _, exps, _, _ = serialization._csv_tables()
        for words in (lead, quads, exps):
            assert np.all(words.view(np.uint8) != 0)
        values = [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1e300, -1.5e-281]
        text = ("%-24.17g" * len(values) % tuple(values)).encode()
        assert text.isascii() and b"\0" not in text and len(text) == 24 * len(values)

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


# Sizes the CSV kernel: its block, the median wall time and minor page
# faults per write of the 12,289-row n = 3 periodic trajectory ((3, 4) seed
# 3, K cap 0.1, omega = 1, 4,096 points per base period over its period),
# and how much the first write raises peak RSS. It runs in a fresh process
# that imports only polyode: the heap that pytest and hypothesis leave
# behind changes how often the allocator returns memory, and so the fault
# count.
SIZE_THE_CSV_KERNEL = """
import resource, statistics, tempfile, time
from pathlib import Path
import numpy as np
from polyode import serialization
from polyode.generate import generate_random_instance
from polyode.periodic import PeriodicClosedForm, detect_period, eval_periodic_closed_form
from polyode.serialization import write_trajectory_csv

pcf = PeriodicClosedForm(generate_random_instance(3, 4, 3, k_cap=0.1), 1.0)
report = detect_period(pcf)
zeta = eval_periodic_closed_form(pcf, np.linspace(0.0, report.T, 4096 * report.k + 1))
seconds, faults, rss = [], [], [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
with tempfile.TemporaryDirectory() as tmp:
    for _ in range(21):
        before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        write_trajectory_csv(zeta, Path(tmp) / "zeta.csv", periodic=True)
        seconds.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
values = serialization.CSV_BLOCK_VALUES
print(f"{len(zeta)} rows, n = {zeta.dimension}, {len(seconds)} writes")
print(f"block: {values} values, {values // (1 + 2 * zeta.dimension)} rows")
print(f"first write (builds the tables): {seconds[0] * 1e3:.2f} ms, {faults[0]} minor page faults, "
      f"peak RSS +{(rss[1] - rss[0]) / 1024:.2f} MB")
print(f"median per write: {statistics.median(seconds) * 1e3:.2f} ms, "
      f"{statistics.median(faults):.0f} minor page faults")
"""


if __name__ == "__main__":
    # python tests/test_serialization.py: prints SIZE_THE_CSV_KERNEL's sizes.
    env = dict(os.environ, PYTHONPATH=str(Path(serialization.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", SIZE_THE_CSV_KERNEL], env=env, check=True)
