"""File formats: system/instance JSON, trajectory CSV, JSON reports.

Numbers are written with 17 significant digits so that doubles round-trip
bit-exactly. A trajectory CSV is ASCII: a header row, then one row per
sample, each value formatted as ``"%.17g" % x`` (so ``-0``, ``5e-324``,
``nan``, ``inf``), fields separated by ``,``, rows ended by ``\r\n``, and
nothing quoted.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .constraints import SolvableInstance
from .errors import ValidationError
from .polysys import PolynomialSystem
from .trajectory import Trajectory


# Rows per formatted block. At 1024 rows the block's float objects, format
# string and output text raised a fresh process's peak RSS by ~260 KB; at 256
# they fit in memory the interpreter already holds, at the same speed.
CSV_BLOCK_ROWS = 256


def system_to_dict(system: PolynomialSystem) -> dict:
    return {
        "n": system.n,
        "m": system.m,
        "coefficients": [
            {"eq": eq, "exponents": list(index), "re": value.real, "im": value.imag}
            for (eq, index), value in system.coefficients.items()
        ],
    }


_NUMBER = (int, float)


def _typed(value, types: tuple, what: str):
    """``value`` if its type is exactly one of ``types``: a bool is not an
    int, and a float is not truncated to one."""
    if type(value) not in types:
        raise ValidationError(f"{what} has the wrong JSON type: {value!r}")
    return value


def _get(doc, key: str, types: tuple):
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"expected a JSON object with key {key!r}")
    return _typed(doc[key], types, key)


def _complex(pair, what: str) -> complex:
    """A complex number from a [re, im] pair of JSON numbers."""
    if len(_typed(pair, (list,), what)) != 2:
        raise ValidationError(f"{what} must be a [re, im] pair, got {pair!r}")
    try:
        return complex(*(_typed(x, _NUMBER, what) for x in pair))
    except OverflowError as exc:
        raise ValidationError(f"{what} does not fit a double: {exc}") from exc


def system_from_dict(data: dict) -> PolynomialSystem:
    coeffs = {}
    for entry in _get(data, "coefficients", (list,)):
        exponents = _get(entry, "exponents", (list,))
        key = (_get(entry, "eq", (int,)), tuple(_typed(e, (int,), "exponent") for e in exponents))
        if key in coeffs:
            raise ValidationError(f"duplicate coefficient key {key}")
        value = [_get(entry, "re", _NUMBER), _get(entry, "im", _NUMBER)]
        coeffs[key] = _complex(value, "coefficient")
    return PolynomialSystem(_get(data, "n", (int,)), _get(data, "m", (int,)), coeffs)


def write_system_file(system: PolynomialSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(system), indent=2) + "\n")


def parse_system_file(path) -> PolynomialSystem:
    return system_from_dict(_load_json(path))


def instance_to_dict(instance: SolvableInstance) -> dict:
    doc = system_to_dict(instance.system)
    doc["z0"] = [[z.real, z.imag] for z in instance.z0]
    doc["k"] = [instance.k.real, instance.k.imag]
    return doc


def instance_from_dict(data: dict) -> SolvableInstance:
    system = system_from_dict(data)
    z0 = [_complex(z, "z0 component") for z in _get(data, "z0", (list,))]
    k = _complex(_get(data, "k", (list,)), "k")
    return SolvableInstance(system, np.array(z0, dtype=complex), k)


def write_instance_file(instance: SolvableInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def parse_instance_file(path) -> SolvableInstance:
    return instance_from_dict(_load_json(path))


def _load_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def write_trajectory_csv(traj: Trajectory, path, periodic: bool = False) -> None:
    """Write a trajectory; columns are (t, re_z1, im_z1, ...) or, for the
    periodized real form, (t, x1, y1, ...).

    Rows go out in blocks of ``CSV_BLOCK_ROWS``: each block is copied into
    one fixed float buffer and formatted by a single ``%`` over a repeated
    row template, so memory stays at one block however long the trajectory.
    """
    n = traj.dimension
    names = ("x", "y") if periodic else ("re_z", "im_z")
    header = ["t"] + [f"{c}{i}" for i in range(1, n + 1) for c in names]
    row = ",".join(["%.17g"] * (1 + 2 * n)) + "\r\n"
    buf = np.empty((CSV_BLOCK_ROWS, 1 + 2 * n))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for s in range(0, len(traj), CSV_BLOCK_ROWS):
            e = min(s + CSV_BLOCK_ROWS, len(traj))
            block = buf[: e - s]
            block[:, 0] = traj.times[s:e]
            block[:, 1::2] = traj.states[s:e].real
            block[:, 2::2] = traj.states[s:e].imag
            fh.write(row * (e - s) % tuple(block.ravel().tolist()))


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a trajectory CSV back into (times, complex states)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t" or len(header) % 2 == 0:
            raise ValidationError(f"{path}: unexpected trajectory header {header!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, header has {len(header)}"
                )
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty trajectory")
    data = np.array(rows)
    # A view, not re + 1j*im: that product turns an infinite imaginary part
    # into a NaN real part and can turn a -0.0 real part into +0.0.
    return data[:, 0], np.ascontiguousarray(data[:, 1:]).view(complex)


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
