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


def system_from_dict(data: dict) -> PolynomialSystem:
    try:
        n = int(data["n"])
        m = int(data["m"])
        entries = data["coefficients"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed system document: {exc}") from exc
    coeffs = {}
    for entry in entries:
        try:
            eq = int(entry["eq"])
            exponents = tuple(int(e) for e in entry["exponents"])
            value = complex(float(entry["re"]), float(entry["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed coefficient entry {entry!r}: {exc}") from exc
        if (eq, exponents) in coeffs:
            raise ValidationError(f"duplicate coefficient key ({eq}, {exponents})")
        coeffs[(eq, exponents)] = value
    return PolynomialSystem(n, m, coeffs)


def write_system_file(system: PolynomialSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(system), indent=2) + "\n")


def parse_system_file(path) -> PolynomialSystem:
    return system_from_dict(_load_json(path))


def instance_to_dict(instance: SolvableInstance) -> dict:
    doc = system_to_dict(instance.system)
    doc["z0"] = [[z.real, z.imag] for z in instance.z0]
    doc["k"] = [instance.k.real, instance.k.imag]
    return doc


def instance_from_dict(data: dict, tol: float = 1e-10) -> SolvableInstance:
    system = system_from_dict(data)
    try:
        z0 = np.array([complex(re, im) for re, im in data["z0"]], dtype=complex)
        k = complex(data["k"][0], data["k"][1])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
    return SolvableInstance(system, z0, k, tol=tol)


def write_instance_file(instance: SolvableInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def parse_instance_file(path, tol: float = 1e-10) -> SolvableInstance:
    return instance_from_dict(_load_json(path), tol=tol)


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
