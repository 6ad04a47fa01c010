"""File formats: system/instance JSON, trajectory CSV, JSON reports.

Numbers are written with 17 significant digits so that doubles round-trip
bit-exactly. A system or instance document is JSON, written on one line and
read in any layout: n, m and the system's two arrays, ``exponents`` (U rows
of n integers) and ``coeffs`` (n x U), then z0 and K for an instance. A
complex field is the pair [real parts, imaginary parts], each of the
field's shape. The older layout of one object per coefficient is refused.
A trajectory CSV is ASCII: a header row, then one row per sample, each
value formatted as C's ``"%.17g"`` (so ``-0``, ``5e-324``, ``nan``,
``inf``), fields separated by ``,``, rows ended by ``\r\n``, and nothing
quoted. The library writes trajectory CSVs and does not read them.

The CSV digits come from a numpy kernel, not from Python's ``%``. For
|x| in [1e-280, 1e280] with exponent X = floor(log10|x|), it forms
|x|·10^(16−X) as an integer p plus a remainder r, by Dekker's exact
two-product against a two-double table of powers of ten; r is off by less
than 1e-14, and rounding it to nearest needs its fraction at least 1e-9
from 1/2. Python's ``"%.17g"`` formats the values the kernel cannot
decide: NaN, ±inf, |x| outside that range (subnormals among them), values
within 1e-9 of a rounding tie, and values next to a power of ten whose 17
digits, before or after rounding, fall outside [10^16, 10^17) because log10
misjudged X or the rounding carried into an 18th digit. The digits are
cut into a leading digit and four 4-digit groups by floor division by
constants and subtraction (numpy divides by a scalar with a multiply and a
shift), and gathered as 8-byte ASCII words into a 48-byte record per value.
The bytes a value does not print are multiplied by 0 and then deleted as
NULs by one ``bytes.translate``; no table word or fallback text holds a NUL.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .constraints import SolvableInstance
from .errors import ValidationError, check_type
from .polysys import PolynomialSystem, as_array
from .trajectory import Trajectory


# Rows per formatted block. Writing a 12,289-row n = 3 trajectory raised a
# fresh process's peak RSS by 0.12 MB at 128 rows, 0.38 MB at 256 and
# 1.0 MB at 512, with 0, ~5,000 and ~5,900 minor page faults per write. In
# the periodic benchmark, 128 rows gave ~17 % less throughput than 256, and
# 512 rows ~7 % more, which a paired run has yet to confirm.
CSV_BLOCK_ROWS = 256


def _pair(values) -> list:
    """A complex field as written: [real parts, imaginary parts]."""
    values = np.asarray(values)
    return [values.real.tolist(), values.imag.tolist()]


def system_to_dict(system: PolynomialSystem) -> dict:
    """The document of ``system``: its two arrays as it holds them."""
    check_type("system", system, PolynomialSystem)
    exponents, coeffs = system.exponents.tolist(), _pair(system.coeffs)
    return {"n": system.n, "m": system.m, "exponents": exponents, "coeffs": coeffs}


def _get(doc, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"expected a JSON object with key {key!r}")
    return doc[key]


def _array(doc, key: str, depth: int, dtype=complex) -> np.ndarray:
    """The field ``key`` of ``doc``: lists nested ``depth`` deep of JSON
    integers for an integer ``dtype``, else of JSON numbers, read as the
    complex field that ``_pair`` writes. Each level's types are checked as
    one set before numpy converts the field, so a bool is not an int, nor
    "1.0" a float. The parts are assigned: re + 1j * im drops signed zeros."""
    pair = dtype is complex
    entries = [[_get(doc, key)]]  # flattened once per level: the field, its entries, ...
    for level in [(list,)] * depth + [(int, float) if pair else (int,)]:
        entries = list(chain.from_iterable(entries))
        if not set(map(type, entries)).issubset(level):
            odd = next(v for v in entries if type(v) not in level)
            names = " or ".join(t.__name__ for t in level)
            raise ValidationError(f"{key} holds {odd!r}, not a JSON {names}")
    array = as_array(doc[key], float if pair else dtype, key)
    if not pair:
        return array
    if len(array) != 2:
        raise ValidationError(f"{key} must be a [real parts, imaginary parts] pair")
    values = np.empty(array.shape[1:], complex)
    values.real, values.imag = array
    return values


def system_from_dict(data: dict) -> PolynomialSystem:
    """The system of a document; ``PolynomialSystem`` checks its arrays."""
    exponents, coeffs = _array(data, "exponents", 2, np.intp), _array(data, "coeffs", 3)
    return PolynomialSystem(_get(data, "n"), _get(data, "m"), coeffs=coeffs, exponents=exponents)


def document_text(doc: dict) -> str:
    """A system or instance document as written: JSON on one line, then a
    newline. Without ``indent``, ``json.dumps`` runs its C encoder."""
    return json.dumps(doc) + "\n"


def write_system_file(system: PolynomialSystem, path) -> None:
    Path(path).write_text(document_text(system_to_dict(system)))


def parse_system_file(path) -> PolynomialSystem:
    return system_from_dict(_load_json(path))


def instance_to_dict(instance: SolvableInstance) -> dict:
    doc = system_to_dict(check_type("instance", instance, SolvableInstance).system)
    doc.update(z0=_pair(instance.z0), k=_pair(instance.k))
    return doc


def instance_from_dict(data: dict) -> SolvableInstance:
    system, z0 = system_from_dict(data), _array(data, "z0", 2)
    if z0.size != system.n:
        raise ValidationError(f"z0 has {z0.size} components, expected n = {system.n}")
    return SolvableInstance(system, z0, _array(data, "k", 1).item())


def write_instance_file(instance: SolvableInstance, path) -> None:
    Path(path).write_text(document_text(instance_to_dict(instance)))


def parse_instance_file(path) -> SolvableInstance:
    return instance_from_dict(_load_json(path))


def _load_json(path) -> dict:
    """The JSON value in the file at ``path``. A file that is not text, not
    JSON, or nested too deeply for the parser is a ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


_FALLBACK = 23  # the layout class of a value that Python formats


@functools.cache
def _csv_tables() -> tuple:
    """The kernel's tables, built on first use: 10^k = hi + lo for k in [-270,
    300] with hi's halves; a record's 8-byte words by leading digit, 4-digit
    group and exponent; trailing zeros by group; layout class by exponent;
    keep mask by layout key."""
    tens = [(10 ** max(k, 0), 10 ** max(-k, 0)) for k in range(-270, 301)]
    hi = np.array([p / q for p, q in tens])
    ratios = map(float.as_integer_ratio, hi.tolist())
    lo = np.array([(p * b - a * q) / (q * b) for (p, q), (a, b) in zip(tens, ratios)])
    split = hi * 134217729.0
    hh = split - (split - hi)

    def words(values, template):  # one 8-byte word per value, its digits at the "#"s
        chars = np.tile(np.frombuffer(template, np.uint8), (values.size, 1))
        places = np.flatnonzero(chars[0] == ord("#"))[::-1] - chars.shape[1]
        powers = 10 ** np.arange(places.size, dtype=values.dtype)
        chars[:, places] = values[:, None] // powers % 10 + 48
        return chars.view("<u8")[:, 0]

    g, e = np.arange(10000, dtype=np.uint16), np.arange(-400, 400, dtype=np.int16)
    exps = words(abs(e), b"e+###,\r\n")
    exps[e < 0] += 2 << 8  # "+" to "-"
    tz = (g % 10 == 0).astype(np.uint8) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    layout = np.where(abs(e) >= 100, 22, np.where((e >= -4) & (e <= 16), e + 4, 21))
    # A value's 48-byte record: sign, "0.000", 17 digits each followed by a
    # ".", "e±ddd", ",\r\n"; a fallback value's text overwrites its first
    # 24 bytes. keep[key] picks the bytes to write, where key is
    # (layout * 25 + significant digits) * 4 + 2 * negative + last column,
    # layout X + 4 for fixed notation with exponent X in [-4, 16], 21 or 22
    # for 2 or 3 exponent digits, or _FALLBACK with the length of its text.
    c, s, neg, last = (a[..., None] for a in np.indices((24, 25, 2, 2), dtype=np.int8))
    X, j = c - 4, np.arange(48, dtype=np.int8)
    fixed, sci, fallback = c <= 20, (c == 21) | (c == 22), c == _FALLBACK
    i, dot, body = (j - 6) // 2, j % 2 == 1, (j >= 6) & (j < 39)
    keep = (j == 0) & (neg == 1) & ~fallback
    keep |= fixed & (X < 0) & (j >= 1) & (j < 2 - X)
    keep |= body & ~dot & (fixed | sci) & (i < np.where(fixed, np.maximum(s, X + 1), s))
    keep |= body & dot & ((fixed & (i == X) & (s > X + 1)) | (sci & (i == 0) & (s > 1)))
    keep |= sci & (j >= 40) & (j < 45) & ((j < 42) | (j >= 43 - (c - 21)))
    keep |= fallback & (j < s)
    keep |= ((j == 45) & (last == 0)) | ((j > 45) & (last == 1))
    lead = words(np.arange(10, dtype=np.uint8), b"-0.000#.")
    quads = words(g, b"#.#.#.#.")
    pow10 = np.stack([hi, hh, hi - hh, lo])
    return pow10, lead, quads, tz, exps, layout * 100, keep.reshape(-1, 48)


def _format_block(block: np.ndarray) -> bytes:
    """The bytes of ``"%.17g"`` over a float block, ``,`` between columns
    and ``\\r\\n`` after each row (see the module docstring)."""
    pow10, lead, quads, tz, exps, layout, keep = _csv_tables()
    x = block.ravel()
    ax, zero = np.abs(x), x == 0
    ok = (ax >= 1e-280) & (ax <= 1e280)
    y = np.where(ok, ax, 1.0)
    X = np.floor(np.log10(y)).astype(np.intp)
    hi, hh, hl, lo = np.take(pow10, 16 - X + 270, axis=1)  # 10^(16 - X)
    p = y * hi  # an integer: 10^16 > 2^53
    split = y * 134217729.0
    yh = split - (split - y)
    yl = y - yh
    r = ((yh * hh - p) + yh * hl + yl * hh) + yl * hl + y * lo
    whole = np.floor(r)
    frac = r - whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    fallback = ~(ok | zero) | (np.abs(frac - 0.5) < 1e-9) | (n < 10**16)
    n += frac > 0.5
    fallback |= n >= 10**17
    n -= zero * 10**16
    X += 400
    record = np.empty((x.size, 6), "<u8")
    groups = np.empty((4, x.size), np.int64)  # n = d0 | g1 g2 | g3 g4, by constant division
    upper = n // 10**8
    lower = n - upper * 10**8
    d0 = upper // 10**8
    upper -= d0 * 10**8
    np.floor_divide(upper, 10000, out=groups[0])
    np.subtract(upper, groups[0] * 10000, out=groups[1])
    np.floor_divide(lower, 10000, out=groups[2])
    np.subtract(lower, groups[2] * 10000, out=groups[3])
    record[:, 0] = lead.take(d0, mode="clip")  # d0 > 9 only where falling back
    record[:, 1:5] = quads.take(groups.T)
    record[:, 5] = exps.take(X)
    t1, t2, t3, t4 = tz.take(groups)
    s = 17 - (t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1)))
    key = layout.take(X) + s * 4 + np.signbit(x) * 2
    odd = np.flatnonzero(fallback)
    if odd.size:
        text = ("%-24.17g" * odd.size % tuple(x[odd].tolist())).encode()
        chars = np.frombuffer(text, np.uint8).reshape(-1, 24)
        record[odd, :3] = chars.view("<u8")
        key[odd] = _FALLBACK * 100 + np.add.reduce(chars != 32, axis=1) * 4
    key.reshape(block.shape)[:, -1] += 1
    kept = record.view(np.uint8)  # (values, 48)
    kept *= keep.take(key, axis=0)  # a dropped byte becomes NUL; no table byte is one
    return kept.tobytes().translate(None, b"\0")


def write_trajectory_csv(traj: Trajectory, path, periodic: bool = False) -> None:
    """Write a trajectory; columns are (t, re_z1, im_z1, ...) or, for the
    periodized real form, (t, x1, y1, ...).

    Rows go out in blocks of ``CSV_BLOCK_ROWS``: each block is copied into
    one fixed float buffer and formatted by ``_format_block``, so memory
    stays at one block however long the trajectory.
    """
    check_type("traj", traj, Trajectory)
    n = traj.dimension
    names = ("x", "y") if periodic else ("re_z", "im_z")
    header = ["t"] + [f"{c}{i}" for i in range(1, n + 1) for c in names]
    buf = np.empty((CSV_BLOCK_ROWS, 1 + 2 * n))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for s in range(0, len(traj), CSV_BLOCK_ROWS):
            e = min(s + CSV_BLOCK_ROWS, len(traj))
            block = buf[: e - s]
            block[:, 0] = traj.times[s:e]
            block[:, 1::2] = traj.states[s:e].real
            block[:, 2::2] = traj.states[s:e].imag
            fh.write(_format_block(block))


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
