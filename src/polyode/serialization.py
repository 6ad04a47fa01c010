"""File formats: system/instance JSON, trajectory CSV, JSON reports.

A system or instance document is JSON, written on one line and read in
any layout: n, m and the system's two arrays, ``exponents`` (U rows of n
integers) and ``coeffs`` (n x U), then z0 and K for an instance. A
complex field is the pair [real parts, imaginary parts], each of the
field's shape. A number is written as Python's ``repr``, the shortest
text that reads back as the same double (``0.8124821092208767`` has 16
digits), so doubles round-trip bit-exactly. The older layout of one
object per coefficient is refused. A JSON document (system, instance or
report) is written as the bytes of its ``json.dumps`` text by one binary
write, and read by one binary read decoded strictly as UTF-8, so a
byte-order mark or UTF-16 text is not valid JSON.

A trajectory CSV is ASCII: a header row, then one row per sample, each
value formatted as C's ``"%.17g"``, 17 significant digits (so ``-0``,
``5e-324``, ``nan``, ``inf``), fields separated by ``,``, rows ended by
``\r\n``, and nothing quoted. The library writes trajectory CSVs and does
not read them.

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
A block is a fixed number of values, as many whole rows as fit, so it takes
the same memory at any n. A write allocates the kernel's work arrays once
and formats every block in them with ``out=``; nothing is kept between
writes, so concurrent writes share only the read-only tables.
"""

from __future__ import annotations

import functools
import json
from itertools import chain

import numpy as np

from .constraints import SolvableInstance
from .errors import ValidationError, check_type
from .polysys import PolynomialSystem, as_array
from .trajectory import Trajectory


# Values per formatted block: 512 rows at n = 3. A block holds as many whole
# rows as fit, and at least one, so the work arrays that a write allocates
# once (216 bytes per value, 0.77 MB) take the same memory at any n. They
# are freed when the write ends; nothing is kept between writes.
CSV_BLOCK_VALUES = 3584


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


def _write_text(text: str, path) -> None:
    """``text`` as the whole file at ``path``, by one binary write of its
    bytes: no text-I/O layer on the way. Every text written is ASCII."""
    with open(path, "wb") as fh:
        fh.write(text.encode())


def write_system_file(system: PolynomialSystem, path) -> None:
    _write_text(document_text(system_to_dict(system)), path)


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
    _write_text(document_text(instance_to_dict(instance)), path)


def parse_instance_file(path) -> SolvableInstance:
    return instance_from_dict(_load_json(path))


def _load_json(path) -> dict:
    """The JSON value in the file at ``path``, read by one binary read. A
    file that is not UTF-8 (decoded strictly: ``json.loads`` would detect
    UTF-16 in bytes), not JSON, or nested too deeply for the parser is a
    ValidationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode())
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
    return pow10, lead, quads, tz, exps, layout.astype(np.intp) * 100, keep.reshape(-1, 48)


def _csv_work(values: int) -> tuple:
    """The kernel's work arrays for blocks of up to ``values`` values: a row
    per float, integer, flag and trailing-zero count of a value, then the
    48-byte records. A write makes them once, as views of one allocation: a
    process that frees one large block reuses it at the next write, while
    several freed blocks can exceed the allocator's trim threshold and be
    returned to the OS, to fault in again."""
    work = np.empty((27, values), np.int64)
    small = work[26].view(np.uint8).reshape(8, values)
    record = work[20:26].reshape(values, 6).view("<u8")
    return work[:9].view(float), work[9:20], small[:4].view(bool), small[4:], record


def _format_block(block: np.ndarray, work: tuple) -> bytes:
    """The bytes of ``"%.17g"`` over a float block, ``,`` between columns
    and ``\\r\\n`` after each row (see the module docstring). Every
    intermediate of a value goes into ``work`` (from ``_csv_work``), and
    every row of it is written before it is read. A gather with
    ``mode="clip"`` writes into its ``out`` directly, where the default mode
    would fill a copy; every index here is in range."""
    pow10, lead, quads, tz, exps, layout, keep = _csv_tables()
    x, v = block.ravel(), block.size
    floats, ints, flags, zeros = (a[:, :v] for a in work[:4])
    record = work[4][:v]
    y, t, hi, hh, hl, lo, yh, r, m = floats
    X, j, n, upper, lower, d0, key, *groups = ints
    ok, zero, fallback, b = flags
    np.abs(x, out=y)
    np.equal(x, 0, out=zero)
    np.greater_equal(y, 1e-280, out=ok)
    ok &= np.less_equal(y, 1e280, out=b)
    np.copyto(y, 1.0, where=np.logical_not(ok, out=b))  # |x| where in range, else 1
    X[:] = np.floor(np.log10(y, out=t), out=t)
    np.subtract(16 + 270, X, out=j)  # 10^(16 - X) is column 16 - X + 270
    for row, out in zip(pow10, (hi, hh, hl, lo)):
        row.take(j, out=out, mode="clip")
    p = np.multiply(y, hi, out=hi)  # an integer: 10^16 > 2^53
    np.multiply(y, 134217729.0, out=yh)
    np.subtract(yh, np.subtract(yh, y, out=t), out=yh)
    yl = np.subtract(y, yh, out=t)
    np.multiply(yh, hh, out=r)  # r = ((yh hh - p) + yh hl + yl hh) + yl hl + y lo
    r -= p
    r += np.multiply(yh, hl, out=m)
    r += np.multiply(yl, hh, out=m)
    r += np.multiply(yl, hl, out=m)
    r += np.multiply(y, lo, out=m)
    whole = np.floor(r, out=m)
    frac = np.subtract(r, whole, out=r)
    n[:] = p
    d0[:] = whole
    n += d0
    np.logical_not(np.logical_or(ok, zero, out=fallback), out=fallback)
    fallback |= np.less(np.abs(np.subtract(frac, 0.5, out=m), out=m), 1e-9, out=b)
    fallback |= np.less(n, 10**16, out=b)
    np.add(n, 1, out=n, where=np.greater(frac, 0.5, out=b))
    fallback |= np.greater_equal(n, 10**17, out=b)
    np.subtract(n, 10**16, out=n, where=zero)
    X += 400
    # n = d0 | g1 g2 | g3 g4, by constant division
    np.floor_divide(n, 10**8, out=upper)
    np.subtract(n, np.multiply(upper, 10**8, out=lower), out=lower)
    np.floor_divide(upper, 10**8, out=d0)
    upper -= np.multiply(d0, 10**8, out=n)
    for half, (g, rest) in ((upper, groups[:2]), (lower, groups[2:])):
        np.floor_divide(half, 10000, out=g)
        np.subtract(half, np.multiply(g, 10000, out=n), out=rest)
    words = floats[:6].view("<u8")  # a record's words, gathered where the floats were
    lead.take(d0, out=words[0], mode="clip")  # d0 > 9 only where falling back
    for g, word, z in zip(groups, words[1:5], zeros):
        quads.take(g, out=word, mode="clip")
        tz.take(g, out=z, mode="clip")
    exps.take(X, out=words[5], mode="clip")
    np.copyto(record, words.T)
    trailing = zeros[0]  # the 17 digits' trailing zeros, group by group from g1
    for z in zeros[1:]:
        np.copyto(trailing, 0, where=np.not_equal(z, 4, out=b))
        trailing += z
    n[:] = np.subtract(17, trailing, out=trailing)  # significant digits; cast unbuffered
    layout.take(X, out=key, mode="clip")
    key += np.multiply(n, 4, out=n)
    np.add(key, 2, out=key, where=np.signbit(x, out=b))
    odd = np.flatnonzero(fallback)
    if odd.size:
        text = ("%-24.17g" * odd.size % tuple(x[odd].tolist())).encode()
        chars = np.frombuffer(text, np.uint8).reshape(-1, 24)
        record[odd, :3] = chars.view("<u8")
        key[odd] = _FALLBACK * 100 + np.add.reduce(chars != 32, axis=1) * 4
    key.reshape(block.shape)[:, -1] += 1
    mask = work[0].reshape(-1)[: 6 * v].view(bool).reshape(v, 48)  # in the floats' place
    kept = record.view(np.uint8)  # (values, 48)
    kept *= keep.take(key, axis=0, out=mask, mode="clip").view(np.uint8)  # dropped: NUL
    return kept.tobytes().translate(None, b"\0")  # no table byte is one


def write_trajectory_csv(traj: Trajectory, path, periodic: bool = False) -> None:
    """Write a trajectory; columns are (t, re_z1, im_z1, ...) or, for the
    periodized real form, (t, x1, y1, ...).

    Rows go out in blocks of ``CSV_BLOCK_VALUES`` values, rounded down to
    whole rows: each block is copied into one fixed float buffer and
    formatted by ``_format_block`` in work arrays made once for this write,
    so memory stays at one block however long the trajectory, and nothing
    is kept between writes.
    """
    check_type("traj", traj, Trajectory)
    n = traj.dimension
    names = ("x", "y") if periodic else ("re_z", "im_z")
    header = ["t"] + [f"{c}{i}" for i in range(1, n + 1) for c in names]
    rows = max(1, CSV_BLOCK_VALUES // len(header))
    buf = np.empty((rows, len(header)))
    work = _csv_work(buf.size)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for s in range(0, len(traj), rows):
            e = min(s + rows, len(traj))
            block = buf[: e - s]
            block[:, 0] = traj.times[s:e]
            block[:, 1::2] = traj.states[s:e].real
            block[:, 2::2] = traj.states[s:e].imag
            fh.write(_format_block(block, work))


def write_report(report: dict, path) -> None:
    _write_text(json.dumps(report, indent=2) + "\n", path)
