"""JSON documents for matrices, separating sets and certificates.

One document format everywhere: the field specification sits at the
document root and every matrix, point and form inside inherits it.
Scalars encode as plain numbers over R, [re, im] pairs over C, and either
{"rat": "a/b"} or {"val": j, "unit_digits": [d0, d1, ...]} over Q_p
(little-endian base-p digits, each in 0..p-1); a rat is a string or an
int, never a float.  Schema violations raise InputError with a
dotted path to the offending location, e.g. "generators[1][0][2]".

Every list of matrices, and a single matrix as a list of one, is read in
one pass into one (k, n, n) stack of the field's own scalars: float,
complex or PadicScalar.  Over R and C a matrix of finite plain JSON numbers
is taken as it is; decode_scalar, the one definition of a valid scalar,
reads every other matrix and names its first bad entry, and over Q_p it
reads every entry.  One cartan.determinant_failure call gates the stack.
The first error in list order is the one raised, with the message and path
of a matrix read alone.

Report numerics are wrapped in {"value", "provenance"} pairs so a reader
can tell exact arithmetic from toleranced checks and Monte-Carlo
estimates without consulting the code that produced them.  report_text
writes a report as json.dumps(report, indent=2) does, character for
character, without json's slower indented encoder.
"""

import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .cartan import SLMatrix, determinant_failure
from .contraction import ContractionCert, ProximalCert
from .errors import CertificationError, DomainError, InputError
from .fields import (COMPLEX, DEFAULT_PADIC_PRECISION, REAL, FieldSpec, Kind, PadicScalar,
                     magnitude, padic)
from .pingpong import PingPongCert
from .separation import SeparatingSet

__all__ = [
    "decode_matrix",
    "decode_scalar",
    "encode_contraction_cert",
    "encode_field",
    "encode_form",
    "encode_matrix",
    "encode_pingpong_cert",
    "encode_point",
    "encode_proximal_cert",
    "encode_scalar",
    "input_digest",
    "load_document",
    "load_generators",
    "load_matrix",
    "load_separating_set",
    "parse_field",
    "report_text",
    "tagged",
]


def tagged(value, provenance: str):
    """Attach provenance to a report numeric: exact, tolerance or estimate."""
    if provenance not in ("exact", "tolerance", "estimate"):
        raise CertificationError(f"unknown provenance {provenance!r}")
    return {"value": value, "provenance": provenance}


def measured(field: FieldSpec) -> str:
    """Provenance of a quantity measured from matrix data over this field:
    p-adic absolute values are exact powers of p, archimedean ones carry
    the decomposition's floating-point tolerance."""
    return "exact" if field.is_padic else "tolerance"


def input_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def load_document(path) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", path=str(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}", path=str(path))
    if not isinstance(doc, dict):
        raise InputError(f"{path}: document root must be a JSON object", path="")
    return doc


def encode_field(field: FieldSpec) -> dict:
    if field.is_padic:
        return {"kind": "padic", "prime": field.prime, "precision": field.precision}
    return {"kind": field.kind.value}


def parse_field(doc: dict) -> FieldSpec:
    spec = doc.get("field")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError('document needs a root "field" object with a "kind"',
                         path="field")
    kind = spec["kind"]
    if kind == "real":
        return REAL
    if kind == "complex":
        return COMPLEX
    if kind == "padic":
        prime = spec.get("prime")
        if not isinstance(prime, int) or isinstance(prime, bool):
            raise InputError("p-adic field spec needs an integer prime",
                             path="field.prime")
        precision = spec.get("precision")
        if precision is None:
            precision = DEFAULT_PADIC_PRECISION
        elif not isinstance(precision, int) or isinstance(precision, bool) or precision < 1:
            raise InputError(f"p-adic precision must be a positive integer, got {precision!r}",
                             path="field.precision")
        try:
            return padic(prime, precision)
        except CertificationError as exc:
            # the precision is checked above, so the prime is what padic() refused
            raise InputError(str(exc), path="field.prime")
    raise InputError(f'unknown field kind {kind!r} (expected "real", "complex" '
                     'or "padic")', path="field.kind")


def _is_number(x) -> bool:
    # finite only: json reads NaN, Infinity and 1e400 as non-finite floats
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def decode_scalar(field: FieldSpec, obj, where: str):
    if field.kind is Kind.REAL:
        if not _is_number(obj):
            raise InputError(f"expected a finite real number, got {obj!r}", path=where)
        return float(obj)
    if field.kind is Kind.COMPLEX:
        if _is_number(obj):
            return complex(obj)
        if (isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj))):
            return complex(obj[0], obj[1])
        raise InputError(f"expected a finite number or [re, im], got {obj!r}", path=where)
    # Q_p: exact encodings only, a float would smuggle in base-2 roundoff
    if isinstance(obj, int) and not isinstance(obj, bool):
        x = field.scalar(obj)
    elif isinstance(obj, dict) and set(obj) == {"rat"}:
        text = obj["rat"]
        try:
            # an ASCII integer is read by int, which gives the value Fraction would
            if type(text) is str and text.isascii() and text.removeprefix("-").isdigit():
                x = PadicScalar(field, int(text))
            elif isinstance(text, (bool, float)):
                raise InputError(f"bad rational {text!r}: expected a string or an integer, "
                                 f"got a {type(text).__name__}", path=where)
            else:
                x = field.scalar(Fraction(text))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"bad rational {obj['rat']!r}: {exc}", path=where)
    elif isinstance(obj, dict) and set(obj) == {"val", "unit_digits"}:
        val, digits = obj["val"], obj["unit_digits"]
        if not isinstance(val, int) or isinstance(val, bool):
            raise InputError(f"valuation must be an integer, got {val!r}",
                             path=where + ".val")
        try:
            magnitude(field.prime, val)  # before p ** val is built
        except DomainError as exc:
            raise InputError(str(exc), path=where + ".val")
        if (not isinstance(digits, list) or not digits
                or not all(isinstance(d, int) and not isinstance(d, bool) for d in digits)):
            raise InputError("unit_digits must be a nonempty list of integers",
                             path=where + ".unit_digits")
        try:
            x = PadicScalar.from_unit_digits(field, val, digits)
        except CertificationError as exc:
            raise InputError(str(exc), path=where)
        p = field.prime
        if not all(0 <= d < p for d in digits):
            raise InputError(f"unit_digits must be base-{p} digits 0..{p - 1}, got {digits!r}",
                             path=where + ".unit_digits")
    else:
        raise InputError(f'expected an integer, {{"rat": "a/b"}} or '
                         f'{{"val", "unit_digits"}}, got {obj!r}', path=where)
    try:
        abs(x)  # |x|_p must be a float
    except DomainError as exc:
        raise InputError(str(exc), path=where)
    return x


def encode_scalar(field: FieldSpec, x):
    if field.kind is Kind.REAL:
        return float(x)
    if field.kind is Kind.COMPLEX:
        z = complex(x)
        return [z.real, z.imag]
    return {"rat": str(x.value)}


def decode_matrix(field: FieldSpec, obj, where: str) -> SLMatrix:
    return _decode_matrices(field, [obj], [where])[0]


def encode_matrix(g: SLMatrix) -> list:
    return [[encode_scalar(g.field, entry) for entry in row] for row in g.entries.tolist()]


def load_matrix(path) -> SLMatrix:
    doc = load_document(path)
    field = parse_field(doc)
    if "matrix" not in doc:
        raise InputError('document needs a "matrix" entry', path="matrix")
    return decode_matrix(field, doc["matrix"], "matrix")


def _decode_entries(field: FieldSpec, obj, where: str) -> list:
    """The entries of one matrix, row by row, each through decode_scalar; the
    InputError of the first bad row or entry, in reading order."""
    if not isinstance(obj, list) or not obj:
        raise InputError("matrix must be a nonempty array of rows", path=where)
    n = len(obj)
    entries = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"row {i} must be an array of {n} scalars",
                             path=f"{where}[{i}]")
        entries.extend(decode_scalar(field, entry, f"{where}[{i}][{j}]")
                       for j, entry in enumerate(row))
    return entries


_PLAIN = {float, int}
_DTYPES = {Kind.REAL: np.float64, Kind.COMPLEX: np.complex128, Kind.PADIC: object}


def _plain_entries(field: FieldSpec, obj, n: int):
    """The n * n entries of obj, row by row, when it is n >= 2 rows of n finite
    plain JSON numbers over R, or over C of such numbers and [re, im] pairs of
    them, each pair as a complex; None when any of it needs decode_scalar to
    judge.  An int must lie in the float range before math.isfinite reads it."""
    if (n < 2 or type(obj) is not list or len(obj) != n
            or not all(type(row) is list and len(row) == n for row in obj)):
        return None
    entries = list(itertools.chain.from_iterable(obj))
    pairs = [x for x in entries if type(x) is list] if field.kind is Kind.COMPLEX else []
    numbers = entries
    if pairs:
        if any(len(x) != 2 for x in pairs):
            return None
        numbers = [x for x in entries if type(x) is not list] + list(
            itertools.chain.from_iterable(pairs))
    types = set(map(type, numbers))
    if (not types <= _PLAIN
            or int in types and not all(
                abs(x) <= sys.float_info.max for x in numbers if type(x) is int)
            or not all(map(math.isfinite, numbers))):
        return None
    return [complex(*x) if type(x) is list else x for x in entries] if pairs else entries


def _stack(field: FieldSpec, entries: list, n: int) -> np.ndarray:
    """The read-only (k, n, n) field array of k matrices' entries, each a
    flat list of scalars."""
    flat = np.array(entries, dtype=_DTYPES[field.kind])
    flat.setflags(write=False)
    return flat.reshape(len(entries), n, n)


def _read(field: FieldSpec, matrix, where: str, n, first: str) -> list:
    """The entries of one matrix of a list, row by row, as the field's
    scalars; n is the size of the list's matrix 0, at the path first, and
    None for matrix 0 itself.  A matrix of another size passes its
    determinant gate first."""
    size = n if n is not None else len(matrix) if type(matrix) is list else 0
    entries = None if field.is_padic else _plain_entries(field, matrix, size)
    if entries is not None:
        return entries
    entries = _decode_entries(field, matrix, where)
    m = len(matrix)
    if m < 2:
        raise InputError("matrix must be square of size at least 2", path=where)
    if n is not None and m != n:
        bad = determinant_failure(field, _stack(field, [entries], m))
        raise InputError(bad[1] if bad else f"a {m}x{m} matrix, but {first} is {n}x{n}",
                         path=where)
    return entries


def _decode_matrices(field: FieldSpec, obj: list, paths: list) -> list:
    """The SLMatrix of each matrix of a nonempty list, all of the size of the
    first; paths[i] is where matrix i sits in its document.

    One pass over the list reads every matrix into one (k, n, n) stack of the
    field's scalars: over R and C a matrix of finite plain JSON numbers is
    taken as it is, and any other matrix is read scalar by scalar through
    decode_scalar, the one definition of a valid scalar, which also names the
    first bad entry.  Over Q_p every matrix is read scalar by scalar.  The
    pass stops at the first matrix in error, and one determinant_failure call
    gates the matrices before it.  So the first error in list order is
    raised; within one matrix the shape comes first, then the entries, then
    the size of at least 2, the determinant and the size of matrix 0.  Each
    SLMatrix is a view of the read-only stack.
    """
    read, failure = [], None
    for matrix, where in zip(obj, paths):
        try:
            read.append(_read(field, matrix, where, len(obj[0]) if read else None, paths[0]))
        except InputError as exc:
            failure = exc
            break
    if not read:
        raise failure
    stack = _stack(field, read, len(obj[0]))
    bad = determinant_failure(field, stack)
    if bad is not None:
        raise InputError(bad[1], path=paths[bad[0]])
    if failure is not None:
        raise failure
    return [SLMatrix._view(field, entries) for entries in stack]


def _load_matrices(path, key: str):
    """The document at path, and the SLMatrix list under its key."""
    doc = load_document(path)
    field = parse_field(doc)
    matrices = doc.get(key)
    if not isinstance(matrices, list) or not matrices:
        raise InputError(f'document needs a nonempty "{key}" array', path=key)
    return doc, _decode_matrices(field, matrices,
                                 [f"{key}[{i}]" for i in range(len(matrices))])


def load_generators(path):
    return _load_matrices(path, "generators")[1]


def load_separating_set(path) -> SeparatingSet:
    doc, elements = _load_matrices(path, "elements")
    m, r = doc.get("m"), doc.get("r")
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError('document needs an integer "m"', path="m")
    if m < 1:
        raise InputError(f"m must be a positive integer, got {m}", path="m")
    if not _is_number(r):
        raise InputError('document needs a numeric separation radius "r"', path="r")
    if not r > 0:
        raise InputError(f"separation radius must be positive, got {r}", path="r")
    return SeparatingSet(elements, m, float(r))


def report_text(report) -> str:
    """json.dumps(report, indent=2), character for character, written directly.

    json's indented output comes from its pure-Python encoder; this is the
    same walk with fewer steps, appending to one list: the type tests in
    json's order, strings through json's encode_basestring_ascii, floats by
    float.__repr__ with NaN, Infinity and -Infinity where json writes them,
    ints by int.__repr__, keys converted as json converts them, and a
    TypeError wherever json raises one.  Unlike json it does not look for
    circular references: a report never holds one.
    """
    out = []
    _write(report, out, "\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _float_text(x) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_text(value):
    """json's text of a str, None, bool, int or float, else None."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key) -> str:
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, float):
        return _escape(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _escape(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value, out: list, newline: str) -> None:
    """Append json's indent=2 text of value, whose lines start with newline."""
    text = _scalar_text(value)
    if text is not None:
        out.append(text)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, item in value.items():
            out.append(inner)
            out.append(_key_text(key))
            out.append(": ")
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _row(field: FieldSpec, row) -> list:
    return [encode_scalar(field, c) for c in row.tolist()]


def encode_point(P) -> dict:
    return {"point": _row(P.field, P.rep)}


def encode_form(H) -> dict:
    return {"form": _row(H.field, H.form)}


def encode_contraction_cert(cert: ContractionCert) -> dict:
    prov = measured(cert.attracting.field)
    return {
        "epsilon": tagged(cert.epsilon, prov),
        "ratio": tagged(cert.ratio, prov),
        "attracting": encode_point(cert.attracting),
        "repelling": encode_form(cert.repelling),
    }


def encode_proximal_cert(cert: ProximalCert) -> dict:
    prov = measured(cert.forward.attracting.field)
    out = {
        "r": tagged(cert.r, prov),
        "epsilon": tagged(cert.epsilon, prov),
        "forward": encode_contraction_cert(cert.forward),
    }
    if cert.backward is not None:
        out["backward"] = encode_contraction_cert(cert.backward)
    return out


def encode_pingpong_cert(cert: PingPongCert) -> dict:
    prov = measured(cert.generators[0].field)
    return {
        "m": cert.m,
        "r": tagged(cert.r, prov),
        "epsilon": tagged(cert.epsilon, prov),
        "generators": [encode_matrix(g) for g in cert.generators],
        "certificates": [encode_proximal_cert(c) for c in cert.certificates],
        "separations": [
            {"from": [i, si], "to": [j, sj], "distance": tagged(d, prov)}
            for (i, si), (j, sj), d in cert.separations
        ],
    }
