"""JSON documents for matrices, separating sets and certificates.

One document format everywhere: the field specification sits at the
document root and every matrix, point and form inside inherits it.
Scalars encode as plain numbers over R, [re, im] pairs over C, and either
{"rat": "a/b"} or {"val": j, "unit_digits": [d0, d1, ...]} over Q_p
(little-endian base-p digits).  Schema violations raise InputError with a
dotted path to the offending location, e.g. "generators[1][0][2]".

Report numerics are wrapped in {"value", "provenance"} pairs so a reader
can tell exact arithmetic from toleranced checks and Monte-Carlo
estimates without consulting the code that produced them.
"""

import hashlib
import json
import sys
from fractions import Fraction

from .cartan import SLMatrix
from .contraction import ContractionCert, ProximalCert
from .errors import CertificationError, InputError
from .fields import COMPLEX, DEFAULT_PADIC_PRECISION, REAL, FieldSpec, Kind, PadicScalar, padic
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
        return field.scalar(obj)
    if isinstance(obj, dict) and set(obj) == {"rat"}:
        try:
            return field.scalar(Fraction(obj["rat"]))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"bad rational {obj['rat']!r}: {exc}", path=where)
    if isinstance(obj, dict) and set(obj) == {"val", "unit_digits"}:
        val, digits = obj["val"], obj["unit_digits"]
        if not isinstance(val, int) or isinstance(val, bool):
            raise InputError(f"valuation must be an integer, got {val!r}",
                             path=where + ".val")
        if (not isinstance(digits, list) or not digits
                or not all(isinstance(d, int) and not isinstance(d, bool) for d in digits)):
            raise InputError("unit_digits must be a nonempty list of integers",
                             path=where + ".unit_digits")
        try:
            return PadicScalar.from_unit_digits(field, val, digits)
        except CertificationError as exc:
            raise InputError(str(exc), path=where)
    raise InputError(f'expected an integer, {{"rat": "a/b"}} or '
                     f'{{"val", "unit_digits"}}, got {obj!r}', path=where)


def encode_scalar(field: FieldSpec, x):
    if field.kind is Kind.REAL:
        return float(x)
    if field.kind is Kind.COMPLEX:
        z = complex(x)
        return [z.real, z.imag]
    return {"rat": str(Fraction(x.value))}


def decode_matrix(field: FieldSpec, obj, where: str) -> SLMatrix:
    if not isinstance(obj, list) or not obj:
        raise InputError("matrix must be a nonempty array of rows", path=where)
    n = len(obj)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"row {i} must be an array of {n} scalars",
                             path=f"{where}[{i}]")
        rows.append([decode_scalar(field, entry, f"{where}[{i}][{j}]")
                     for j, entry in enumerate(row)])
    try:
        return SLMatrix(field, rows)
    except CertificationError as exc:
        raise InputError(str(exc), path=where)


def encode_matrix(g: SLMatrix) -> list:
    return [[encode_scalar(g.field, entry) for entry in row] for row in g.entries.tolist()]


def load_matrix(path) -> SLMatrix:
    doc = load_document(path)
    field = parse_field(doc)
    if "matrix" not in doc:
        raise InputError('document needs a "matrix" entry', path="matrix")
    return decode_matrix(field, doc["matrix"], "matrix")


def _decode_matrices(field: FieldSpec, obj: list, where: str) -> list:
    """The matrices of a document's list; each must have the size of entry 0."""
    out = []
    for i, entry in enumerate(obj):
        g = decode_matrix(field, entry, f"{where}[{i}]")
        if out and g.n != out[0].n:
            raise InputError(f"a {g.n}x{g.n} matrix, but {where}[0] is {out[0].n}x{out[0].n}",
                             path=f"{where}[{i}]")
        out.append(g)
    return out


def load_generators(path):
    doc = load_document(path)
    field = parse_field(doc)
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputError('document needs a nonempty "generators" array',
                         path="generators")
    return _decode_matrices(field, gens, "generators")


def load_separating_set(path) -> SeparatingSet:
    doc = load_document(path)
    field = parse_field(doc)
    elements = doc.get("elements")
    if not isinstance(elements, list) or not elements:
        raise InputError('document needs a nonempty "elements" array', path="elements")
    decoded = _decode_matrices(field, elements, "elements")
    m, r = doc.get("m"), doc.get("r")
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError('document needs an integer "m"', path="m")
    if m < 1:
        raise InputError(f"m must be a positive integer, got {m}", path="m")
    if not _is_number(r):
        raise InputError('document needs a numeric separation radius "r"', path="r")
    if not r > 0:
        raise InputError(f"separation radius must be positive, got {r}", path="r")
    return SeparatingSet(decoded, m, float(r))


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
