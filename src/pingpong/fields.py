"""Scalar arithmetic over the local fields R, C and Q_p, and the one home of
the p-adic model.

Archimedean scalars are plain Python floats and complexes.  A PadicScalar
is an exact rational and a count of known significant digits, the
capped-relative model of Caruso, Roe and Vaccon: arithmetic propagates the
digit count, and an operation whose nonzero result would retain less than
one known digit raises PrecisionExhaustedError instead of returning noise.
Exact cancellation yields an exact zero, so x - x = 0 holds on the nose.
The operators take each result's valuation from their operands (see
PadicScalar).  |x|_p is magnitude(p, v) = p^-v as a float, and DomainError
where that is not a finite positive float.

No other module reads how a p-adic number is stored.  The projective
distance kernels and separation's configurations run on the int-term form
of p-adic arrays defined here, _Terms to _padic_abs, under the same digit
rule and magnitude.  A term is (ints, valuations, digits, zero), the
valuations and digits int64; an entry is one int times a scale, one power
of p and one unit per row or per whole matrix (never per row of a matrix,
which would move the pivot of g v).  The scale cancels in a canonical row
and shifts every valuation of one sum alike, so it changes no digit count;
it is kept as a p-power shift only to report absolute valuations.
_padic_read reads a PadicScalar array into a term in one pass over its
entries, and an object array of Python ints as exact full-digit scalars:
the Q_p sample streams are such ints, so sampled rows never become
PadicScalars on the way to a distance.

Matrices and projective rows keep scalars of every field in numpy arrays,
p-adic ones in object arrays, so one numpy expression serves R, C and Q_p.
Products of such arrays go through matmul.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PrecisionExhaustedError

DEFAULT_PADIC_PRECISION = 40


def relative_tolerance() -> float:
    """Relative tolerance of the archimedean equality-like checks, a constant."""
    return 1e-9


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


class Kind(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"
    PADIC = "padic"


@dataclass(frozen=True)
class FieldSpec:
    """One of the supported local fields, with precision data for Q_p."""

    kind: Kind
    prime: int | None = None
    precision: int | None = None

    def __post_init__(self):
        if self.kind is Kind.PADIC:
            if self.prime is None or not _is_prime(self.prime):
                raise DomainError(f"p-adic field needs a prime, got {self.prime}")
            if self.precision is None:
                object.__setattr__(self, "precision", DEFAULT_PADIC_PRECISION)
            if (not isinstance(self.precision, int) or isinstance(self.precision, bool)
                    or self.precision < 1):
                raise DomainError(f"precision must be a positive integer, got {self.precision}")
        elif self.prime is not None or self.precision is not None:
            raise DomainError("prime/precision only make sense for p-adic fields")

    @property
    def is_padic(self) -> bool:
        return self.kind is Kind.PADIC

    @property
    def d(self) -> float:
        """Proximality constant: 4 archimedean, p non-archimedean."""
        return float(self.prime) if self.is_padic else 4.0

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def scalar(self, x):
        """Coerce x into this field's scalar type."""
        if self.kind is Kind.PADIC:
            if isinstance(x, PadicScalar):
                if x.field is not self and x.field != self:
                    raise DomainError(f"scalar belongs to {x.field}, not {self}")
                return x
            return PadicScalar(self, x)
        if isinstance(x, PadicScalar):
            raise DomainError("cannot coerce a p-adic scalar into an archimedean field")
        if self.kind is Kind.COMPLEX:
            return complex(x)
        value = complex(x)
        if value.imag != 0.0:
            raise DomainError(f"value {x} has a nonzero imaginary part")
        return value.real

    def __str__(self) -> str:
        if self.kind is Kind.REAL:
            return "R"
        if self.kind is Kind.COMPLEX:
            return "C"
        return f"Q_{self.prime}"


REAL = FieldSpec(Kind.REAL)
COMPLEX = FieldSpec(Kind.COMPLEX)


def padic(prime: int, precision: int = DEFAULT_PADIC_PRECISION) -> FieldSpec:
    return FieldSpec(Kind.PADIC, prime, precision)


def _valuation(num: int, den: int, p: int):
    """Exact p-adic valuation of num/den in lowest terms; +inf for zero."""
    if not num:
        return math.inf
    if num % p == 0:
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        return v
    v = 0
    while den % p == 0:
        den //= p
        v -= 1
    return v


def magnitude(p: int, v) -> float:
    """|x|_p = float(p) ** -v for a valuation v; DomainError where that is
    not a finite positive float (for p = 5, v outside -441..462)."""
    try:
        x = float(p) ** -v
    except OverflowError:
        x = math.inf
    if not 0.0 < x < math.inf:
        raise DomainError(f"p-adic absolute value {p}^{-v} is outside the float range")
    return x


def _cancellation(p: int, v, abs_prec) -> PrecisionExhaustedError:
    """The error of a nonzero sum of valuation v known only modulo p^abs_prec."""
    return PrecisionExhaustedError(
        f"cancellation left a result of valuation {v} known only modulo {p}^{abs_prec}")


class PadicScalar:
    """Element of Q_p: an exact rational plus known-digit bookkeeping.

    The rational is two plain ints, ``num`` and ``den`` > 0 in lowest terms
    (an exact zero is 0/1); ``value`` reads it as a Fraction.  ``digits``
    counts known significant base-p digits; a full-precision scalar has
    ``field.precision`` of them.  Addition can destroy digits through
    cancellation, multiplication keeps the minimum of the two counts.
    Instances are immutable.

    __init__ reads an int as num/1 and anything else through Fraction, and
    finds the valuation.  The operators +, -, *, / and unary - do the int
    arithmetic themselves, reducing by a gcd only where a denominator is not
    1, and build their results with _known: v(xy) = v(x) + v(y),
    v(x/y) = v(x) - v(y), v(-x) = v(x), and v(x + y) = min(v(x), v(y)) when
    v(x) != v(y); only a sum of equal valuations reads the valuation off its
    value.  Each result has the value, digits and valuation __init__ would
    give it.
    """

    __slots__ = ("field", "num", "den", "digits", "valuation")

    def __init__(self, field: FieldSpec, value, digits: int | None = None):
        if not field.is_padic:
            raise DomainError("PadicScalar needs a p-adic field")
        if type(value) is int:
            num, den = value, 1
        else:
            if isinstance(value, float):
                raise DomainError("floats cannot be read as p-adic scalars; use ints or Fractions")
            try:
                value = Fraction(value)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"cannot read {value!r} as a p-adic scalar") from exc
            num, den = value.numerator, value.denominator
        if digits is None or not num:
            digits = field.precision
        if digits < 1:
            raise PrecisionExhaustedError(
                f"p-adic scalar with {digits} known digits (need at least 1)")
        self.field = field
        self.num = num
        self.den = den
        self.digits = digits
        self.valuation = _valuation(num, den, field.prime)

    @property
    def value(self) -> Fraction:
        """The exact rational num/den."""
        return Fraction(self.num, self.den)

    @classmethod
    def from_unit_digits(cls, field: FieldSpec, val: int, unit_digits: list[int]) -> "PadicScalar":
        """Rebuild p^val * (sum of unit_digits[i] * p^i) from little-endian digits."""
        p = field.prime
        if not unit_digits or unit_digits[0] % p == 0:
            raise DomainError("unit digits must start with a nonzero digit mod p")
        unit = sum(d % p * p ** i for i, d in enumerate(unit_digits))
        return cls(field, unit * p ** val if val >= 0 else unit / Fraction(p) ** -val,
                   len(unit_digits))

    @classmethod
    def _known(cls, field: FieldSpec, num: int, den: int, digits: int, valuation) -> "PadicScalar":
        """An operator's result, built from what its operands tell: num/den
        is already in lowest terms and valuation is exact.  A zero gets full
        digits and valuation +inf, as __init__ gives it."""
        x = object.__new__(cls)
        x.field = field
        x.num = num
        x.den = den
        if num:
            x.digits, x.valuation = digits, valuation
        else:
            x.digits, x.valuation = field.precision, math.inf
        return x

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            if other.field is not self.field and other.field != self.field:
                raise DomainError(f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicScalar(self.field, other)
        raise DomainError(f"cannot treat {type(other).__name__} as a p-adic scalar")

    def __add__(self, other):
        if other.__class__ is not PadicScalar or other.field is not self.field:
            other = self._coerce(other)
        field = self.field
        a, b, c, d = self.num, self.den, other.num, other.den
        # a/b + c/d is in lowest terms as it stands when b or d is 1
        if b == 1:
            num, den = a * d + c, d
        elif d == 1:
            num, den = a + c * b, b
        else:
            num, den = a * d + c * b, b * d
            g = math.gcd(num, den)
            num, den = num // g, den // g
        if not num:
            return PadicScalar._known(field, 0, 1, field.precision, math.inf)
        # |x + y| = max(|x|, |y|) unless the two valuations are equal
        if self.valuation == other.valuation:
            v = _valuation(num, den, field.prime)
        else:
            v = min(self.valuation, other.valuation)
        # abs_prec = valuation + digits of the least precisely known operand
        abs_prec = min(self.valuation + self.digits, other.valuation + other.digits)
        digits = abs_prec - v
        if digits < 1:
            raise _cancellation(field.prime, v, abs_prec)
        return PadicScalar._known(field, num, den, min(digits, field.precision), v)

    __radd__ = __add__

    def __neg__(self):
        return PadicScalar._known(self.field, -self.num, self.den, self.digits, self.valuation)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not PadicScalar or other.field is not self.field:
            other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == 1 and d == 1:
            num, den = a * c, 1
        else:
            g, h = math.gcd(a, d), math.gcd(c, b)
            num, den = (a // g) * (c // h), (b // h) * (d // g)
        return PadicScalar._known(self.field, num, den, min(self.digits, other.digits),
                                  self.valuation + other.valuation)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.num:
            raise DomainError("division by zero")
        a, b, c, d = self.num, self.den, other.num, other.den
        g, h = math.gcd(a, c), math.gcd(b, d)
        num, den = (a // g) * (d // h), (b // h) * (c // g)
        if den < 0:
            num, den = -num, -den
        return PadicScalar._known(self.field, num, den, min(self.digits, other.digits),
                                  self.valuation - other.valuation)

    def __rtruediv__(self, other):
        if not self.num:
            raise DomainError("division by zero")
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, PadicScalar):
            return ((self.field is other.field or self.field == other.field)
                    and self.num == other.num and self.den == other.den)
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        if isinstance(other, Fraction):
            return self.num == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # an integral Fraction hashes as its int
        return hash((self.field, self.num if self.den == 1 else self.value))

    def __bool__(self):
        return bool(self.num)

    def abs(self) -> float:
        if not self.num:
            return 0.0
        return magnitude(self.field.prime, self.valuation)

    __abs__ = abs

    def unit_digits(self, count: int | None = None) -> list[int]:
        """Little-endian base-p digits of the unit part, to ``count`` places."""
        if not self.num:
            raise DomainError("zero has no unit part")
        if count is None:
            count = self.digits
        p = self.field.prime
        # the unit num/den divided by p^valuation: the power leaves num or den
        num, den, v = self.num, self.den, self.valuation
        if v >= 0:
            num //= p ** v
        else:
            den //= p ** -v
        m = p ** count
        u = num * pow(den, -1, m) % m
        out = []
        for _ in range(count):
            out.append(u % p)
            u //= p
        return out

    def __repr__(self):
        return f"PadicScalar({self.value}, p={self.field.prime}, digits={self.digits})"


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for field arrays.  PadicScalar arrays multiply as the explicit
    sum (a[..., :, :, None] * b[..., None, :, :]).sum(-2), which adds in the
    order of numpy's object matmul but lets a PrecisionExhaustedError through:
    the object matmul keeps calling __mul__ after a sum has raised and ends in
    a SystemError.  Other arrays, ints and Fractions too, take @ itself."""
    if not any(x.dtype == object and x.size and isinstance(x.flat[0], PadicScalar) for x in (a, b)):
        return a @ b
    if b.ndim == 1:
        return matmul(a, b[:, None])[..., 0]
    if a.ndim == 1:
        return matmul(a[None], b)[..., 0, :]
    return (a[..., :, :, None] * b[..., None, :, :]).sum(-2)


def abs_value(x, field: FieldSpec) -> float:
    """|x| in the given field: usual modulus, or p^(-valuation)."""
    return abs(field.scalar(x))


def valuation(x, field: FieldSpec):
    """Exponent j with |x| = p^(-j); +inf for zero.  p-adic fields only."""
    if not field.is_padic:
        raise DomainError(f"valuation is only defined over p-adic fields, not {field}")
    return field.scalar(x).valuation


def _canonical_padic_row(row: list) -> list:
    """A list of PadicScalars over its first entry of least valuation; a
    zero row raises DomainError."""
    pivot = min(row, key=lambda c: c.valuation)
    if not pivot:
        raise DomainError("projective representative must be nonzero")
    # dividing a row by a pivot of exactly 1 known to at least each
    # nonzero entry's digits would change no value and no digit count
    if pivot == 1 and all(not c or c.digits <= pivot.digits for c in row):
        return row
    return [c / pivot for c in row]


# the valuation and absolute precision of an exact zero
_INF = np.iinfo(np.int64).max


def _over_common_denominator(scalars: list) -> tuple:
    """(ints, D) of a nonempty list of exact scalars of one kind, PadicScalars
    or ints, Fractions and floats, a float read as the dyadic rational it
    holds: D the lcm of their denominators, ints their values times D."""
    if type(scalars[0]) is PadicScalar:
        nums, dens = [c.num for c in scalars], [c.den for c in scalars]
    else:
        nums, dens = zip(*[x.as_integer_ratio() for x in scalars])
    den = math.lcm(*set(dens))
    return [a * (den // d) for a, d in zip(nums, dens)] if den > 1 else list(nums), den


class _Terms:
    """A p-adic array in the int-term form of the distance kernels: ``term``
    (ints, valuations, digits, zero), each of the array's shape, and
    ``shift``, per block of the last one or two axes (a row or a matrix) the
    valuation of the scale its ints are multiplied by.  Indexing takes the
    leading (block) axes of both, so a stack of terms slices as the array."""

    __slots__ = ("term", "shift")

    def __init__(self, term: tuple, shift):
        self.term = term
        self.shift = shift

    def __getitem__(self, index) -> "_Terms":
        return _Terms(tuple(part[index] for part in self.term), self.shift[index])

    def __len__(self) -> int:
        return len(self.term[0])

    @property
    def shape(self) -> tuple:
        return self.term[0].shape


def _valuations(ints: np.ndarray, p: int) -> np.ndarray:
    """The int64 valuation of each int of an object array, 0 for a zero:
    numpy's % p first, so that _valuation runs only on the ints p divides."""
    flat = ints.ravel()
    vals = np.zeros(flat.shape, dtype=np.int64)
    hits = (flat % p == 0).nonzero()[0]
    if len(hits):
        vals[hits] = [_valuation(x, 1, p) if x else 0 for x in flat[hits].tolist()]
    return vals.reshape(ints.shape)


def _padic_ints(field: FieldSpec, ints: np.ndarray) -> tuple:
    """The term of an object array of Python ints, each read as
    PadicScalar(field, x) reads it: exact, with full digits."""
    return (ints, _valuations(ints, field.prime),
            np.full(ints.shape, field.precision, dtype=np.int64), ints == 0)


def _padic_read(field: FieldSpec, arr, axes: int) -> _Terms:
    """The _Terms of a p-adic array, per block of the last `axes` axes (1:
    rows, 2: matrices): a _Terms as it is; an object array of Python ints as
    exact ints with full digits, shift 0; PadicScalars scaled to ints over
    the whole array's common denominator D, the shift of every block -v(D)."""
    if isinstance(arr, _Terms):
        return arr
    shape, blocks = arr.shape, arr.shape[:arr.ndim - axes]
    if arr.size and type(arr.flat[0]) is int:
        return _Terms(_padic_ints(field, arr), np.zeros(blocks, dtype=np.int64))
    scalars = arr.ravel().tolist()
    nums, den = _over_common_denominator(scalars) if scalars else ([], 1)
    shift = -_valuation(den, 1, field.prime)
    ints = np.array(nums, dtype=object).reshape(shape)
    vals = [c.valuation - shift if c.num else 0 for c in scalars]
    return _Terms((ints, np.array(vals, dtype=np.int64).reshape(shape),
                   np.array([c.digits for c in scalars], dtype=np.int64).reshape(shape), ints == 0),
                  np.full(blocks, shift, dtype=np.int64))


def _padic_product(a: tuple, b: tuple, at_a, at_b) -> tuple:
    """The term of the products of a's entries at index at_a and b's at
    at_b, broadcast: the valuations add, the digits are the fewer of the
    two, and a product with a zero factor is an exact zero."""
    (x, x_vals, x_digits, x_zero), (y, y_vals, y_digits, y_zero) = (
        [part[at_a] for part in a], [part[at_b] for part in b])
    return x * y, x_vals + y_vals, np.minimum(x_digits, y_digits), x_zero | y_zero


def _padic_sum(field: FieldSpec, terms: list, shift) -> tuple:
    """The term of the left-to-right sums of the terms under the digit rule
    of PadicScalar.__add__: absolute precision is the min of the operands',
    an exact zero has full digits, digits are capped at the precision, and a
    nonzero sum known to less than one digit raises its error.  The error is
    that of the first sum in C order to fall short, at its first short step,
    as numpy's object sums, one sum after another, raise it.  shift
    broadcasts to the sums: the valuation of their scale, for the message."""
    p = field.prime
    total, vals, digits, zero = terms[0]
    known = np.where(zero, _INF, vals + digits)
    fallen, first = np.zeros((), dtype=bool), None
    for ints, vals_k, digits_k, zero_k in terms[1:]:
        precision = np.minimum(known, np.where(zero_k, _INF, vals_k + digits_k))
        total = total + ints
        zero = total == 0
        vals = _valuations(total, p)
        digits = precision - vals
        short = ~zero & (digits < 1)
        if short.any():
            short &= ~fallen  # the sums short here for the first time
            at = int(np.argmax(short))
            if short.flat[at] and (first is None or at < first[0]):
                first = at, vals.flat[at], precision.flat[at]
            fallen = fallen | short
        known = np.where(zero, _INF, vals + np.minimum(digits, field.precision))
    if first is not None:
        at, v, abs_prec = first
        moved = np.broadcast_to(shift, fallen.shape).flat[at]
        raise _cancellation(p, v + moved, abs_prec + moved)
    return total, vals, known - vals, zero


def _padic_canonical(term: tuple) -> tuple:
    """(term, pivot valuations) of canonical rows: each row divided by its
    first entry of least valuation, which leaves its ints as they are and
    takes each entry's digits down to the pivot's; the valuations stay those
    of the ints, and the pivot's is subtracted by the caller."""
    ints, vals, digits, zero = term
    key = np.where(zero, _INF, vals)
    least = key.min(-1, initial=_INF)
    if (least == _INF).any():
        raise DomainError("projective representative must be nonzero")
    pivot = key.argmin(-1).reshape(-1)
    rows = digits.reshape(len(pivot), digits.shape[-1])
    pivot_digits = rows[np.arange(len(pivot)), pivot].reshape(least.shape + (1,))
    return (ints, vals, np.minimum(digits, pivot_digits), zero), least


def _padic_canonical_terms(term: tuple) -> _Terms:
    """The _Terms of canonical rows (_padic_canonical): the ints as they are,
    each row's scale 1 over its pivot int."""
    term, least = _padic_canonical(term)
    return _Terms(term, -least)


def _padic_scalars(field: FieldSpec, term: tuple) -> np.ndarray:
    """The PadicScalar array of a canonical term's rows: each int over its
    row's pivot int, the first of least valuation, with the term's digits,
    the values and digits canonical_rows gives the same rows as PadicScalars."""
    ints, vals, digits, zero = term
    pivot = np.where(zero, _INF, vals).argmin(-1)[..., None]
    pivots = np.broadcast_to(np.take_along_axis(ints, pivot, -1), ints.shape)
    scalars = [PadicScalar(field, Fraction(x, y), d) for x, y, d in
               zip(ints.ravel().tolist(), pivots.ravel().tolist(), digits.ravel().tolist())]
    return np.array(scalars, dtype=object).reshape(ints.shape)


def _padic_abs(field: FieldSpec, vals, zero) -> np.ndarray:
    """magnitude of each valuation, 0.0 where zero: the float power
    PadicScalar.abs takes, which numpy's array power can miss by an ulp."""
    vals = np.where(zero, 0, vals)
    low, high = int(vals.min(initial=0)), int(vals.max(initial=0))
    magnitude(field.prime, high)  # so that an error names a valuation that occurs
    powers = [magnitude(field.prime, k) for k in range(low, high + 1)]
    return np.where(zero, 0.0, np.array(powers)[vals - low])
