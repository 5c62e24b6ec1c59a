"""Scalar arithmetic over the local fields R, C and Q_p.

Archimedean scalars are plain Python floats and complexes.  p-adic scalars
are exact rationals, held as two plain ints (numerator, and a positive
denominator in lowest terms) and read as a Fraction through their value
property, together with a count of known significant digits, mimicking a
fixed-precision p-adic model: arithmetic propagates the digit count, and an
operation whose nonzero result would retain less than one known digit
raises PrecisionExhaustedError instead of returning noise.
Exact cancellation yields an exact zero, so structural identities such as
x - x = 0 hold on the nose.  The operators take each result's valuation from
their operands: a product's is the sum, a quotient's the difference, a
negation's the same, and a sum's the smaller one unless the two are equal,
when only the exact value can tell.

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


def _vp(x, p: int):
    """Exact p-adic valuation of an int or a Fraction; +inf for zero."""
    return _valuation(x.numerator, x.denominator, p)


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
            raise PrecisionExhaustedError(
                f"cancellation left a result of valuation {v} known only modulo "
                f"{field.prime}^{abs_prec}")
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
        return float(self.field.prime) ** (-self.valuation)

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
    if isinstance(x, PadicScalar):
        if x.field != field:
            raise DomainError(f"scalar belongs to {x.field}, not {field}")
        return x.valuation
    if isinstance(x, float):
        raise DomainError("floats cannot be read as p-adic scalars; use ints or Fractions")
    return _vp(Fraction(x), field.prime)
