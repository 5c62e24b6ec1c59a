import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FractionPadicScalar,
    padic_add_by_init,
    padic_div_by_init,
    padic_mul_by_init,
    padic_neg_by_init,
    padic_rdiv_by_init,
    padic_rsub_by_init,
    padic_sub_by_init,
)
from pingpong.errors import DomainError, PrecisionExhaustedError
from pingpong.fields import (
    COMPLEX,
    REAL,
    FieldSpec,
    Kind,
    PadicScalar,
    abs_value,
    matmul,
    padic,
    valuation,
)

Q5 = padic(5)


def test_absolute_values():
    assert abs_value(-3, REAL) == 3
    assert abs_value(5, Q5) == 0.2
    assert abs_value(1 + 1j, COMPLEX) == pytest.approx(math.sqrt(2))


def test_valuations():
    assert valuation(50, Q5) == 2
    assert valuation(1, Q5) == 0
    assert valuation(Fraction(1, 5), Q5) == -1
    assert valuation(0, Q5) == math.inf
    with pytest.raises(DomainError):
        valuation(3, REAL)


def test_field_spec_validation():
    with pytest.raises(DomainError):
        padic(4)
    with pytest.raises(DomainError):
        padic(5, 0)
    with pytest.raises(DomainError, match="got True"):
        padic(5, True)  # bool is an int subclass, not a precision
    with pytest.raises(DomainError):
        FieldSpec(Kind.REAL, prime=5)
    assert REAL.d == 4.0
    assert COMPLEX.d == 4.0
    assert padic(7).d == 7.0
    assert str(Q5) == "Q_5"


def test_scalar_coercion():
    assert REAL.scalar(3) == 3.0
    assert REAL.scalar(1 + 0j) == 1.0
    with pytest.raises(DomainError):
        REAL.scalar(1j)
    assert COMPLEX.scalar(2) == 2 + 0j
    with pytest.raises(DomainError):
        Q5.scalar(0.5)
    with pytest.raises(DomainError):
        Q5.scalar(padic(7).scalar(1))


def _random_rational(rng, p):
    num = rng.randint(-60, 60)
    den = rng.randint(1, 60)
    e = rng.randint(-4, 4)
    return Fraction(num, den) * Fraction(p) ** e


def test_padic_ultrametric_and_multiplicativity():
    rng = random.Random(20260821)
    p = 5
    f = padic(p)
    for _ in range(100_000):
        x = f.scalar(_random_rational(rng, p))
        y = f.scalar(_random_rational(rng, p))
        s = x + y
        assert s.abs() <= max(x.abs(), y.abs())
        if x.abs() != y.abs():
            assert s.abs() == max(x.abs(), y.abs())
        # |xy| = |x||y| holds exactly: both sides are p^-(v(x)+v(y))
        prod = x * y
        assert prod.valuation == x.valuation + y.valuation
        assert prod.abs() == pytest.approx(x.abs() * y.abs(), rel=1e-12)


def test_archimedean_multiplicativity():
    rng = random.Random(7)
    for _ in range(50_000):
        x = rng.uniform(-100, 100)
        y = rng.uniform(-100, 100)
        assert abs_value(x * y, REAL) == pytest.approx(abs(x) * abs(y), rel=1e-12)
    for _ in range(50_000):
        x = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
        y = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
        assert abs_value(x * y, COMPLEX) == pytest.approx(abs(x) * abs(y), rel=1e-12)


def test_cancellation_costs_digits():
    f = padic(5, 40)
    x = f.scalar(1 + 5 ** 10)
    y = x - 1
    assert y.valuation == 10
    assert y.digits == 30


def test_deep_cancellation_raises():
    f = padic(5, 40)
    x = f.scalar(1 + Fraction(5) ** 50)
    with pytest.raises(PrecisionExhaustedError):
        x - 1


def test_exact_zero_is_representable():
    x = Q5.scalar(Fraction(7, 10))
    z = x - x
    assert not z
    assert z.abs() == 0.0
    assert z.valuation == math.inf
    assert z.digits == Q5.precision
    # exact zeros do not poison later precision
    assert (z + Q5.one()).digits == Q5.precision


def test_matmul_lets_precision_loss_through():
    # 1 * 1 + 24 * 1 = 25 is known only modulo 5^2 at two digits.  On a stack,
    # numpy's object matmul turns that error into a SystemError
    f = padic(5, 2)
    a = np.array([[[f.scalar(1), f.scalar(24)]] * 2] * 2)
    b = np.array([[f.one(), f.zero()], [f.one(), f.zero()]])
    with pytest.raises(PrecisionExhaustedError, match="valuation 2"):
        matmul(a, b)
    # the sum in the order of @, with vectors promoted as @ promotes them
    exact = padic(5)
    c = np.array([[exact.scalar(k + 2 * i) for k in range(2)] for i in range(2)])
    v = np.array([exact.scalar(3), exact.scalar(-1)])
    assert matmul(c, c).tolist() == (c @ c).tolist()
    assert matmul(c, v).tolist() == (c @ v).tolist()
    assert matmul(v, c).tolist() == (v @ c).tolist()
    floats = np.arange(8.0).reshape(2, 2, 2)
    assert np.array_equal(matmul(floats, floats), floats @ floats)
    # a stack of Python ints, as the falsifier's Q_p word layers hold, and an
    # empty stack multiply as @ does
    ints = np.arange(8, dtype=object).reshape(2, 2, 2) * 10 ** 30
    assert matmul(ints, ints).tolist() == (ints @ ints).tolist()
    empty = np.empty((0, 2, 2), dtype=object)
    assert matmul(empty, ints[0]).shape == (0, 2, 2)


def test_multiplication_keeps_the_weaker_digit_count():
    f = padic(5, 40)
    worn = (f.scalar(1 + 5 ** 10) - 1) / f.scalar(5 ** 10)
    assert worn.digits == 30
    assert (worn * f.one()).digits == 30
    with pytest.raises(DomainError):
        f.one() / f.zero()


def test_unit_digit_round_trip():
    f = padic(5, 40)
    x = f.scalar(Fraction(3, 25))
    assert x.valuation == -2
    assert x.unit_digits(3) == [3, 0, 0]
    assert PadicScalar.from_unit_digits(f, -2, [3]) == x
    y = f.scalar(Fraction(7, 3))
    rebuilt = PadicScalar.from_unit_digits(f, 0, y.unit_digits())
    assert valuation(y.value - rebuilt.value, f) >= 40
    with pytest.raises(DomainError):
        f.zero().unit_digits()


def _outcome(op, *args):
    """What an operation gives: the result's value, digits and valuation, or
    the error's type and message."""
    try:
        r = op(*args)
    except (DomainError, PrecisionExhaustedError) as exc:
        return type(exc), str(exc)
    return type(r), r.field, r.value, type(r.value), r.digits, r.valuation


def _reflected(forward, reflected):
    # y op x runs y's own operator when y is a PadicScalar, else x's reflected one
    return lambda x, y: forward(y, x) if isinstance(y, PadicScalar) else reflected(x, y)


# (operator on x and y, its oracle built by __init__)
_OPERATORS = [
    (operator.add, padic_add_by_init),
    (lambda x, y: y + x, _reflected(padic_add_by_init, padic_add_by_init)),
    (operator.sub, padic_sub_by_init),
    (lambda x, y: y - x, _reflected(padic_sub_by_init, padic_rsub_by_init)),
    (operator.mul, padic_mul_by_init),
    (lambda x, y: y * x, _reflected(padic_mul_by_init, padic_mul_by_init)),
    (operator.truediv, padic_div_by_init),
    (lambda x, y: y / x, _reflected(padic_div_by_init, padic_rdiv_by_init)),
]


def _assert_operators_match_init(x, y):
    assert _outcome(operator.neg, x) == _outcome(padic_neg_by_init, x)
    for op, oracle in _OPERATORS:
        assert _outcome(op, x, y) == _outcome(oracle, x, y)


@st.composite
def _operand_pairs(draw):
    """A PadicScalar x and an operand y: another scalar of the field or of an
    equal FieldSpec, an int, a Fraction, a scalar that cancels x in part or
    exactly, one of a foreign field, or a float."""
    prime, precision = draw(st.sampled_from([(3, 4), (5, 3), (5, 40), (7, 6)]))
    field = padic(prime, precision)

    def value():
        num = 0 if draw(st.integers(0, 7)) == 0 else draw(st.integers(-60, 60))
        return Fraction(num, draw(st.integers(1, 60))) * Fraction(prime) ** draw(st.integers(-4, 4))

    def digits():
        # beyond precision too: only the cap at precision bounds a sum then
        return draw(st.integers(1, precision + 3))

    x = PadicScalar(field, value(), digits())
    kind = draw(st.sampled_from(["scalar", "equal field", "int", "fraction", "cancels",
                                 "foreign", "float"]))
    if kind == "scalar":
        y = PadicScalar(field, value(), digits())
    elif kind == "equal field":
        y = PadicScalar(padic(prime, precision), value(), digits())
    elif kind == "int":
        y = draw(st.integers(-100, 100))
    elif kind == "fraction":
        y = value()
    elif kind == "cancels":
        # +-x plus a multiple of p^k: x + y or x - y loses up to k digits, or all
        k = draw(st.integers(0, precision + 4))
        y = PadicScalar(field, draw(st.sampled_from([1, -1])) * x.value
                        + value() * Fraction(prime) ** k, digits())
    elif kind == "foreign":
        other = draw(st.sampled_from([padic(prime, precision + 1), padic(11, precision)]))
        y = PadicScalar(other, value(), digits())
    else:
        y = 0.5
    return x, y


@settings(max_examples=600, deadline=None)
@given(_operand_pairs())
def test_padic_operators_match_their_init_built_oracle(pair):
    _assert_operators_match_init(*pair)


def test_padic_operators_match_oracle_on_edge_cases():
    f = padic(5, 6)
    worn = PadicScalar(f, 7, 2)
    cases = [
        (f.zero(), worn),                        # 0 / x: full digits, not the divisor's
        (PadicScalar(f, 3, 4), 0),               # x / 0 and 0 / x
        (worn, worn),                            # x - x: an exact zero
        (PadicScalar(f, 1 + 5 ** 3, 6), PadicScalar(f, -1, 6)),   # cancels three digits
        (PadicScalar(f, 1 + 5 ** 9, 6), PadicScalar(f, -1, 6)),   # cancels all of them
        (PadicScalar(f, 1, 9), PadicScalar(f, 5, 9)),             # a sum capped at precision
        (PadicScalar(f, Fraction(2, 25), 3), Fraction(-2, 25)),
        (PadicScalar(f, 4, 5), PadicScalar(padic(7, 6), 4, 5)),    # foreign field
    ]
    for x, y in cases:
        _assert_operators_match_init(x, y)
    assert (f.zero() / worn).digits == f.precision
    assert (PadicScalar(f, 1, 9) + PadicScalar(f, 5, 9)).digits == f.precision


# PadicScalar on two ints against the class it replaced, which held a Fraction

def _observed(op, *args):
    """What an operation gives, for either class: the result's field, value,
    digits and valuation, or the error's type and message."""
    try:
        r = op(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(r, PadicScalar):
        # the ints are the value in lowest terms, an exact zero 0/1
        assert r.den > 0 and math.gcd(r.num, r.den) == 1
    elif not isinstance(r, FractionPadicScalar):
        return r
    return r.field, r.value, type(r.value), r.digits, r.valuation


_ORACLE_OPERATORS = [
    operator.add, lambda x, y: y + x, operator.sub, lambda x, y: y - x,
    operator.mul, lambda x, y: y * x, operator.truediv, lambda x, y: y / x,
]


@st.composite
def _padic_values(draw, prime):
    """u p^v with u a p-adic unit and v in -6..6, or an exact zero."""
    if draw(st.integers(0, 9)) == 0:
        return Fraction(0)
    num = draw(st.integers(0, 3000)) * prime + draw(st.integers(1, prime - 1))
    den = draw(st.integers(0, 300)) * prime + draw(st.integers(1, prime - 1))
    sign = draw(st.sampled_from([1, -1]))
    return Fraction(sign * num, den) * Fraction(prime) ** draw(st.integers(-6, 6))


@st.composite
def _oracle_operands(draw):
    """(field, x, y): x is (value, digits) of a scalar of field; y is one too,
    of the field, of an equal FieldSpec or of a foreign one, or a scalar
    that cancels x in part or exactly, or an int, a Fraction or a float."""
    prime, precision = draw(st.sampled_from([(5, 3), (5, 40), (3, 3), (3, 40), (5, 7), (3, 12)]))
    field = padic(prime, precision)
    x = (draw(_padic_values(prime)), draw(st.integers(1, precision)))
    kind = draw(st.sampled_from(["scalar", "equal field", "cancels", "foreign", "int",
                                 "fraction", "float"]))
    if kind in ("scalar", "equal field", "foreign"):
        other = {"scalar": field, "equal field": padic(prime, precision),
                 "foreign": padic(7 if prime == 5 else 5, precision)}[kind]
        y = ("scalar", other, draw(_padic_values(other.prime)),
             draw(st.integers(1, other.precision)))
    elif kind == "cancels":
        k = draw(st.integers(0, precision + 4))
        y = ("scalar", field, draw(st.sampled_from([1, -1])) * x[0]
             + draw(_padic_values(prime)) * Fraction(prime) ** k, draw(st.integers(1, precision)))
    elif kind == "int":
        y = ("plain", draw(st.sampled_from([0, 1, -1, prime, -prime ** 3]))
             if draw(st.booleans()) else draw(st.integers(-10 ** 6, 10 ** 6)))
    elif kind == "fraction":
        y = ("plain", draw(_padic_values(prime)))
    else:
        y = ("plain", 0.5)
    return field, x, y


def _build(cls, field, x, y):
    scalar = cls(field, *x)
    other = cls(*y[1:]) if y[0] == "scalar" else y[1]
    return scalar, other


@settings(max_examples=800, deadline=None)
@given(_oracle_operands())
def test_padic_scalar_matches_the_fraction_oracle(operands):
    new, old = _build(PadicScalar, *operands), _build(FractionPadicScalar, *operands)
    assert _observed(operator.neg, new[0]) == _observed(operator.neg, old[0])
    for op in _ORACLE_OPERATORS:
        assert _observed(op, *new) == _observed(op, *old)
    (x, y), (ox, oy) = new, old
    assert (x == y, y == x, x != y) == (ox == oy, oy == ox, ox != oy)
    assert (hash(x), bool(x), abs(x), repr(x)) == (hash(ox), bool(ox), abs(ox), repr(ox))
    assert x.value == ox.value and type(x.value) is Fraction
    for count in (None, 1, 5):
        assert _observed(x.unit_digits, count) == _observed(ox.unit_digits, count)


_ORACLE_FIELDS = [padic(5, 3), padic(5, 40), padic(3, 3), padic(3, 40)]


@pytest.mark.parametrize("field", _ORACLE_FIELDS + [REAL])
def test_padic_scalar_reads_what_the_fraction_oracle_reads(field):
    values = [0, 1, -1, 7, -125, 3 ** 30 * 5 ** 9, True, Fraction(3, 25), Fraction(-250, 3),
              "3/25", "-7", " 7 ", "x", "1/0", 0.5, None, 1 + 2j]
    for value, digits in itertools.product(values, [None, 1, 2, 0, -1, 50]):
        assert (_observed(PadicScalar, field, value, digits)
                == _observed(FractionPadicScalar, field, value, digits))


@pytest.mark.parametrize("field", _ORACLE_FIELDS)
def test_from_unit_digits_matches_the_fraction_oracle(field):
    for val, unit_digits in itertools.product(
            [-6, -1, 0, 1, 6], [[1], [2, 4, 1], [1, 0, 0, 2], [7, -1], [0, 1], []]):
        assert (_observed(PadicScalar.from_unit_digits, field, val, unit_digits)
                == _observed(FractionPadicScalar.from_unit_digits, field, val, unit_digits))
