"""Where the fields module refuses its arguments, and the float range of |x|_p."""

from fractions import Fraction

import pytest

from pingpong.errors import DomainError
from pingpong.fields import (DEFAULT_PADIC_PRECISION, REAL, FieldSpec, Kind, PadicScalar,
                             magnitude, padic, valuation)

Q5 = padic(5)


@pytest.mark.parametrize("v", [-441, 462])
def test_padic_abs_is_a_float_at_the_ends_of_the_range(v):
    x = PadicScalar(Q5, Fraction(5) ** v)
    assert x.abs() == float(5) ** -v > 0.0


@pytest.mark.parametrize("v", [-442, 463])
def test_padic_abs_past_the_ends_of_the_range_raises(v):
    # 5^442 overflows and 5^-463 rounds to 0.0
    with pytest.raises(DomainError, match=fr"5\^{-v} is outside the float range"):
        PadicScalar(Q5, Fraction(5) ** v).abs()


def test_magnitude_is_the_float_power_for_half_integer_valuations():
    # contraction_coefficient takes half a valuation gap
    assert magnitude(5, 1.5) == float(5) ** -1.5
    assert magnitude(5, -0.5) == float(5) ** 0.5


def test_valuation_refuses_a_foreign_scalar_and_a_float():
    with pytest.raises(DomainError, match="scalar belongs to Q_7, not Q_5"):
        valuation(padic(7).scalar(7), Q5)
    with pytest.raises(DomainError, match="floats cannot be read"):
        valuation(0.5, Q5)


def test_an_archimedean_field_refuses_a_padic_scalar():
    with pytest.raises(DomainError, match="cannot coerce a p-adic scalar"):
        REAL.scalar(Q5.scalar(1))


@pytest.mark.parametrize("prime", [1, 9])
def test_padic_needs_a_prime(prime):
    with pytest.raises(DomainError, match=f"needs a prime, got {prime}"):
        padic(prime)


def test_a_padic_spec_without_a_precision_takes_the_default():
    field = FieldSpec(Kind.PADIC, 5)
    assert field.precision == DEFAULT_PADIC_PRECISION
    assert field == Q5
