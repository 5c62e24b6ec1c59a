"""The integer p-adic arm of the distance kernels and of the sampled
configurations against the PadicScalar route.

helpers.padic_hyperplane_distances, padic_point_distances, padic_margins,
padic_configurations and padic_verify_contracting compute the same
quantities with PadicScalar arithmetic, the route the int terms replaced.
On every case of the corpus the floats must be equal, and
PrecisionExhaustedError (or DomainError for a zero row) must be raised by
both or by neither; a configuration must have the same values and digits,
or raise the same first error with the same message.  The corpus is random sets
over Q_3, Q_5 and Q_7 with p in the denominators, n = 2..4, at precision 40
and at precision 3..8, plus rows built to cancel, entries carrying more
digits than the precision, and distances p^-k down a ladder of k.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (adjugate_oracle, padic_configurations,
                     padic_hyperplane_distances, padic_margins, padic_point_distances,
                     padic_verify_contracting, random_sl_padic)
from pingpong.contraction import cartan_cert, contraction_coefficient, verify_contracting
from pingpong.errors import DomainError, PrecisionExhaustedError
from pingpong import projective
from pingpong.fields import PadicScalar, _padic_scalars, padic
from pingpong.projective import as_field_array, hyperplane_distances, point_distances
from pingpong.separation import _configurations, _margins

PRIMES = (3, 5, 7)
PRECISIONS = (40, 3, 4, 5, 6, 7, 8)


def _outcome(fn, *args):
    """The floats fn returns, or the name of the error it raises."""
    try:
        out = fn(*args)
    except (PrecisionExhaustedError, DomainError) as exc:
        return type(exc).__name__
    return out.tolist() if isinstance(out, np.ndarray) else out


def _scalar(rng, field):
    """A value that cancels often (small integers, powers of p, p in the
    denominator) with 1 .. precision + 3 known digits."""
    p = field.prime
    base = rng.choice([0, 0, 1, -1, 1, 2, -2, p, -p, rng.randrange(-p ** 5, p ** 5)])
    value = Fraction(base) * Fraction(p) ** rng.randint(-3, 3)
    return PadicScalar(field, value, rng.randint(1, field.precision + 3))


def _rows(rng, field, shape):
    """An object array of shape (..., n) of _scalar entries, no row zero."""
    rows = np.empty(shape, dtype=object)
    for index in np.ndindex(shape[:-1]):
        row = [field.zero()]
        while not any(row):
            row = [_scalar(rng, field) for _ in range(shape[-1])]
        rows[index] = row
    return rows


FIELDS = [padic(p, precision) for p in PRIMES for precision in PRECISIONS]


def _name(field):
    return f"Q{field.prime}-{field.precision}"


def _inverse_pairs(field, elements):
    """The (E, 2, n, n) view of the elements' letter_stack, which
    separation._margins scores, with each inverse exact, at full digits: a
    PadicScalar inverse at precision 3..8 mostly runs out of digits before
    any distance is taken."""
    return np.array([(g.entries, as_field_array(
        field, adjugate_oracle([[c.value for c in row] for row in g.entries]), 2))
        for g in elements])


@pytest.mark.parametrize("field", FIELDS, ids=_name)
def test_margins_match_the_padic_scalar_route(field):
    rng = random.Random(field.prime * 100 + field.precision)
    compared = raised = 0
    for attempt in range(100):
        if compared == 12:
            break
        n = 2 + compared % 3
        elements = [random_sl_padic(rng, field, n, val_range=3)
                    for _ in range(rng.randint(2, 4))]
        pairs = _inverse_pairs(field, elements)
        m = rng.randint(1, 2)
        try:
            batch = _configurations(field, pairs[:, 0], m, np.arange(4), attempt)
            scalars = padic_configurations(field, pairs[:, 0], m, np.arange(4), attempt)
        except PrecisionExhaustedError:
            continue  # test_configurations_match_the_padic_scalar_route compares sampling
        kernel = _outcome(_margins, field, pairs, *batch)
        assert kernel == _outcome(padic_margins, field, pairs, *scalars)
        compared += 1
        raised += isinstance(kernel, str)
    assert compared == 12
    if field.precision == 40:
        assert raised == 0


def _configuration(fn, *args):
    """The (value, digits) of every entry of the points and of the forms of
    a configuration, PadicScalar or term-built, or its error and message."""
    try:
        rows = fn(*args)
    except (PrecisionExhaustedError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    field = args[0]
    return [[(x.value, x.digits)
             for x in (r if isinstance(r, np.ndarray) else _padic_scalars(field, r.term)).ravel()]
            for r in rows]


@pytest.mark.parametrize("field", FIELDS, ids=_name)
def test_configurations_match_the_padic_scalar_route(field):
    # _configurations builds on the sampled ints as terms; the PadicScalar
    # route it replaced must give the same canonical values and digits, or
    # the same first error with the same message, from the images g v or the
    # deflation
    rng = random.Random(field.prime * 10 + field.precision)
    raised = 0
    for attempt in range(30):
        n = 2 + attempt % 3
        elements = [random_sl_padic(rng, field, n, val_range=3)
                    for _ in range(rng.randint(2, 4))]
        entries, m = np.array([g.entries for g in elements]), rng.randint(1, 2)
        args = field, entries, m, np.arange(6), attempt
        want = _configuration(padic_configurations, *args)
        assert _configuration(_configurations, *args) == want
        raised += isinstance(want, tuple)
    if field.precision == 40:
        assert raised == 0
    elif field.precision == 3:
        assert raised >= 10


@pytest.mark.parametrize("field", FIELDS, ids=_name)
def test_kernels_match_the_padic_scalar_route(field):
    rng = random.Random(field.prime * 1000 + field.precision)
    for _ in range(12):
        n = rng.randint(2, 4)
        points = _rows(rng, field, (2, 1, rng.randint(1, 3), n))
        forms = _rows(rng, field, (2, 1, rng.randint(1, 3), n))
        w = _rows(rng, field, (n,))
        matrices = _rows(rng, field, (3, n, n))
        for g in (None, matrices):
            assert (_outcome(hyperplane_distances, field, points, forms, g)
                    == _outcome(padic_hyperplane_distances, field, points, forms, g))
            assert (_outcome(point_distances, field, points, w, g)
                    == _outcome(padic_point_distances, field, points, w, g))
        g = random_sl_padic(rng, field, n, val_range=3).entries
        assert (_outcome(hyperplane_distances, field, points, forms, g)
                == _outcome(padic_hyperplane_distances, field, points, forms, g))


def _result(fn, *args):
    """The floats fn returns, or the type and message of the error it raises."""
    try:
        return fn(*args).tolist()
    except (PrecisionExhaustedError, DomainError) as exc:
        return type(exc).__name__, str(exc)


def _by_each_route(monkeypatch, fn, *args) -> list:
    """fn's _result with every call sent down the PadicScalar route, then
    down the int-term kernel, by moving projective._SCALAR_PRODUCTS."""
    results = []
    for bound in (math.inf, 0):
        monkeypatch.setattr(projective, "_SCALAR_PRODUCTS", bound)
        results.append(_result(fn, *args))
    monkeypatch.undo()
    return results


@pytest.mark.parametrize("field", FIELDS, ids=_name)
def test_the_scalar_route_matches_the_kernel(field, monkeypatch):
    # a one-block call under _SCALAR_PRODUCTS runs on the PadicScalar
    # operators, a larger one on the int terms; forced either way, the two
    # give the same floats or the same first error and message, and the call
    # as routed gives what the PadicScalar oracle of helpers gives
    rng = random.Random(field.prime * 10000 + field.precision)
    routed = []
    choose = projective._by_scalars
    for attempt in range(10):
        n = rng.randint(2, 4)
        P, H = (rng.randint(1, 2), rng.randint(1, 3)) if attempt % 2 else (rng.randint(4, 6),
                                                                           rng.randint(4, 8))
        points, forms = _rows(rng, field, (P, n)), _rows(rng, field, (H, n))
        w, matrices = _rows(rng, field, (n,)), _rows(rng, field, (n, n))
        for g in (None, matrices):
            for fn, oracle, rows in ((hyperplane_distances, padic_hyperplane_distances, forms),
                                     (point_distances, padic_point_distances, w)):
                scalars, kernel = _by_each_route(monkeypatch, fn, field, points, rows, g)
                assert scalars == kernel
                monkeypatch.setattr(projective, "_by_scalars",
                                    lambda *args: routed.append(choose(*args)) or routed[-1])
                assert _result(fn, field, points, rows, g) == scalars
                monkeypatch.undo()
                assert _outcome(fn, field, points, rows, g) == _outcome(oracle, field, points,
                                                                        rows, g)
    assert set(routed) == {True, False}


@pytest.mark.parametrize("prime", PRIMES)
def test_both_routes_raise_the_first_error(prime, monkeypatch):
    # at precision 3 a coordinate 1 + (p^k - 1) = p^k, k > 3, is known modulo
    # p^3 only: the first such sum raises, an image g v before any f(g v)
    field = padic(prime, 3)

    def rows(*values):
        return as_field_array(field, values, 2)

    def short(k):
        return ("PrecisionExhaustedError",
                f"cancellation left a result of valuation {k} known only modulo {prime}^3")

    zero = ("DomainError", "projective representative must be nonzero")
    v, f, u = rows([1, 1]), rows([1, -1], [1, 1]), rows([1, prime ** 4 - 1])
    shear = rows([1, prime ** 5 - 1], [0, 1])  # (g v)_0 = p^5, and f(g v) would fall short too
    cases = [
        (hyperplane_distances, v, f, shear, short(5)),
        (hyperplane_distances, u, f, None, short(4)),  # f(u) is 2 - p^4, then p^4
        (hyperplane_distances, u, f, rows([1, 0], [0, 1]), short(4)),
        (point_distances, rows([1, prime ** 4 + 1]), rows([1, 1])[0], None, short(4)),
        (point_distances, v, rows([1, 2])[0], shear, short(5)),
        (hyperplane_distances, rows([1, 1], [0, 0]), f, None, zero),
        (hyperplane_distances, v, rows([1, 1], [0, 0]), None, zero),
        (hyperplane_distances, rows([1, -1]), f, rows([1, 1], [1, 1]), zero),  # g v = 0
        # every image is summed before any row is made canonical
        (hyperplane_distances, rows([1, -1], [1, prime ** 5 - 1]), f, rows([1, 1], [1, 1]),
         short(5)),
        (hyperplane_distances, v, rows([1, 1], [0, 0]), shear, short(5)),
        (point_distances, v, rows([0, 0])[0], None, zero),
        # a distance p^-k with no float raises at the largest such k, as _padic_abs does
        (hyperplane_distances, rows([1, 0]), rows([prime ** 1000, 1], [prime ** 1100, 1]), None,
         ("DomainError", f"p-adic absolute value {prime}^-1100 is outside the float range")),
    ]
    for fn, points, others, g, want in cases:
        assert _by_each_route(monkeypatch, fn, field, points, others, g) == [want, want]
        assert _outcome(fn, field, points, others, g) == want[0]


@pytest.mark.parametrize("prime", PRIMES)
def test_a_sum_starts_from_its_first_product(prime, monkeypatch):
    # products known to 6 digits at precision 3: 1 + (p^5 - 1) = p^5 keeps
    # 6 - 5 = 1 digit, in g v and in f(u), where a sum from 0 would cap the
    # first product at 3 digits and raise, as numpy's object sums do not
    field = padic(prime, 3)

    def rows(*values):
        return np.array([[PadicScalar(field, x, 6) for x in row] for row in values])

    want = [[float(prime) ** -5]]
    for u, f, g in ((rows([1, prime ** 5 - 1]), rows([1, 1]), None),
                    (rows([1, prime ** 5 - 1]), rows([1, 0]), rows([1, 1], [0, 1]))):
        assert _by_each_route(monkeypatch, hyperplane_distances, field, u, f, g) == [want, want]
        assert padic_hyperplane_distances(field, u, f, g).tolist() == want


@pytest.mark.parametrize("prime", PRIMES)
def test_distance_ladder_is_the_float_power(prime):
    # float(p) ** -k is what PadicScalar.abs gives; numpy's array power
    # differs from it in the last bit for some k (5^-5 among them)
    field = padic(prime, 8)
    point = as_field_array(field, [[1, 0]], 2)
    for k in range(32):
        forms = as_field_array(field, [[prime ** k, 1]], 2)
        w = as_field_array(field, [1, prime ** k], 1)
        assert hyperplane_distances(field, point, forms).tolist() == [[float(prime) ** -k]]
        assert point_distances(field, point, w).tolist() == [float(prime) ** -k]
        assert (padic_hyperplane_distances(field, point, forms).tolist()
                == [[float(prime) ** -k]])


@pytest.mark.parametrize("prime", PRIMES)
def test_a_sum_keeps_at_most_precision_digits(prime):
    # entries read with more unit digits than the precision: 1 + p^4 is
    # known to 6 digits but keeps 3, so adding -1 leaves p^4 known modulo
    # p^3 only, and both routes raise; without the cap it would be p^-4
    field = padic(prime, 3)
    point = np.array([[PadicScalar(field, x, 6) for x in (1, prime ** 4, -1)]])
    form = np.array([[PadicScalar(field, 1, 6)] * 3])
    for fn in (hyperplane_distances, padic_hyperplane_distances):
        assert _outcome(fn, field, point, form) == "PrecisionExhaustedError"
    # one digit more of room, and both give the distance
    point[0, 1] = PadicScalar(field, prime ** 2, 6)
    for fn in (hyperplane_distances, padic_hyperplane_distances):
        assert _outcome(fn, field, point, form) == [[float(prime) ** -2]]


@pytest.mark.parametrize("field", [padic(p, precision) for p in PRIMES
                                   for precision in (40, 4, 6)], ids=_name)
def test_verify_contracting_matches_the_padic_scalar_route(field):
    rng = random.Random(field.prime + field.precision)
    for n in (2, 3, 4):
        for seed in range(2):
            g = random_sl_padic(rng, field, n, val_range=3)
            try:
                coefficient = contraction_coefficient(g)
                certs = [cartan_cert(g, eps) for eps in (min(coefficient, 1.0), 1 / field.prime)]
            except PrecisionExhaustedError:
                continue
            for cert in certs:
                assert (_outcome(verify_contracting, cert, g, 60, seed)
                        == _outcome(padic_verify_contracting, cert, g, 60, seed))
