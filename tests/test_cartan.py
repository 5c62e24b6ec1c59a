import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    GaussianRational,
    adjugate_loop,
    adjugate_oracle,
    batch_proj_dist,
    bilip_constant_by_smith,
    exact_form,
    gauss_jordan,
    wedge_coordinates,
    fraction_det,
    leibniz_det,
    over,
    over_denominator,
    power_iteration_norm,
    random_sl_arch,
    random_sl_padic,
    smith_valuations_oracle,
)
from pingpong import io
from pingpong.cartan import (
    GaussianInt,
    SLMatrix,
    _adjugate,
    _check_digits,
    _dets,
    _eliminated_det,
    _float_gates,
    _stored_det_failure,
    apply_hyperplane,
    apply_point,
    bareiss,
    bilip_constant,
    bilip_constants,
    cartan_decompose,
    determinant_failure,
    diagonal,
    exterior_power,
    identity,
    integral_form,
    inverses,
    operator_norm,
    wedge_operator_norm,
)
from pingpong.errors import DecompositionError, DomainError, PrecisionExhaustedError
from pingpong.fields import (COMPLEX, REAL, PadicScalar, matmul, padic, relative_tolerance,
                             valuation)
from pingpong.projective import ProjHyperplane, ProjPoint, as_field_array, proj_dist

Q5 = padic(5)


def test_determinant_validation():
    with pytest.raises(DomainError):
        SLMatrix(REAL, [[1, 0], [0, 2]])
    with pytest.raises(DomainError):
        SLMatrix(Q5, [[1, 1], [0, 2]])
    with pytest.raises(DomainError), np.errstate(invalid="ignore"):
        SLMatrix(REAL, [[math.nan, 0], [0, 1]])
    with pytest.raises(DomainError), np.errstate(invalid="ignore"):
        SLMatrix(REAL, [[math.inf, 0], [0, 1]])
    SLMatrix(REAL, [[1, 1], [0, 1]])
    SLMatrix(Q5, [[1, Fraction(1, 5)], [0, 1]])


def test_wide_determinant_gate_refuses_exactly_singular_matrices():
    # at entry scale 1e8 the float gate admits det 0; the dyadic entries decide
    for field, rows in ((REAL, [[1e8, 1e8], [1e8, 1e8]]),
                        (COMPLEX, [[1e8, 1e8j], [1e8, 1e8j]]),
                        (REAL, [[1e200, 0.0], [1e200, 0.0]])):
        with pytest.raises(DomainError, match="exactly 0"):
            SLMatrix(field, rows)
    SLMatrix(REAL, [[1e8, 1e8 + 1], [1e8 - 1, 1e8]])  # det exactly 1
    SLMatrix(COMPLEX, [[1e8j, 1e8 + 1], [1e8 - 1, -1e8j]])


def test_wide_determinant_gate_refuses_a_stored_determinant_far_from_one():
    # the float det of [[1e8, 1e8], [0, 2e-8]] is inside the gate at scale 1e8,
    # but its stored entries give det 2, which no rounding of the entries explains
    with pytest.raises(DomainError, match="stored entries is 2, not 1"):
        SLMatrix(REAL, [[1e8, 1e8], [0.0, 2e-8]])
    with pytest.raises(DomainError, match=r"stored entries is 2\+0j, not 1"):
        SLMatrix(COMPLEX, [[1e8, 1e8], [0.0, 2e-8]])
    # float-computed det-1 matrices at large scale stay accepted
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta, scale = rng.uniform(0, math.pi), 10.0 ** rng.uniform(4, 9)
        q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        g = q @ np.diag([scale, 1 / scale]) @ q.T
        for power in (g, g @ g, g @ g @ g):
            SLMatrix(REAL, power)


def test_wide_determinant_gate_sees_the_phase_of_a_complex_determinant():
    # det = 1e8 * 1e-8 i is i: its modulus is 1, its phase is not
    with pytest.raises(DomainError, match=r"stored entries is 0\+1j, not 1"):
        SLMatrix(COMPLEX, [[1e8, 1e8], [0.0, 1e-8j]])
    # float-computed unitary conjugates u diag(s, 1/s) u* stay accepted
    rng = np.random.default_rng(12)
    for _ in range(200):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        scale = 10.0 ** rng.uniform(4, 9)
        g = u @ np.diag([scale, 1 / scale]) @ u.conj().T
        for power in (g, g @ g, g @ g @ g):
            SLMatrix(COMPLEX, power)


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
@pytest.mark.parametrize("side, fits", [(1 - 1e-6, True), (1 + 1e-6, False)],
                         ids=["inside", "outside"])
def test_wide_determinant_gate_reach_is_the_relative_tolerance(field, side, fits):
    # at entry scale 2^25 the float gate is 4 wide, so the stored entries
    # decide: det(diag(x, w)) = xw may miss 1 by tol (|x||w| + |w||x|)
    x = 2.0 ** 25
    w = (1 + 2 * relative_tolerance() * side) / x
    det = Fraction(x) * Fraction(w)
    reach = Fraction(relative_tolerance()) * 2 * det
    assert (abs(det - 1) <= reach) is fits
    if fits:
        SLMatrix(field, [[x, 0.0], [0.0, w]])
    else:
        with pytest.raises(DomainError, match="stored entries"):
            SLMatrix(field, [[x, 0.0], [0.0, w]])


def _gate_by_fractions(field, entries):
    """The exact arm of the wide gate on the Fractions of the stored entries,
    GaussianRationals over C, by the oracle's det and inverse."""
    a = exact_form(entries)
    det, inverse = gauss_jordan(a)
    if not det:
        return "determinant is exactly 0, not 1"
    adj = det * inverse
    if abs(det - 1) > Fraction(relative_tolerance()) * (abs(a) * abs(adj).T).sum():
        return f"determinant of the stored entries is {field.scalar(det):.12g}, not 1"
    return None


def _exact_arm_case(rng, field, n):
    """An n x n matrix for the exact arm, over C with imaginary entries: near
    the reach's edge, with its zero-led last row moved to the top; singular
    or nearly; integral; or g^3 for a float-computed SL_n element g."""
    kind = rng.randrange(4)
    i = 1j if field is COMPLEX else 1
    m = np.eye(n, dtype=complex if field is COMPLEX else float)
    x = 2.0 ** rng.randint(20, 60) * rng.uniform(1, 2)
    if kind == 0:
        off = rng.choice([0.5, 1.0, 1.9, 2.0, 2.1, 3.0, -2.1, 50.0]) * relative_tolerance()
        m[0, 0], m[-1, -1] = x * i, (1 + off) / x * i.conjugate()
        for r, c in zip(*np.triu_indices(n, 1)):
            m[r, c] = rng.choice([0.0, 1.0, -3.0]) * rng.choice([1, i])
        m = np.roll(m, 1, axis=0)  # a cycle of the rows, of sign (-1)^(n - 1)
        if n % 2 == 0:
            m[0] = -m[0]
    elif kind == 1:
        m[:2, :2] = [[x * i, x * i], [x * (1 + rng.choice([0.0, 2.0 ** -40])), x]]
    elif kind == 2:
        for r, c in np.ndindex(n, n):
            m[r, c] = rng.randint(-2 ** 40, 2 ** 40) * rng.choice([1, i])
    else:
        g = _scaled_sl(np.random.default_rng(rng.randrange(2 ** 32)), field, n,
                       10 ** rng.uniform(2, 5))
        m = g @ g @ g
    return m


def test_the_real_2x2_exact_arm_on_ints_matches_fractions():
    # the ints over the power-of-two denominator decide and word every case as
    # the Fractions do: near the reach's edge, singular, integral, and g^3;
    # for R 2 x 2 as first recorded, then for R and C with n = 2 .. 4, where
    # the one arm serves every field and size
    rng = random.Random(17)
    outcomes = collections.Counter()
    for _ in range(600):
        x = 2.0 ** rng.randint(20, 60) * rng.uniform(1, 2)
        kind = rng.randrange(4)
        if kind == 0:
            off = rng.choice([0.5, 1.0, 1.9, 2.0, 2.1, 3.0, -2.1, 50.0]) * relative_tolerance()
            m = np.array([[x, rng.choice([0.0, 1.0, -3.0])], [0.0, (1 + off) / x]])
        elif kind == 1:
            m = np.array([[x, x], [x * (1 + rng.choice([0.0, 2.0 ** -40])), x]])
        elif kind == 2:
            m = np.array([[float(rng.randint(-2 ** 40, 2 ** 40)) for _ in range(2)]
                          for _ in range(2)])
        else:
            theta, s = rng.uniform(0, math.pi), 10 ** rng.uniform(2, 5)
            q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            g = q @ np.diag([s, 1 / s]) @ q.T
            m = g @ g @ g
        want = _gate_by_fractions(REAL, m)
        assert _stored_det_failure(REAL, m) == want
        outcomes[want if want is None else want.split(" is ")[0]] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) >= 50
    for field, n in [(COMPLEX, 2), (REAL, 3), (COMPLEX, 3), (REAL, 4), (COMPLEX, 4)]:
        outcomes = collections.Counter()
        for _ in range(200):
            m = _exact_arm_case(rng, field, n)
            want = _gate_by_fractions(field, m)
            assert _stored_det_failure(field, m) == want
            outcomes[want if want is None else want.split(" is ")[0]] += 1
        assert len(outcomes) == 3 and min(outcomes.values()) >= 10, (field, n, outcomes)


@pytest.mark.parametrize("digits", [3, 6])
def test_padic_determinant_slack_is_the_fewest_digits_held(digits):
    # an entry known to `digits` digits cannot tell 1 + 5^digits from 1, but it
    # does tell 1 + 5^(digits - 1)
    for k, fits in ((digits, True), (digits - 1, False)):
        rows = [[PadicScalar(Q5, 1 + 5 ** k, digits), 0], [0, 1]]
        if fits:
            SLMatrix(Q5, rows)
        else:
            with pytest.raises(DomainError, match="determinant is"):
                SLMatrix(Q5, rows)


def _scaled_sl(rng, field, n, scale):
    """A float-computed u diag(scale, 1, ..., 1, 1/scale) v with random
    unitary u and v, det 1 up to rounding, over R or C."""
    def unitary():
        m = rng.normal(size=(n, n))
        if field is COMPLEX:
            m = m + 1j * rng.normal(size=(n, n))
        q = np.linalg.qr(m)[0]
        if field is COMPLEX:
            return q / complex(np.linalg.det(q)) ** (1 / n)
        q[:, 0] *= np.sign(np.linalg.det(q))
        return q
    return unitary() @ np.diag([scale] + [1.0] * (n - 2) + [1 / scale]) @ unitary()


def _bits(z) -> tuple:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_gates_are_the_gates_of_each_matrix(field, n):
    # the det and gate of each matrix, as the gate of one matrix computed them
    # before the stack, bit for bit; scales 1 .. 1e6 reach the exact arm
    rng = np.random.default_rng(21 + n)
    stack = np.array([_scaled_sl(rng, field, n, 10.0 ** (k % 7)) for k in range(21)])
    stack[3] *= 2.0 ** (1 / n)  # det 2
    eps = np.finfo(float).eps
    want_failure = None
    for index, (m, (det, gate)) in enumerate(zip(stack, _float_gates(stack))):
        want_det = complex(np.linalg.det(m))
        want_gate = max(relative_tolerance(), max(1.0, float(np.max(np.abs(m)))) ** n * n * 8 * eps)
        assert (_bits(det), gate.hex()) == (_bits(want_det), float(want_gate).hex())
        alone = determinant_failure(field, m[None])
        if want_failure is None and alone is not None:
            want_failure = index, alone[1]
    assert determinant_failure(field, stack) == want_failure
    assert want_failure[0] == 3
    # from n = 3 on, scale 1e6 puts the gate past 1
    assert any(gate >= 1 for _, gate in _float_gates(stack)) is (n >= 3)


def test_the_exact_arm_runs_only_on_wide_gates(monkeypatch):
    seen = []
    original = _stored_det_failure

    def spy(field, a):
        seen.append(a.shape)
        return original(field, a)

    monkeypatch.setattr("pingpong.cartan._stored_det_failure", spy)
    narrow = [[1.0, 2.0], [0.0, 1.0]]
    wide = [[1e8, 1e8 + 1], [1e8 - 1, 1e8]]
    assert determinant_failure(REAL, np.array([narrow, wide, narrow, wide, narrow])) is None
    assert seen == [(2, 2), (2, 2)]


def test_a_stack_reports_its_first_failure():
    ok, bad, singular = [[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]], [[1e8, 1e8], [1e8, 1e8]]
    assert determinant_failure(REAL, np.array([ok, singular, bad])) == (
        1, "determinant is exactly 0, not 1")
    assert determinant_failure(REAL, np.array([ok, bad, singular])) == (
        1, "determinant is 2+0j, not 1")
    with np.errstate(invalid="ignore"):
        assert determinant_failure(REAL, np.array([ok, [[math.inf, 0.0], [0.0, 1.0]], bad])) == (
            1, "matrix entries must be finite")
    q5 = np.array([[[Q5.scalar(x) for x in row] for row in m] for m in ([[1, 1], [0, 1]],
                                                                        [[1, 1], [0, 2]])])
    assert determinant_failure(Q5, q5) == (1, "determinant is 2, not 1")


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
def test_an_ndarray_input_is_copied_once_and_checked(field):
    rows = np.array([[2.0, 3.0], [1.0, 2.0]])
    g = SLMatrix(field, rows)
    rows[0, 0] = 5.0
    assert g.entries[0, 0] == 2.0
    assert not g.entries.flags.writeable
    assert g.entries.dtype == (np.float64 if field is REAL else np.complex128)
    with pytest.raises(DomainError, match="square"):
        SLMatrix(field, np.eye(3)[:2], check=False)
    with pytest.raises(DomainError, match="square"):
        SLMatrix(field, np.ones(4), check=False)


def test_a_padic_ndarray_input_is_copied_once(monkeypatch):
    g = random_sl_padic(random.Random(5), Q5, 3)
    calls = []
    scalar = type(Q5).scalar
    monkeypatch.setattr(type(Q5), "scalar", lambda self, x: calls.append(x) or scalar(self, x))
    h = SLMatrix(padic(5), g.entries, check=False)  # an equal FieldSpec, not the same one
    assert calls == []
    assert h.entries is not g.entries and not h.entries.flags.writeable
    assert all(x is y for x, y in zip(h.entries.flat, g.entries.flat))
    # anything else is read entry by entry, and fails as it did
    SLMatrix(Q5, np.array([[1, 0], [0, 1]], dtype=object))
    assert calls == [1, 0, 0, 1]
    foreign = np.array([[padic(7).scalar(x) for x in row] for row in ([1, 0], [0, 1])])
    with pytest.raises(DomainError, match="scalar belongs to Q_7"):
        SLMatrix(Q5, foreign)


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q5], ids=["R", "C", "Q5"])
def test_products_and_inverses_keep_private_read_only_entries(field):
    # SLMatrix._view takes the fresh product and the adjugate stack as they
    # are: each result must still be read-only, in the field's array form,
    # and share no memory with its operands
    if field is Q5:
        prng = random.Random(11)
        g, h = (random_sl_padic(prng, Q5, 3) for _ in range(2))
    else:
        rng = np.random.default_rng(11)
        g, h = (random_sl_arch(rng, field, 3) for _ in range(2))
    product = g @ h
    g_inverse, h_inverse = inverses((g, h))
    for x in (product, g_inverse, h_inverse):
        assert not x.entries.flags.writeable
        assert x.entries.dtype == g.entries.dtype and x.entries.shape == (3, 3)
        assert not any(np.shares_memory(x.entries, y.entries) for y in (g, h))
    assert not np.shares_memory(g_inverse.entries, h_inverse.entries)
    for x in (product, g_inverse):
        with pytest.raises(ValueError, match="read-only"):
            x.entries[0, 0] = x.entries[0, 1]
    assert g_inverse.inverse() is g and g.inverse() is g_inverse
    if field is Q5:
        assert product.entries.tolist() == matmul(g.entries, h.entries).tolist()
        assert all(isinstance(x, PadicScalar) for x in product.entries.flat)
    else:
        assert product.entries.tobytes() == (g.entries @ h.entries).tobytes()


def test_a_real_matrix_refuses_complex_ndarray_entries():
    with pytest.raises(DomainError, match="complex entries"):
        SLMatrix(REAL, np.array([[1, 1j], [0, 1]]), check=False)
    # a complex dtype with zero imaginary parts holds real entries
    g = SLMatrix(REAL, np.array([[1, 2], [0, 1]], dtype=np.complex128))
    assert g.entries.dtype == np.float64
    assert g.entries.tolist() == [[1.0, 2.0], [0.0, 1.0]]


_SMALL_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(_SMALL_FRACTIONS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_gauss_jordan_over_q(rows):
    a = np.array(rows, dtype=object)
    det, inverse = gauss_jordan(a)
    assert det == fraction_det(rows)
    if not det:
        assert inverse is None
        return
    assert (a @ inverse == np.eye(len(rows), dtype=int)).all()
    assert (det * inverse == np.array(adjugate_oracle(rows), dtype=object)).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_gauss_jordan_over_gaussian_rationals(rows):
    a = np.array([[GaussianRational(x, y) for x, y in row] for row in rows], dtype=object)
    det, inverse = gauss_jordan(a)
    assert det == leibniz_det(a.tolist())
    if not det:
        assert inverse is None
        return
    n = len(rows)
    eye = np.array([[GaussianRational(int(i == j)) for j in range(n)] for i in range(n)],
                   dtype=object)
    assert (a @ inverse == eye).all()


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.booleans(),
       st.lists(st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS), min_size=4, max_size=4))
def test_the_2x2_closed_forms_are_gauss_jordans_det_and_adjugate(gaussian, rank_one, pairs):
    x = [GaussianRational(*pair) if gaussian else pair[0] for pair in pairs]
    # rank one, the outer product of (x0, x1) and (x2, x3), is exactly singular
    rows = [[x[0] * x[2], x[0] * x[3]], [x[1] * x[2], x[1] * x[3]]] if rank_one else [x[:2], x[2:]]
    a = np.array(rows, dtype=object)
    # bareiss on the ints over D gives det D^2 and adj D
    ints, den = over_denominator(a)
    det, adj = bareiss(ints)
    want, inverse = gauss_jordan(a)
    assert over(det, den ** 2) == want
    if inverse is None:
        assert not det
        assert (np.array(ints, dtype=object) @ np.array(adj, dtype=object) == 0).all()
    else:
        assert (np.array([[over(y, den) for y in row] for row in adj], dtype=object)
                == want * inverse).all()


_SMALL = st.integers(-9, 9)
_CORE_ENTRIES = {
    "int": _SMALL,
    "gaussian": st.builds(GaussianInt, _SMALL, _SMALL),
    # the value of a Q_5 entry, with 5 in some denominators
    "padic": st.builds(lambda a, k: Fraction(a) * Fraction(5) ** k, _SMALL, st.integers(-2, 2)),
}


@pytest.mark.parametrize("kind", list(_CORE_ENTRIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 5), shape=st.sampled_from(["any", "singular", "zero-led"]))
def test_bareiss_is_the_exact_oracle(kind, data, n, shape):
    # ints, Gaussian ints and p-adic values read over their D, against the
    # cofactor, Leibniz and Gauss-Jordan oracles; a zero leading entry forces
    # a row swap, a repeated row makes the matrix singular
    rows = data.draw(st.lists(st.lists(_CORE_ENTRIES[kind], min_size=n, max_size=n),
                              min_size=n, max_size=n))
    if shape == "singular":
        rows[-1] = list(rows[0])
    elif shape == "zero-led":
        rows[0][0] = rows[0][0] * 0
    if kind == "padic":
        entries = as_field_array(Q5, rows, 2)
        ints, den = integral_form(entries)
        assert [[over(x, den) for x in row] for row in ints] == rows
        oracle = exact_form(entries)
    elif kind == "gaussian":
        ints, den = rows, 1
        oracle = np.array([[GaussianRational(x.real, x.imag) for x in row] for row in rows],
                          dtype=object)
    else:
        ints, den = integral_form(np.array(rows, dtype=float))
        assert (ints, den) == (rows, 1)
        oracle = np.array(rows, dtype=object) * Fraction(1)
    det, adj = bareiss(ints)
    want, inverse = gauss_jordan(oracle)
    value = over(det, den ** n)
    assert value == want
    assert det == leibniz_det(ints)
    if kind != "gaussian":
        assert value == fraction_det(oracle.tolist())
    cofactors = adjugate_oracle(ints, leibniz_det if kind == "gaussian" else fraction_det)
    if det or n == 2:
        assert adj == cofactors
    else:
        assert adj is None
    if det:
        assert ([[over(x, den ** (n - 1)) for x in row] for row in adj]
                == (want * inverse).tolist())


def test_exact_form_of_a_complex_matrix_is_its_n_by_n_gaussian_rationals():
    entries = np.array([[0.1 + 2j, -3.0], [1e-300j, 0.25 - 0.5j]])
    exact = exact_form(entries)
    assert exact.shape == (2, 2)
    assert all(x.real == Fraction(z.real) and x.imag == Fraction(z.imag)
               for x, z in zip(exact.flat, entries.flat))
    # abs is |a| + |b|, an upper bound on the modulus, exact in Fraction
    assert abs(exact[0, 0]) == Fraction(0.1) + 2 >= abs(entries[0, 0])


def test_adjugate_stack_matches_cofactor_loop_and_exact_oracle():
    # one stacked det over all n^2 minors rounds each minor as a det of its own
    rng = np.random.default_rng(11)
    for k in range(300):
        n, scale = 3 + k % 3, 10.0 ** rng.integers(-3, 4)
        real = rng.normal(size=(n, n)) * scale
        for entries in (real, real + 1j * rng.normal(size=(n, n)) * scale):
            stacked, loop = _adjugate(entries), adjugate_loop(entries)
            assert stacked.dtype == loop.dtype
            assert stacked.tobytes() == loop.tobytes()
        exact = np.array(adjugate_oracle([[Fraction(x) for x in row] for row in real]),
                         dtype=object).astype(float)
        tol = 1e-12 * (n * np.abs(real).max()) ** (n - 1)
        assert np.abs(_adjugate(real) - exact).max() <= tol


def _same_entries(a, b):
    """Bytes over R and C, values and digits over Q_p."""
    if a.dtype == object:
        return [(c.value, c.digits) for c in a.flat] == [(c.value, c.digits) for c in b.flat]
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_adjugate_of_a_stack_is_the_adjugate_of_each_matrix():
    # bytes over R and C; over Q_5 values and digits, as PadicScalar has no bytes
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 5):
        for shape in ((1,), (7,), (3, 4)):
            scale = 10.0 ** rng.integers(-3, 4, size=shape + (1, 1))
            real = rng.normal(size=shape + (n, n)) * scale
            for stack in (real, real + 1j * rng.normal(size=real.shape)):
                stacked = _adjugate(stack)
                assert stacked.shape == stack.shape and stacked.dtype == stack.dtype
                singles = [_adjugate(m) for m in stack.reshape(-1, n, n)]
                assert stacked.tobytes() == np.array(singles).tobytes()
    prng = random.Random(17)
    for n in (2, 3, 4):
        for count in (1, 5):
            stack = np.array([random_sl_padic(prng, Q5, n).entries for _ in range(count)])
            stacked = _adjugate(stack)
            assert all(_same_entries(got, _adjugate(m)) for got, m in zip(stacked, stack))


def test_inverses_fill_every_missing_cache_from_one_adjugate(monkeypatch):
    calls = []
    original = _adjugate

    def spy(entries):
        calls.append(entries.shape)
        return original(entries)

    monkeypatch.setattr("pingpong.cartan._adjugate", spy)
    rng, prng = np.random.default_rng(19), random.Random(19)
    for field in (REAL, COMPLEX, Q5):
        for n in (2, 3):
            gs = ([random_sl_padic(prng, field, n) for _ in range(3)]
                  if field.is_padic else [random_sl_arch(rng, field, n) for _ in range(3)])
            cached = gs[1].inverse()
            calls.clear()
            got = inverses([gs[0], gs[1], gs[2], gs[0]])
            # one call for the two missing inverses; a repeated matrix is inverted once
            assert calls == [(2, n, n)]
            assert got[1] is cached and got[0] is got[3]
            for g, inv in zip(gs, got):
                assert g.inverse() is inv and inv.inverse() is g
                assert _same_entries(inv.entries, original(g.entries))
            # every inverse() above was a cache hit
            assert calls == [(2, n, n)]
    assert inverses([]) == []


def test_determinant_pass_keeps_every_digit_and_raises_no_more():
    # the forward pass's operations are a subset of the full pass's: every
    # det keeps its value and digit count, and none raises that did not
    rng = random.Random(3)
    spared = 0
    for precision in (3, 4, 5, 6):
        field = padic(5, precision)
        for _ in range(60):
            a = random_sl_padic(rng, field, rng.choice([2, 3, 4]), val_range=3).entries
            try:
                full = gauss_jordan(a)[0]
            except PrecisionExhaustedError:
                full = None
            try:
                det = _eliminated_det(a.tolist())
            except PrecisionExhaustedError:
                assert full is None
                continue
            if full is None:
                spared += 1
            else:
                assert (det, det.digits) == (full, full.digits)
    assert spared
    # a minor whose full pass lost its digits on the identity block
    field = padic(5, 3)
    a = as_field_array(field, [[Fraction(1, 5), 0, 2], [Fraction(2, 25), 125, Fraction(4254, 5)],
                               [Fraction(6, 125), 75, Fraction(12763, 25)]], 2)
    with pytest.raises(PrecisionExhaustedError):
        gauss_jordan(a)
    det = _eliminated_det(a.tolist())
    assert (det, det.digits) == (1, 3)


def test_gauss_jordan_finds_exact_singularity():
    assert gauss_jordan(np.array([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]],
                                 dtype=object)) == (0, None)
    det, inverse = gauss_jordan(np.array([[0, 1], [1, 0]], dtype=object) * Fraction(1))
    assert det == -1
    assert (inverse == np.array([[0, 1], [1, 0]])).all()


@pytest.mark.parametrize("field, dtype", [(REAL, np.float64), (COMPLEX, np.complex128),
                                          (Q5, object)])
def test_entries_and_coords_are_read_only_arrays(field, dtype):
    g = SLMatrix(field, [[1, 2], [0, 1]])
    P, H = ProjPoint(field, [1, 1]), ProjHyperplane(field, [1, 1])
    t = g.cartan()
    for arr in (g.entries, (g @ g).entries, g.inverse().entries, t.k.entries,
                P.rep, H.form, apply_point(g, P).rep, apply_hyperplane(g, H).form,
                t.attracting_point().rep, t.repulsive_hyperplane().form):
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == dtype
        assert not arr.flags.writeable


def test_padic_products_keep_values_and_digits():
    g = SLMatrix(Q5, [[Fraction(1, 5), 1], [0, 5]])
    h = SLMatrix(Q5, [[1, 5], [2, 11]])
    prod = g @ h
    for i in range(2):
        for j in range(2):
            want = g.entries[i][0] * h.entries[0][j] + g.entries[i][1] * h.entries[1][j]
            assert prod.entries[i][j].value == want.value
            assert prod.entries[i][j].digits == want.digits
    # 2 * 3 + 11 * 4 = 50 gains valuation 2 and so loses two known digits
    image = h.entries @ as_field_array(Q5, [3, 4], 1)
    assert [c.value for c in image] == [23, 50]
    assert [c.digits for c in image] == [40, 38]


@pytest.mark.parametrize("field, other, n", [
    (REAL, COMPLEX, 2), (Q5, REAL, 2), (Q5, padic(7), 2), (REAL, REAL, 3), (Q5, Q5, 3)])
def test_flag_action_checks_field_and_size(field, other, n):
    # a 2x2 matrix acting on a flag over another field or in another dimension
    g = identity(field, 2)
    coords = [1] + [0] * (n - 1)
    with pytest.raises(DomainError):
        apply_point(g, ProjPoint(other, coords))
    with pytest.raises(DomainError):
        apply_hyperplane(g, ProjHyperplane(other, coords))


def test_inverse():
    g = SLMatrix(REAL, [[2, 1], [1, 1]])
    np.testing.assert_allclose((g @ g.inverse()).entries, np.eye(2), atol=1e-12)
    h = SLMatrix(Q5, [[2, 1], [1, 1]])
    prod = h @ h.inverse()
    assert [[c.value for c in row] for row in prod.entries] == [[1, 0], [0, 1]]


def test_padic_inverse_pivots_on_least_valuation():
    # pivoting on the first nonzero entry, 25, would leave 1 known digit in place of 3
    g = SLMatrix(Q5, [[25, PadicScalar(Q5, 1, 3)], [1, PadicScalar(Q5, 1, 3)]], check=False)
    inverse = gauss_jordan(g.entries)[1]
    assert [[c.value for c in row] for row in inverse] == [
        [Fraction(1, 24), Fraction(-1, 24)], [Fraction(-1, 24), Fraction(25, 24)]]
    assert [[c.digits for c in row] for row in inverse] == [[3, 5], [3, 3]]


def test_padic_inverse_is_exact():
    rng = random.Random(89)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            g = random_sl_padic(rng, Q5, n)
            prod = (g @ g.inverse()).entries
            assert [[c.value for c in row] for row in prod] == np.eye(n, dtype=int).tolist()


def test_padic_inverse_is_the_adjugate():
    # the adjugate has the values of the elimination's inverse wherever the
    # stored determinant is 1, and for n = 2 each entry is an entry of g up
    # to sign, with its digits; entries cut to fewer digits included
    def values(m):
        return [[c.value for c in row] for row in m]

    rng = random.Random(101)
    seen = collections.Counter()
    for k in range(240):
        field = padic((3, 5, 7)[k % 3], 40 if k % 2 else rng.randint(4, 10))
        n = 2 + k // 3 % 4
        g = random_sl_padic(rng, field, n)
        if k % 3 == 0:
            g = SLMatrix(field, [[PadicScalar(field, c.value, rng.randint(2, field.precision))
                                  for c in row] for row in g.entries], check=False)
        try:
            inverse = g.inverse().entries
        except PrecisionExhaustedError:
            assert n > 2
            seen["adjugate raises"] += 1
            continue
        if n == 2:
            (a, b), (c, d) = g.entries
            assert values(inverse) == [[d.value, -b.value], [-c.value, a.value]]
            assert [x.digits for x in inverse.flat] == [d.digits, b.digits, c.digits, a.digits]
        try:
            eliminated = gauss_jordan(g.entries)[1]
        except PrecisionExhaustedError:
            seen["elimination raises"] += 1
        else:
            assert values(inverse) == values(eliminated)
            seen["same values"] += 1
        try:
            prod = (g @ g.inverse()).entries
        except PrecisionExhaustedError:
            assert k % 2 == 0 or k % 3 == 0  # only where digits are short
            continue
        assert values(prod) == np.eye(n, dtype=int).tolist()
        seen["g g^-1 = I"] += 1
    assert set(seen) == {"adjugate raises", "elimination raises", "same values",
                         "g g^-1 = I"}, seen


def test_cartan_of_descending_diagonal_is_trivial():
    t = cartan_decompose(diagonal(REAL, [4, 0.25]))
    np.testing.assert_allclose(t.k.entries, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t.k_prime.entries, np.eye(2), atol=1e-12)
    assert t.a == pytest.approx((4, 0.25))


def test_cartan_of_rotation():
    g = SLMatrix(REAL, [[0, -1], [1, 0]])
    t = cartan_decompose(g)
    assert t.a == pytest.approx((1, 1))
    np.testing.assert_allclose(t.reconstruct().entries, g.entries, atol=1e-12)


def test_cartan_padic_shear():
    g = SLMatrix(Q5, [[1, Fraction(1, 25)], [0, 1]])
    t = cartan_decompose(g)
    assert [x.valuation for x in t.a] == [-2, 2]
    assert t.a_abs == (25.0, 5.0 ** -2)
    rec = t.reconstruct()
    assert all(x.value == y.value
               for rx, ry in zip(rec.entries, g.entries) for x, y in zip(rx, ry))


def test_padic_diagonal_matches_minor_valuations():
    rng = random.Random(31)
    for _ in range(60):
        field = padic(rng.choice([2, 3, 5, 7]))
        n = rng.randint(2, 4)
        g = random_sl_padic(rng, field, n)
        assert [x.valuation for x in cartan_decompose(g).a] == smith_valuations_oracle(g)


def test_reconstruction_archimedean():
    rng = np.random.default_rng(37)
    for n in range(2, 7):
        for field in (REAL, COMPLEX):
            for _ in range(60):
                g = random_sl_arch(rng, field, n)
                t = cartan_decompose(g)
                err = np.linalg.norm(t.reconstruct().entries - g.entries)
                assert err <= 1e-9 * np.linalg.norm(g.entries)
                for m in (t.k.entries, t.k_prime.entries):
                    assert np.linalg.norm(m.conj().T @ m - np.eye(n)) <= 1e-9
                    assert abs(np.linalg.det(m) - 1) <= 1e-9
                # deterministic phase: leading entries of the first n-1
                # columns of k are positive reals
                for i in range(n - 1):
                    col = t.k.entries[:, i]
                    lead = complex(col[int(np.argmax(np.abs(col)))])
                    assert abs(lead.imag) <= 1e-9 and lead.real > 0
                a = t.a
                assert all(a[i] >= a[i + 1] > 0 for i in range(n - 1))
                assert np.prod(a) == pytest.approx(1.0, rel=1e-9)


def test_reconstruction_padic():
    rng = random.Random(41)
    for n, count in ((2, 110), (3, 110), (4, 110), (5, 35), (6, 35)):
        for _ in range(count):
            field = padic(rng.choice([2, 3, 5, 7]))
            g = random_sl_padic(rng, field, n)
            t = cartan_decompose(g)
            rec = t.reconstruct()
            assert all(x.value == y.value
                       for rx, ry in zip(rec.entries, g.entries) for x, y in zip(rx, ry))
            for m in (t.k, t.k_prime):
                assert all(c.valuation >= 0 for row in m.entries for c in row)
                assert fraction_det([[c.value for c in row] for row in m.entries]) == 1
            vals = [x.valuation for x in t.a]
            assert vals == sorted(vals)
            assert sum(vals) == 0
            assert all(x.value == Fraction(field.prime) ** v for x, v in zip(t.a, vals))


def test_operator_norm_identities_archimedean():
    rng = np.random.default_rng(43)
    corpus = []
    for _ in range(40):
        n = int(rng.integers(2, 5))
        field = REAL if rng.integers(2) else COMPLEX
        corpus.append(random_sl_arch(rng, field, n))
    # the oracle iterates on all matrices of one field and size at once
    for field, n in dict.fromkeys((g.field, g.n) for g in corpus):
        gs = [g for g in corpus if (g.field, g.n) == (field, n)]
        for g, norm in zip(gs, power_iteration_norm([g.entries for g in gs], 2000)):
            assert operator_norm(g) == pytest.approx(norm, rel=1e-6)
        if n >= 3:
            wedges = power_iteration_norm([exterior_power(g, 2).entries for g in gs], 2000)
            for g, norm in zip(gs, wedges):
                assert wedge_operator_norm(g) == pytest.approx(norm, rel=1e-6)


def test_operator_norm_identities_padic():
    rng = random.Random(47)
    for _ in range(40):
        field = padic(rng.choice([3, 5]))
        n = rng.randint(2, 4)
        g = random_sl_padic(rng, field, n)
        t = cartan_decompose(g)
        # the sup operator norm is the largest entry absolute value
        assert t.a[0].valuation == min(c.valuation for row in g.entries for c in row)
        if n >= 3:
            w = exterior_power(g, 2)
            assert (t.a[0].valuation + t.a[1].valuation
                    == min(c.valuation for row in w.entries for c in row))


def test_padic_norm_attained_on_sampled_unit_vectors():
    rng = random.Random(53)
    g = random_sl_padic(rng, Q5, 3)
    t = cartan_decompose(g)
    best = None
    for _ in range(10_000):
        x = [rng.randrange(5 ** 6) for _ in range(3)]
        if all(c % 5 == 0 for c in x):
            continue
        img = [sum(g.entries[i][j].value * x[j] for j in range(3)) for i in range(3)]
        v = min(valuation(c, Q5) for c in img if c)
        best = v if best is None else min(best, v)
    assert best == t.a[0].valuation


def test_bilip_examples():
    assert bilip_constant(diagonal(REAL, [2, 0.5])) == pytest.approx(16)
    assert bilip_constant(SLMatrix(REAL, [[0, -1], [1, 0]])) == pytest.approx(1, rel=1e-9)
    assert bilip_constant(diagonal(Q5, [Fraction(1, 5), 5])) == 625.0


def test_bilip_constants_are_the_singular_value_ratios_of_each_matrix():
    # one stacked SVD gives each matrix the (s_1 / s_n)^2 of its own SVD and
    # of its Cartan decomposition, bit for bit
    rng = np.random.default_rng(71)
    for k in range(120):
        field = COMPLEX if k % 2 else REAL
        n = 2 + k % 5
        gs = []
        for _ in range(1 + k % 30):
            g = random_sl_arch(rng, field, n)
            scale = 10.0 ** rng.uniform(-3, 3, size=n)
            scale /= np.exp(np.log(scale).mean())
            gs.append(SLMatrix(field, g.entries * scale, check=False))
        got = bilip_constants(gs)
        assert all(type(c) is float for c in got)
        singles = []
        for g in gs:
            s = np.linalg.svd(g.entries)[1]
            singles.append((float(s[0]) / float(s[-1])) ** 2)
        assert got == singles
        # fresh copies: the decomposition is not cached on gs
        assert got == [(t.a[0] / t.a[-1]) ** 2
                       for t in (SLMatrix(field, g.entries, check=False).cartan() for g in gs)]
        assert got == [bilip_constant(g) for g in gs]
    assert bilip_constants([]) == []


def _outcome(f, g):
    try:
        return f(g)
    except (DecompositionError, PrecisionExhaustedError) as exc:
        return type(exc), str(exc)


def test_padic_bilip_constant_matches_the_smith_form():
    # bilip_constant over Q_p reads |a_1| and |a_n| off g and its inverse.  It
    # must give the Smith form's float wherever both finish, and the minors'
    # wherever it finishes; below the digit floor both raise alike, and
    # otherwise it raises only where the inverse does
    rng = random.Random(67)
    seen = collections.Counter()
    for k in range(900):
        field = padic(rng.choice([3, 5, 7]), 40 if k % 3 == 0 else rng.randint(3, 8))
        n = rng.randint(2, 5)
        g = random_sl_padic(rng, field, n, val_range=3)
        if k % 3 == 2:
            g = SLMatrix(field, [[PadicScalar(field, c.value, rng.randint(1, field.precision))
                                  for c in row] for row in g.entries], check=False)
        # fresh copies: no cached inverse or decomposition is shared
        new = _outcome(bilip_constant, SLMatrix(field, g.entries, check=False))
        old = _outcome(bilip_constant_by_smith, SLMatrix(field, g.entries, check=False))
        inverse = _outcome(lambda h: h.inverse(), SLMatrix(field, g.entries, check=False))
        if min(c.digits for row in g.entries for c in row) < n + 1:
            assert new == old
            assert new[1].startswith("matrix entries carry")
            seen["floor"] += 1
        elif isinstance(new, float):
            assert isinstance(inverse, SLMatrix)
            j = smith_valuations_oracle(g)
            assert new == float(field.prime) ** (2 * (j[-1] - j[0]))
            if isinstance(old, float):
                assert new == old
                seen["equal"] += 1
            else:
                seen["smith form only raises"] += 1
        else:
            assert new == inverse
            seen["inverse only raises" if isinstance(old, float) else "both raise"] += 1
    assert set(seen) == {"floor", "equal", "smith form only raises", "inverse only raises",
                         "both raise"}, seen


def test_projective_maps_respect_bilip_bound():
    rng = np.random.default_rng(59)
    for _ in range(3):
        g = random_sl_arch(rng, REAL, 3)
        c = bilip_constant(g)
        u = rng.normal(size=(10_000, 3))
        v = rng.normal(size=(10_000, 3))
        base = batch_proj_dist(u, v)
        for mat in (np.asarray(g.entries), np.asarray(g.inverse().entries)):
            moved = batch_proj_dist(u @ mat.T, v @ mat.T)
            assert np.all(moved <= c * base + 1e-12)


def _random_q5_point(rng, n=3):
    while True:
        coords = [rng.randrange(5 ** 6) for _ in range(n)]
        if any(c % 5 for c in coords):
            return ProjPoint(Q5, coords)


def test_projective_maps_respect_bilip_bound_padic():
    rng = random.Random(61)
    g = random_sl_padic(rng, Q5, 3)
    c = bilip_constant(g)
    for m in (g, g.inverse()):
        for _ in range(750):
            p = _random_q5_point(rng)
            q = _random_q5_point(rng)
            d = proj_dist(p, q)
            assert proj_dist(apply_point(m, p), apply_point(m, q)) <= c * d * (1 + 1e-12)


def test_exterior_power_examples():
    g = diagonal(REAL, [2.0, 3.0, Fraction(1, 6)])
    w = exterior_power(g, 2)
    np.testing.assert_allclose(w.entries, np.diag([6.0, 1 / 3, 0.5]), atol=1e-12)
    np.testing.assert_allclose(exterior_power(identity(REAL, 4), 2).entries,
                               np.eye(6), atol=1e-12)
    w5 = exterior_power(identity(Q5, 4), 2)
    assert [[c.value for c in row] for row in w5.entries] == [
        [int(i == j) for j in range(6)] for i in range(6)]
    with pytest.raises(DomainError):
        exterior_power(g, 3)


def test_exterior_power_singular_values_are_pairwise_products():
    rng = np.random.default_rng(67)
    for _ in range(20):
        g = random_sl_arch(rng, REAL, 3)
        s = np.linalg.svd(np.asarray(g.entries), compute_uv=False)
        pairs = sorted((s[i] * s[j] for i in range(3) for j in range(i + 1, 3)),
                       reverse=True)
        got = np.linalg.svd(np.asarray(exterior_power(g, 2).entries), compute_uv=False)
        np.testing.assert_allclose(got, pairs, rtol=1e-9)


def test_exterior_power_functoriality():
    rng = np.random.default_rng(71)
    for n in (3, 4):
        for _ in range(10):
            g = random_sl_arch(rng, REAL, n)
            h = random_sl_arch(rng, REAL, n)
            lhs = np.asarray(exterior_power(g @ h, 2).entries)
            rhs = np.asarray((exterior_power(g, 2) @ exterior_power(h, 2)).entries)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)
    rng2 = random.Random(73)
    for _ in range(8):
        g = random_sl_padic(rng2, Q5, 3)
        h = random_sl_padic(rng2, Q5, 3)
        lhs = exterior_power(g @ h, 2)
        rhs = exterior_power(g, 2) @ exterior_power(h, 2)
        assert all(x.value == y.value
                   for rx, ry in zip(lhs.entries, rhs.entries) for x, y in zip(rx, ry))


def test_padic_exterior_power_entries_are_minors():
    rng = random.Random(97)
    for n in (3, 4, 5):
        for _ in range(3):
            g = random_sl_padic(rng, Q5, n)
            values = [[c.value for c in row] for row in g.entries]
            for i in range(1, n):
                subsets = list(itertools.combinations(range(n), i))
                got = [[c.value for c in row] for row in exterior_power(g, i).entries]
                assert got == [[fraction_det([[values[r][c] for c in T] for r in S])
                                for T in subsets] for S in subsets]


def test_exterior_power_matches_wedge_coordinates():
    rng = np.random.default_rng(79)
    g = random_sl_arch(rng, REAL, 4)
    v = rng.normal(size=4)
    w = rng.normal(size=4)
    lhs = exterior_power(g, 2).entries @ wedge_coordinates(v, w)
    rhs = wedge_coordinates(g.entries @ v, g.entries @ w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    rng2 = random.Random(83)
    h = random_sl_padic(rng2, Q5, 3)
    v5 = as_field_array(Q5, [3, 10, Fraction(1, 5)], 1)
    w5 = as_field_array(Q5, [1, 2, 7], 1)
    lhs5 = exterior_power(h, 2).entries @ wedge_coordinates(v5, w5)
    rhs5 = wedge_coordinates(h.entries @ v5, h.entries @ w5)
    assert all(x.value == y.value for x, y in zip(lhs5, rhs5))


def test_incidence_is_preserved():
    rng = random.Random(89)
    g = random_sl_padic(rng, Q5, 3)
    h = ProjPoint(Q5, [-(2 * 4 + 3 * 1), 4, 1])
    plane = apply_hyperplane(g, _hyperplane123())
    assert plane.contains(apply_point(g, h))

    rng2 = np.random.default_rng(97)
    ga = random_sl_arch(rng2, REAL, 3)
    pa = ProjPoint(REAL, [-(2 * 0.3 + 3 * 0.8), 0.3, 0.8])
    ha = ProjHyperplane(REAL, [1, 2, 3])
    assert apply_hyperplane(ga, ha).contains(apply_point(ga, pa))


def _hyperplane123():
    return ProjHyperplane(Q5, [1, 2, 3])


def test_padic_cartan_refuses_worn_entries():
    f = padic(5, 40)
    worn = (f.scalar(1 + 5 ** 38) - 1) / f.scalar(5 ** 38)
    assert worn.digits == 2
    g = SLMatrix(f, [[worn, f.zero()], [f.zero(), f.one() / worn]])
    with pytest.raises(PrecisionExhaustedError):
        cartan_decompose(g)


# The Q_p determinant gate: one bareiss call on the ints of each matrix

def _padic_gate_by_gauss_jordan(field, stack):
    """The gate matrix by matrix as it stood on gauss_jordan alone: the exact
    det of the values, with slack the fewest digits an entry holds."""
    for index, entries in enumerate(stack):
        det, _ = gauss_jordan(exact_form(entries))
        if det != 1:
            slack = min(c.digits for row in entries for c in row)
            if valuation(det - 1, field) < slack:
                return index, f"determinant is {det}, not 1"
    return None


def _truncated(field, g, digits):
    """g with each nonzero entry read back from {"val", "unit_digits"} to
    `digits` places: a truncation, so the values move by p^(valuation + digits)."""
    def entry(x):
        if not x:
            return x
        return io.decode_scalar(field, {"val": x.valuation, "unit_digits": x.unit_digits(digits)},
                                "x")
    return np.array([[entry(x) for x in row] for row in g], dtype=object)


def _gate_cases(rng, field, n):
    """Matrices for the gate: SL_n, det 1 + p^k on truncated entries at the
    slack and one below it, exactly singular, non-integral with p in the
    denominators, and det 1 times a unit or a power of p."""
    p = field.prime
    integral = random_sl_padic(rng, field, n, integral=True).entries
    digits = rng.randint(2, min(field.precision, 8))
    cases = [random_sl_padic(rng, field, n).entries, integral]
    for k in (digits, digits - 1):
        scaled = integral.copy()
        scaled[0] = scaled[0] * (1 + p ** k)
        cases.append(_truncated(field, scaled, digits))
    singular = integral.copy()
    singular[1] = singular[0] * field.scalar(Fraction(rng.choice([1, -2, 3]), p))
    cases.append(singular)
    wide = random_sl_padic(rng, field, n, val_range=3).entries.copy()
    wide[0] = wide[0] * field.scalar(Fraction(rng.choice([1, 2, 1 + p ** 3]), p ** rng.randint(0, 2)))
    cases.append(wide)
    return cases


@pytest.mark.parametrize("prime", [5, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_the_padic_gate_is_the_gauss_jordan_gate(prime, n):
    rng = random.Random(prime * 10 + n)
    seen = collections.Counter()
    for trial in range(40):
        field = padic(prime, rng.choice([40, 6, 3]))
        cases = _gate_cases(rng, field, n)
        for m in cases:
            want = _padic_gate_by_gauss_jordan(field, m[None])
            assert determinant_failure(field, m[None]) == want
            seen["fails" if want else "passes"] += 1
            if want and want[1] == "determinant is 0, not 1":
                seen["singular"] += 1
        rng.shuffle(cases)
        stack = np.array(cases[:rng.randint(1, len(cases))])
        assert determinant_failure(field, stack) == _padic_gate_by_gauss_jordan(field, stack)
    assert seen["fails"] and seen["passes"] and seen["singular"], seen


@pytest.mark.parametrize("digits", [3, 6])
def test_the_padic_gate_slack_on_truncated_entries(digits):
    # det 1 + p^k read from unit digits to `digits` places: k = digits passes
    # by the slack, k = digits - 1 fails
    for n in (2, 3):
        g = random_sl_padic(random.Random(digits + n), Q5, n, integral=True).entries.copy()
        for k, fits in ((digits, True), (digits - 1, False)):
            m = g.copy()
            m[0] = m[0] * (1 + 5 ** k)
            m = _truncated(Q5, m, digits)[None]
            got = determinant_failure(Q5, m)
            assert got == _padic_gate_by_gauss_jordan(Q5, m)
            assert (got is None) is fits
            assert gauss_jordan(exact_form(m[0]))[0] != 1


def test_a_passing_2x2_padic_stack_makes_no_elimination(monkeypatch):
    # the gate makes one bareiss call per matrix, the closed forms for n = 2,
    # and no PadicScalar elimination for any n
    seen, eliminated = [], []
    core = bareiss
    monkeypatch.setattr("pingpong.cartan.bareiss", lambda a: seen.append(len(a)) or core(a))
    monkeypatch.setattr("pingpong.cartan._eliminated_det", lambda m: eliminated.append(m))
    rng = random.Random(23)
    stack = np.array([random_sl_padic(rng, Q5, 2).entries for _ in range(12)])
    stack3 = np.array([random_sl_padic(rng, Q5, 3).entries for _ in range(2)])
    seen.clear()
    assert determinant_failure(Q5, stack) is None
    assert seen == [2] * 12
    assert determinant_failure(Q5, stack3) is None
    assert seen == [2] * 12 + [3, 3]
    assert eliminated == []


def _bilip_by_element(matrices):
    """bilip_constants over Q_p as it looped: the digit floor, then the
    inverse, element by element."""
    constants = []
    for g in matrices:
        _check_digits(g)
        top = min(c.valuation for row in g.entries for c in row)
        inverse_top = min(c.valuation for row in g.inverse().entries for c in row)
        constants.append(float(g.field.prime) ** (-2 * (top + inverse_top)))
    return constants


def _fresh(matrices):
    return [SLMatrix(g.field, g.entries, check=False) for g in matrices]


def test_padic_bilip_constants_make_one_adjugate_call_per_set(monkeypatch):
    calls = []
    original = _adjugate
    monkeypatch.setattr("pingpong.cartan._adjugate",
                        lambda entries: calls.append(entries.shape) or original(entries))
    rng = random.Random(29)
    for n in (2, 3):
        gs = [random_sl_padic(rng, Q5, n) for _ in range(6)]
        calls.clear()
        got = bilip_constants(gs + gs[:2])
        assert calls == [(6, n, n)]
        assert got == _bilip_by_element(_fresh(gs + gs[:2]))


def _worn(field, g, digits):
    return SLMatrix(field, [[PadicScalar(field, c.value, digits) for c in row]
                            for row in g.entries], check=False)


def test_padic_bilip_constants_raise_the_first_error_of_the_loop():
    rng = random.Random(31)
    for n in (2, 3):
        gs = [random_sl_padic(rng, Q5, n) for _ in range(4)]
        gs[2] = _worn(Q5, gs[2], n)  # under the floor of n + 1 digits
        with pytest.raises(PrecisionExhaustedError) as want:
            _bilip_by_element(_fresh(gs))
        fresh = _fresh(gs)
        with pytest.raises(PrecisionExhaustedError) as got:
            bilip_constants(fresh)
        assert str(got.value) == str(want.value) == (
            f"matrix entries carry {n} digits; decomposition in dimension {n} "
            f"needs at least {n + 1}")
        # the elements before the failure have their inverses, the rest none
        assert [g._inverse is not None for g in fresh] == [True, True, False, False]
    # an earlier element whose inverse runs out of digits raises first, as in the loop
    field = padic(5, 4)
    for _ in range(400):
        g = random_sl_padic(rng, field, 3, val_range=3)
        try:
            _fresh([g])[0].inverse()
        except PrecisionExhaustedError:
            break
    else:
        pytest.fail("no matrix whose inverse runs out of digits")
    worn = _worn(field, random_sl_padic(rng, field, 3), 3)
    for gs in ([g, worn], [worn, g]):
        with pytest.raises(PrecisionExhaustedError) as want:
            _bilip_by_element(_fresh(gs))
        with pytest.raises(PrecisionExhaustedError) as got:
            bilip_constants(_fresh(gs))
        assert str(got.value) == str(want.value)


def _adjugate_by_sign_products(entries):
    """_adjugate for n >= 3 as it multiplied each cofactor by (-1)^(i+j)."""
    n = entries.shape[-1]
    keep = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    minors = entries[..., keep[None, :, :, None], keep[:, None, None, :]]
    return (-1) ** np.add.outer(np.arange(n), np.arange(n)) * _dets(minors)


def test_negated_cofactors_are_the_sign_products():
    # bytes over R, and over C on entries with no zero part: there a product
    # by -1 + 0j or 1 + 0j can change the sign of a zero part, and negation
    # does not; values and digits over Q_5
    rng = np.random.default_rng(37)
    for n in (3, 4, 5):
        real = rng.normal(size=(6, n, n)) * 10.0 ** rng.integers(-3, 4, size=(6, 1, 1))
        for stack in (real, real + 1j * rng.normal(size=real.shape)):
            assert _adjugate(stack).tobytes() == _adjugate_by_sign_products(stack).tobytes()
    exact = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 0.0, 7.0]])
    assert _adjugate(exact).tobytes() == _adjugate_by_sign_products(exact).tobytes()
    prng = random.Random(37)
    for n in (3, 4):
        for field in (Q5, padic(5, 6)):
            stack = np.array([random_sl_padic(prng, field, n).entries for _ in range(4)])
            assert _same_entries(_adjugate(stack), _adjugate_by_sign_products(stack))


def test_a_matrix_product_needs_a_matrix_of_the_same_field_and_size():
    g = SLMatrix(REAL, [[1.0, 1.0], [0.0, 1.0]])
    assert g.__matmul__([[1.0, 0.0], [0.0, 1.0]]) is NotImplemented
    with pytest.raises(TypeError):
        g @ 2
    with pytest.raises(DomainError, match="matching fields and sizes"):
        g @ SLMatrix(Q5, [[1, 1], [0, 1]])


def test_a_padic_bilip_constant_outside_the_float_range_raises():
    # 5^920 overflows: an OverflowError (exit 1 from the CLI) before
    g = SLMatrix(Q5, [[Fraction(1, 5 ** 230), 0], [0, 5 ** 230]])
    with pytest.raises(DomainError, match=r"5\^920 is outside the float range"):
        bilip_constant(g)
    assert bilip_constant(SLMatrix(Q5, [[Fraction(1, 5 ** 110), 0], [0, 5 ** 110]])) == 5.0 ** 440
