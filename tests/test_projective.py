import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import scalar_dist_to_hyperplane, scalar_proj_dist, wedge_coordinates
from pingpong.errors import DomainError
from pingpong.fields import COMPLEX, REAL, PadicScalar, padic
from pingpong.projective import (
    ProjHyperplane,
    ProjPoint,
    _PIVOT_CUTOFF,
    _norms,
    _pairs,
    as_field_array,
    canonical_rows,
    dist_to_hyperplane,
    hyperplane_distances,
    point_distances,
    proj_dist,
)

Q5 = padic(5)


def _norm(field, coords):
    return _norms(field, as_field_array(field, coords, 1))


def _wedge_norm(field, v, w):
    return _norm(field, wedge_coordinates(v, w))


def test_norms():
    assert _norm(REAL, [3, 4]) == 5
    assert _norm(Q5, [1, 5]) == 1
    assert _norm(REAL, [0, 0]) == 0
    assert _norm(Q5, [0, 0]) == 0


def test_wedge_norms():
    assert _wedge_norm(REAL, [1, 0], [0, 1]) == 1
    assert _wedge_norm(REAL, [1, 0], [1, 0]) == 0
    assert _wedge_norm(Q5, [1, 0], [1, 0]) == 0
    assert _wedge_norm(Q5, [1, 0], [1, 5]) == 0.2
    # on unit rows the metric is the wedge norm
    e1, e2, f1 = ProjPoint(REAL, [1, 0]), ProjPoint(REAL, [0, 1]), ProjPoint(Q5, [1, 0])
    assert proj_dist(e1, e2) == 1
    assert proj_dist(e1, e1) == 0
    assert proj_dist(f1, f1) == 0
    assert proj_dist(f1, ProjPoint(Q5, [1, 5])) == 0.2


def test_wedge_basis_order():
    v, w = [1, 2, 3], [4, 5, 6]
    # pairs (0,1), (0,2), (1,2)
    want = [1 * 5 - 2 * 4, 1 * 6 - 3 * 4, 2 * 6 - 3 * 5]
    assert wedge_coordinates(v, w) == want
    assert wedge_coordinates(as_field_array(REAL, v, 1), as_field_array(REAL, w, 1)) == want
    # the kernels' wedge basis is the same
    assert [(int(i), int(j)) for i, j in zip(*_pairs(3))] == [(0, 1), (0, 2), (1, 2)]


def test_proj_dist_examples():
    e1 = ProjPoint(REAL, [1, 0])
    e2 = ProjPoint(REAL, [0, 1])
    assert proj_dist(e1, e2) == pytest.approx(1.0)
    diag = ProjPoint(REAL, [1, 1])
    assert proj_dist(e1, diag) == pytest.approx(1 / math.sqrt(2))
    p = ProjPoint(Q5, [1, 0])
    q = ProjPoint(Q5, [1, 5])
    assert proj_dist(p, q) == 0.2
    assert proj_dist(p, p) == 0.0


def test_dist_to_hyperplane_examples():
    ker_x1 = ProjHyperplane(REAL, [1, 0])
    assert dist_to_hyperplane(ProjPoint(REAL, [1, 0]), ker_x1) == pytest.approx(1.0)
    assert dist_to_hyperplane(ProjPoint(REAL, [1, 1]), ker_x1) == pytest.approx(1 / math.sqrt(2))
    h = ProjHyperplane(Q5, [1, 5])
    assert dist_to_hyperplane(ProjPoint(Q5, [1, 0]), h) == 1.0
    assert h.contains(ProjPoint(Q5, [-5, 1]))


def _scalar_canonical(row):
    # one vector at a time: scalar abs() for the phase, np.linalg.norm for the norm
    biggest = float(np.max(np.abs(row)))
    pivot = row[int(np.argmax(np.abs(row) > _PIVOT_CUTOFF * biggest))]
    if np.iscomplexobj(row):
        phase = pivot / abs(pivot)
    else:
        phase = 1.0 if pivot > 0 else -1.0
    return row / (phase * float(np.linalg.norm(row / biggest)) * biggest)


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q5], ids=str)
def test_canonical_rows_match_projpoint_bits(field):
    rng = np.random.default_rng(8)
    if field is Q5:
        rows = [[rng.integers(-50, 50) * Fraction(5) ** int(rng.integers(-2, 3))
                 for _ in range(3)] for _ in range(12)]
        rows[0][0] = Fraction(0)
    else:
        rows = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-4, 5, size=(12, 1))
        if field is COMPLEX:
            rows = rows + 1j * rng.normal(size=(12, 3))
        # a leading coordinate below the cutoff is passed over as the pivot
        rows[0, 0] = rows[0, 1] * _PIVOT_CUTOFF / 10
    rows = as_field_array(field, rows, 2)
    stack = canonical_rows(field, rows.reshape(2, 6, 3))
    for row, canonical in zip(rows, stack.reshape(12, 3)):
        rep = ProjPoint(field, row).rep
        if field is Q5:
            assert [(x.value, x.digits) for x in canonical] == [(y.value, y.digits) for y in rep]
        else:
            assert canonical.tobytes() == rep.tobytes() == _scalar_canonical(row).tobytes()
    zero = as_field_array(field, [[1, 2, 3], [0, 0, 0]], 2)
    with pytest.raises(DomainError):
        canonical_rows(field, zero)


def test_padic_canonical_rows_divide_only_where_division_changes_something(monkeypatch):
    s = Q5.scalar
    rows = np.array([[s(5), s(1), s(0)],                     # canonical already
                     [s(25), PadicScalar(Q5, 1, 3), s(7)],   # pivot 1 known to 3 of 40 digits
                     [s(10), s(3), s(2)]], dtype=object)
    divided = []
    divide = PadicScalar.__truediv__
    monkeypatch.setattr(PadicScalar, "__truediv__", lambda x, y: divided.append(x) or divide(x, y))
    out = canonical_rows(Q5, rows)
    assert len(divided) == 6  # rows 1 and 2 only
    assert [(x.value, x.digits) for x in out[0]] == [(5, 40), (1, 40), (0, 40)]
    assert [(x.value, x.digits) for x in out[1]] == [(25, 3), (1, 3), (7, 3)]
    assert [x.value for x in out[2]] == [Fraction(10, 3), 1, Fraction(2, 3)]


def test_canonical_reps_are_scale_invariant():
    v = [0.3, -1.2, 0.7]
    a = ProjPoint(REAL, v)
    b = ProjPoint(REAL, [c * -2.7 for c in v])
    np.testing.assert_allclose(a.rep, b.rep, atol=1e-12)
    assert a.rep[0] > 0
    assert _norms(REAL, a.rep) == pytest.approx(1.0, abs=1e-12)

    w = [1j, 2 - 1j]
    c = ProjPoint(COMPLEX, w)
    d = ProjPoint(COMPLEX, [x * (0.4 + 2.1j) for x in w])
    np.testing.assert_allclose(c.rep, d.rep, atol=1e-12)
    assert abs(c.rep[0].imag) < 1e-12 and c.rep[0].real > 0

    u = [Fraction(10), Fraction(3), Fraction(50)]
    p = ProjPoint(Q5, u)
    q = ProjPoint(Q5, [x * Fraction(-7, 5) for x in u])
    assert all(x == y for x, y in zip(p.rep, q.rep))
    # coordinates integral, first unit coordinate is 1
    assert all(x.valuation >= 0 for x in p.rep)
    assert p.rep[1] == 1
    assert p == q

    with pytest.raises(DomainError):
        ProjPoint(REAL, [0, 0])


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q5], ids=str)
@pytest.mark.parametrize("kind", [ProjPoint, ProjHyperplane])
@pytest.mark.parametrize("coords", [[], [[1, 2], [3, 4]]], ids=["empty", "2d"])
def test_flags_take_one_nonempty_row(field, kind, coords):
    with pytest.raises(DomainError):
        kind(field, coords)


def _random_padic_point(rng, n):
    while True:
        coords = [Fraction(rng.randint(-20, 20)) * Fraction(5) ** rng.randint(-1, 1)
                  for _ in range(n)]
        if any(coords):
            return ProjPoint(Q5, coords)


def test_metric_axioms():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        p, q, r = (ProjPoint(REAL, rng.normal(size=3)) for _ in range(3))
        dpq = proj_dist(p, q)
        assert 0.0 <= dpq <= 1.0 + 1e-12
        assert dpq == pytest.approx(proj_dist(q, p), abs=1e-12)
        assert dpq <= proj_dist(p, r) + proj_dist(r, q) + 1e-12


def test_ultrametric_axioms():
    rng = random.Random(13)
    for _ in range(10_000):
        p, q, r = (_random_padic_point(rng, 3) for _ in range(3))
        dpq = proj_dist(p, q)
        assert 0.0 <= dpq <= 1.0
        assert dpq == proj_dist(q, p)
        assert dpq <= max(proj_dist(p, r), proj_dist(r, q))


def test_isometric_action():
    rng = np.random.default_rng(17)
    for field in (REAL, COMPLEX):
        for _ in range(500):
            g = rng.normal(size=(3, 3))
            if field is COMPLEX:
                g = g + 1j * rng.normal(size=(3, 3))
            k, _ = np.linalg.qr(g)
            p = ProjPoint(field, rng.normal(size=3) + (1j * rng.normal(size=3) if field is COMPLEX else 0))
            q = ProjPoint(field, rng.normal(size=3) + (1j * rng.normal(size=3) if field is COMPLEX else 0))
            kp = ProjPoint(field, k @ p.rep)
            kq = ProjPoint(field, k @ q.rep)
            assert proj_dist(kp, kq) == pytest.approx(proj_dist(p, q), abs=1e-9)


def _random_slz(rng, n):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        lam = rng.randint(-3, 3)
        for c in range(n):
            m[j][c] += lam * m[i][c]
    return m


def test_isometric_action_padic():
    rng = random.Random(19)
    for _ in range(1000):
        k = _random_slz(rng, 3)
        p = _random_padic_point(rng, 3)
        q = _random_padic_point(rng, 3)

        def act(pt):
            coords = [sum((row[c] * pt.rep[c] for c in range(3)), Q5.zero())
                      for row in k]
            return ProjPoint(Q5, coords)

        assert proj_dist(act(p), act(q)) == proj_dist(p, q)


def test_hyperplane_distance_is_infimum_over_the_hyperplane():
    rng = np.random.default_rng(23)
    for n, samples, slack in ((3, 4000, 0.01), (4, 20000, 0.08)):
        form = rng.normal(size=n)
        point = ProjPoint(REAL, rng.normal(size=n))
        h = ProjHyperplane(REAL, form)
        d = dist_to_hyperplane(point, h)
        # orthonormal kernel basis of the form
        _, _, vt = np.linalg.svd(h.form.reshape(1, -1))
        kernel = vt[1:]
        combos = rng.normal(size=(samples, n - 1)) @ kernel
        best = min(proj_dist(point, ProjPoint(REAL, c)) for c in combos)
        assert best >= d - 1e-9
        assert best - d <= slack


def test_hyperplane_distance_is_attained_padically():
    h = ProjHyperplane(Q5, [1, 2, 3])
    point = ProjPoint(Q5, [1, 2, 0])
    d = dist_to_hyperplane(point, h)
    assert d == 0.2
    best = 1.0
    for x2 in range(25):
        for x3 in range(25):
            coords = [Fraction(-(2 * x2 + 3 * x3)), Fraction(x2), Fraction(x3)]
            if not any(coords):
                continue
            best = min(best, proj_dist(point, ProjPoint(Q5, coords)))
    assert best == d


def test_form_value_is_linear_not_conjugated():
    # f = v = (1, i): the linear pairing f(v) = 1 + i^2 is 0, a conjugated
    # one would be 2 and put [v] at distance 1 from ker f
    f = v = [1, 1j]
    assert dist_to_hyperplane(ProjPoint(COMPLEX, v), ProjHyperplane(COMPLEX, f)) < 1e-15
    rows = as_field_array(COMPLEX, [v], 2)
    assert hyperplane_distances(COMPLEX, rows, as_field_array(COMPLEX, [f], 2)) < 1e-15


_REALS = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
# p-adic coordinates of valuation -3 .. 3 and above, zero included
_RATIONALS = st.builds(lambda k, e: Fraction(k) * Fraction(5) ** e,
                       st.integers(-10 ** 6, 10 ** 6), st.integers(-3, 3))
_COORDS = {
    "R": (REAL, _REALS),
    "C": (COMPLEX, st.builds(complex, _REALS, _REALS)),
    "Q5": (Q5, _RATIONALS),
}


@st.composite
def _kernel_case(draw, name):
    """(field, points (P, n), forms (H, n), w (n,)), every row nonzero."""
    field, scalars = _COORDS[name]
    n = draw(st.sampled_from([2, 3]))
    row = st.lists(scalars, min_size=n, max_size=n).filter(
        lambda r: max(abs(complex(x)) for x in r) > 1e-3)
    points = draw(st.lists(row, min_size=1, max_size=4))
    forms = draw(st.lists(row, min_size=1, max_size=3))
    return (field, as_field_array(field, points, 2), as_field_array(field, forms, 2),
            as_field_array(field, draw(row), 1))


@pytest.mark.parametrize("name", sorted(_COORDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernels_match_scalar_reference(name, data):
    # exact over Q_5, where every distance is a power of 5; within 1e-15 over
    # R and C, where distances lie in [0, 1]
    field, points, forms, w = data.draw(_kernel_case(name))
    tol = 0.0 if field.is_padic else 1e-15
    to_hyperplane = hyperplane_distances(field, points, forms)
    to_point = point_distances(field, points, w)
    assert to_hyperplane.shape == (len(points), len(forms))
    assert to_point.shape == (len(points),)
    W = ProjPoint(field, w)
    for a, v in enumerate(points):
        P = ProjPoint(field, v)
        assert abs(to_point[a] - scalar_proj_dist(P, W)) <= tol
        assert abs(proj_dist(P, W) - scalar_proj_dist(P, W)) <= tol
        for b, f in enumerate(forms):
            H = ProjHyperplane(field, f)
            assert abs(to_hyperplane[a, b] - scalar_dist_to_hyperplane(P, H)) <= tol
            assert abs(dist_to_hyperplane(P, H) - scalar_dist_to_hyperplane(P, H)) <= tol


def test_kernels_take_batch_axes_and_empty_inputs():
    points = as_field_array(Q5, [[1, 5], [25, 3], [Fraction(1, 5), 2]], 2)
    forms = as_field_array(Q5, [[5, 1], [1, 1]], 2)
    batch = np.stack([points, points[::-1]])
    assert hyperplane_distances(Q5, batch, forms).shape == (2, 3, 2)
    assert hyperplane_distances(Q5, batch, forms)[1, 0].tolist() == [0.2, 1.0]
    assert point_distances(Q5, batch, as_field_array(Q5, [1, 0], 1)).tolist() == [
        [0.2, 1.0, 0.2], [0.2, 1.0, 0.2]]
    assert hyperplane_distances(REAL, np.empty((2, 0, 2)), np.ones((3, 2))).shape == (2, 0, 3)
    assert point_distances(Q5, np.empty((0, 2), dtype=object), forms[0]).shape == (0,)


def test_archimedean_points_and_hyperplanes_compare_as_lines():
    assert ProjPoint(REAL, [1, 2]) == ProjPoint(REAL, [-2, -4])
    assert ProjPoint(REAL, [1, 2]) != ProjPoint(REAL, [1, 2.1])
    assert ProjPoint(COMPLEX, [1, 1j]) == ProjPoint(COMPLEX, [1j, -1])
    assert ProjHyperplane(REAL, [1, 3]) == ProjHyperplane(REAL, [-2, -6])
    assert ProjHyperplane(REAL, [1, 3]) != ProjHyperplane(REAL, [1, 2])


def test_real_field_array_reads_complex_values_with_zero_imaginary_part():
    arr = as_field_array(REAL, [1 + 0j, 2], 1)
    assert arr.dtype == np.float64
    assert arr.tolist() == [1.0, 2.0]
    with pytest.raises(DomainError):
        as_field_array(REAL, [1 + 1e-3j, 2], 1)


def test_a_padic_distance_outside_the_float_range_raises():
    # the exact distance 5^-470 has no float: it used to read 0.0, and contains True
    P, H = ProjPoint(Q5, [5 ** 470, 1]), ProjHyperplane(Q5, [1, 0])
    with pytest.raises(DomainError, match=r"5\^-470 is outside the float range"):
        dist_to_hyperplane(P, H)
    with pytest.raises(DomainError):
        H.contains(P)


def test_proj_dist_refuses_mixed_fields_and_dimensions():
    with pytest.raises(DomainError, match="mixed fields"):
        proj_dist(ProjPoint(REAL, [1.0, 0.0]), ProjPoint(Q5, [1, 0]))
    with pytest.raises(DomainError, match="mixed dimensions"):
        proj_dist(ProjPoint(REAL, [1.0, 0.0]), ProjPoint(REAL, [1.0, 0.0, 0.0]))


@pytest.mark.parametrize("field, coords", [(REAL, [1.0, 0.0]), (Q5, [1, 0])])
def test_a_point_never_equals_a_hyperplane(field, coords):
    assert ProjPoint(field, coords) != ProjHyperplane(field, coords)
    assert ProjHyperplane(field, coords) != ProjPoint(field, coords)
