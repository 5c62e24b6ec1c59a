"""Contraction and proximality certificates, with sampled verification."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_sl_padic
from pingpong.cartan import SLMatrix, apply_point, cartan_decompose, diagonal
from pingpong.contraction import (
    ContractionCert,
    ProximalCert,
    contraction_coefficient,
    contraction_data,
    lipschitz_outside,
    proximal_cert,
    ratio_from_lipschitz,
    ratio_upper_bound_from_contraction,
    verify_contracting,
)
from pingpong.errors import ConstructionError, DomainError, NotContractingError
from pingpong.fields import COMPLEX, REAL, padic
from pingpong.projective import (
    ProjHyperplane,
    ProjPoint,
    dist_to_hyperplane,
    proj_dist,
)

Q5 = padic(5)

ROT90 = SLMatrix(REAL, [[0.0, -1.0], [1.0, 0.0]])


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return SLMatrix(REAL, [[c, -s], [s, c]])


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    q = q * (d.conj() / np.abs(d))
    det = np.linalg.det(q)
    q[:, 0] = q[:, 0] / det
    return q


def test_contraction_coefficient_examples():
    assert contraction_coefficient(diagonal(REAL, [100.0, 0.01])) == pytest.approx(0.01, rel=1e-12)
    assert contraction_coefficient(ROT90) == 1.0
    assert contraction_coefficient(rotation(0.7)) == 1.0
    g5 = diagonal(Q5, [Fraction(1, 125), Fraction(125)])
    assert contraction_coefficient(g5) == pytest.approx(0.008, rel=1e-12)


def test_contraction_coefficient_odd_gap():
    # valuation gap 1 has no exact half power, so the square root is a float
    g = diagonal(Q5, [Fraction(1, 5), Fraction(1), Fraction(5)])
    assert contraction_coefficient(g) == pytest.approx(5.0 ** -0.5, rel=1e-12)


def test_padic_ratio_and_coefficient_are_exact_powers():
    for k in range(1, 9):
        g = diagonal(Q5, [Fraction(1, 5 ** k), Fraction(5 ** k)])
        assert g.cartan().ratio == 5.0 ** (-2 * k)
        assert contraction_coefficient(g) == 5.0 ** -k
    assert contraction_coefficient(diagonal(Q5, [1, 1])) == 1.0


def test_contraction_data_diagonal():
    cert = contraction_data(diagonal(REAL, [100.0, 0.01]))
    assert cert.epsilon == pytest.approx(0.01, rel=1e-12)
    assert cert.ratio == pytest.approx(1e-4, rel=1e-12)
    assert proj_dist(cert.attracting, ProjPoint(REAL, [1.0, 0.0])) <= 1e-12
    # H = ker(x1) is the e2-line
    assert cert.repelling.contains(ProjPoint(REAL, [0.0, 1.0]))
    assert cert.flag_distance() == pytest.approx(1.0)


def test_contraction_data_rotated():
    g = ROT90 @ diagonal(REAL, [100.0, 0.01])
    cert = contraction_data(g)
    assert proj_dist(cert.attracting, ProjPoint(REAL, [0.0, 1.0])) <= 1e-9
    assert cert.repelling.contains(ProjPoint(REAL, [0.0, 1.0]))
    assert dist_to_hyperplane(ProjPoint(REAL, [1.0, 0.0]), cert.repelling) == pytest.approx(1.0)


def test_contraction_data_padic():
    cert = contraction_data(diagonal(Q5, [Fraction(1, 125), Fraction(125)]))
    assert cert.epsilon == pytest.approx(0.008, rel=1e-12)
    assert cert.attracting == ProjPoint(Q5, [1, 0])
    assert cert.repelling.contains(ProjPoint(Q5, [0, 1]))
    assert cert.flag_distance() == 1.0


def test_contraction_data_refuses_non_contracting():
    with pytest.raises(NotContractingError):
        contraction_data(rotation(1.2))
    with pytest.raises(NotContractingError):
        contraction_data(SLMatrix(REAL, [[1.0, 1.0], [0.0, 1.0]]))


def test_verify_contracting_accepts_true_certificate():
    g = diagonal(REAL, [100.0, 0.01])
    cert = contraction_data(g)
    assert verify_contracting(cert, g, samples=10_000, seed=1)


@pytest.mark.parametrize("g", [
    diagonal(REAL, [100.0, 0.01]),
    SLMatrix(COMPLEX, random_unitary(np.random.default_rng(11), 2) @ np.diag([100.0, 0.01])),
    diagonal(REAL, [100.0, 1.0, 0.01]),
], ids=["real", "complex", "real3"])
def test_verify_contracting_rejects_overstated_epsilon(g):
    # epsilon below sqrt(ratio) overstates the contraction; sampling finds
    # a point outside the epsilon-neighborhood whose image misses the ball
    base = contraction_data(g)
    assert verify_contracting(base, g, samples=10_000, seed=1)
    forged = ContractionCert(base.ratio ** 0.6, base.attracting, base.repelling, base.ratio)
    assert not verify_contracting(forged, g, samples=10_000, seed=1)


def test_verify_contracting_vacuous_without_samples():
    g = diagonal(REAL, [100.0, 0.01])
    cert = contraction_data(g)
    assert verify_contracting(cert, g, samples=0, seed=99)


def test_verify_contracting_padic():
    g = diagonal(Q5, [Fraction(1, 125), Fraction(125)])
    cert = contraction_data(g)
    assert verify_contracting(cert, g, samples=2000, seed=3)
    forged = ContractionCert(cert.epsilon / 5.0, cert.attracting, cert.repelling, cert.ratio)
    assert not verify_contracting(forged, g, samples=2000, seed=3)


def test_random_sl2_with_tiny_ratio_verifies():
    rng = np.random.default_rng(71)
    for _ in range(5):
        q1 = random_orthogonal(rng, 2)
        q2 = random_orthogonal(rng, 2)
        g = SLMatrix(REAL, q1 @ np.diag([1e3, 1e-3]) @ q2)
        cert = contraction_data(g)
        assert cert.ratio == pytest.approx(1e-6, rel=1e-9)
        assert verify_contracting(cert, g, samples=10_000, seed=5)


def test_certificates_verify_across_dimensions():
    rng = np.random.default_rng(101)
    rng5 = random.Random(103)
    for n in (2, 3, 4):
        for field, top in ((REAL, 100.0), (COMPLEX, 100.0)):
            maker = random_orthogonal if field is REAL else random_unitary
            g = SLMatrix(field, maker(rng, n) @ np.diag([top] + [1.0] * (n - 2) + [1.0 / top]).astype(complex if field is COMPLEX else float) @ maker(rng, n))
            cert = contraction_data(g)
            assert cert.epsilon < 0.25
            assert verify_contracting(cert, g, samples=10_000, seed=n)
        k1 = random_sl_padic(rng5, Q5, n, ops=10, integral=True)
        k2 = random_sl_padic(rng5, Q5, n, ops=10, integral=True)
        mid = diagonal(Q5, [Fraction(1, 25)] + [Fraction(1)] * (n - 2) + [Fraction(25)])
        g5 = k1 @ mid @ k2
        cert5 = contraction_data(g5)
        # n = 2 has no middle 1s, so the valuation gap is 4 instead of 2
        assert cert5.epsilon == pytest.approx(0.04 if n == 2 else 0.2, rel=1e-12)
        assert verify_contracting(cert5, g5, samples=10_000, seed=n)


def smallest_feasible_epsilon(dist_h, dist_v):
    """Least grid-certified epsilon: every sample at distance >= eps from H
    must land within eps of v."""
    order = np.argsort(dist_h)
    dh = dist_h[order]
    dv = dist_v[order]
    suffix = np.maximum.accumulate(dv[::-1])[::-1]
    candidates = np.maximum(dh, suffix)
    return float(candidates.min())


def test_converse_bound_on_p1_grid_real():
    thetas = np.arange(0.0, math.pi, 1e-3)
    points = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for t, alpha, beta in ((5.0, 0.3, 1.1), (8.0, 1.9, 0.4), (12.0, 2.4, 2.0)):
        g = rotation(alpha) @ diagonal(REAL, [t, 1.0 / t]) @ rotation(beta)
        triple = cartan_decompose(g)
        f = triple.repulsive_hyperplane().form
        v = triple.attracting_point().rep
        dist_h = np.abs(points @ f)
        img = points @ np.asarray(g.entries).T
        nn = np.einsum("ij,ij->i", img, img)
        dist_v = np.sqrt(np.clip(1.0 - (img @ v) ** 2 / nn, 0.0, 1.0))
        eps = smallest_feasible_epsilon(dist_h, dist_v)
        assert eps < 0.25
        assert triple.ratio <= ratio_upper_bound_from_contraction(eps, REAL)


def test_converse_bound_on_p1_grid_padic():
    # exhaustive reps of P^1(Z/5^5): finer than any grid of resolution 1e-3
    rng = random.Random(107)
    k1 = random_sl_padic(rng, Q5, 2, ops=10, integral=True)
    k2 = random_sl_padic(rng, Q5, 2, ops=10, integral=True)
    g = k1 @ diagonal(Q5, [Fraction(1, 25), Fraction(25)]) @ k2
    triple = cartan_decompose(g)
    H = triple.repulsive_hyperplane()
    v = triple.attracting_point()
    dist_h, dist_v = [], []
    for coords in [(1, x) for x in range(5 ** 5)] + [(5 * y, 1) for y in range(5 ** 4)]:
        P = ProjPoint(Q5, coords)
        dist_h.append(dist_to_hyperplane(P, H))
        dist_v.append(proj_dist(apply_point(g, P), v))
    eps = smallest_feasible_epsilon(np.array(dist_h), np.array(dist_v))
    assert eps < 0.25
    assert triple.ratio <= ratio_upper_bound_from_contraction(eps, Q5)


def test_ratio_upper_bound_examples():
    assert ratio_upper_bound_from_contraction(0.1, REAL) == pytest.approx(0.04, rel=1e-12)
    assert ratio_upper_bound_from_contraction(0.04, Q5) == pytest.approx(0.008, rel=1e-12)
    assert ratio_upper_bound_from_contraction(0.0, REAL) == 0.0
    assert ratio_upper_bound_from_contraction(0.0, Q5) == 0.0
    with pytest.raises(DomainError):
        ratio_upper_bound_from_contraction(0.25, REAL)
    with pytest.raises(DomainError):
        ratio_upper_bound_from_contraction(-0.1, Q5)


def test_lipschitz_outside_examples():
    g = diagonal(REAL, [100.0, 0.01])
    assert lipschitz_outside(g, 1.0) == pytest.approx(1e-4, rel=1e-12)
    assert lipschitz_outside(g, 0.1) == pytest.approx(1e-2, rel=1e-12)
    with pytest.raises(DomainError):
        lipschitz_outside(g, 0.0)
    with pytest.raises(DomainError):
        lipschitz_outside(g, 1.5)


def test_lipschitz_outside_sampled_pairs():
    rng = np.random.default_rng(113)
    for t, alpha, beta, r in ((30.0, 0.8, 0.2, 0.3), (12.0, 2.1, 1.4, 0.5)):
        g = rotation(alpha) @ diagonal(REAL, [t, 1.0 / t]) @ rotation(beta)
        bound = lipschitz_outside(g, r)
        f = cartan_decompose(g).repulsive_hyperplane().form
        thetas = rng.uniform(0.0, math.pi, size=20_000)
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        pts = pts[np.abs(pts @ f) >= r]
        half = len(pts) // 2
        P, Q = pts[:half], pts[half:2 * half]
        img_p = P @ np.asarray(g.entries).T
        img_q = Q @ np.asarray(g.entries).T

        def pdist(u, w):
            uu = np.einsum("ij,ij->i", u, u)
            ww = np.einsum("ij,ij->i", w, w)
            uw = np.einsum("ij,ij->i", u, w) ** 2
            return np.sqrt(np.clip(1.0 - uw / (uu * ww), 0.0, 1.0))

        before = pdist(P, Q)
        after = pdist(img_p, img_q)
        assert np.all(after <= bound * before + 1e-12)


def test_ratio_from_lipschitz_examples():
    assert ratio_from_lipschitz(0.6, REAL) == pytest.approx(0.75, rel=1e-12)
    assert ratio_from_lipschitz(0.6, Q5) == 0.6
    assert ratio_from_lipschitz(1e-9, REAL) == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(DomainError):
        ratio_from_lipschitz(0.0, REAL)
    with pytest.raises(DomainError):
        ratio_from_lipschitz(1.0, Q5)


def test_lipschitz_converse_on_sampled_ball_real():
    # empirical Lipschitz constant of a ball sitting at distance ~1/2 from
    # H_g is about 4x the ratio, so the converse bound holds with margin
    rng = np.random.default_rng(127)
    for t, alpha, beta in ((6.0, 0.9, 0.1), (9.0, 2.6, 1.7)):
        g = rotation(alpha) @ diagonal(REAL, [t, 1.0 / t]) @ rotation(beta)
        triple = cartan_decompose(g)
        f = triple.repulsive_hyperplane().form
        theta0 = next(th for th in rng.uniform(0.0, math.pi, size=4000)
                      if 0.45 <= abs(math.cos(th) * f[0] + math.sin(th) * f[1]) <= 0.55)
        thetas = theta0 + rng.uniform(-0.02, 0.02, size=2000)
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        P, Q = pts[:1000], pts[1000:]
        img_p = P @ np.asarray(g.entries).T
        img_q = Q @ np.asarray(g.entries).T
        uu = np.einsum("ij,ij->i", P, P) * np.einsum("ij,ij->i", Q, Q)
        before = np.sqrt(np.clip(1.0 - np.einsum("ij,ij->i", P, Q) ** 2 / uu, 0.0, 1.0))
        vv = np.einsum("ij,ij->i", img_p, img_p) * np.einsum("ij,ij->i", img_q, img_q)
        after = np.sqrt(np.clip(1.0 - np.einsum("ij,ij->i", img_p, img_q) ** 2 / vv, 0.0, 1.0))
        keep = before > 1e-6
        emp = float(np.max(after[keep] / before[keep]))
        assert emp < 1.0
        assert triple.ratio <= ratio_from_lipschitz(emp, REAL)


def test_lipschitz_converse_on_sampled_ball_padic():
    # on the unit-distance sphere around the attracting point the contraction
    # factor is attained exactly, so the converse bound is tight
    rng = random.Random(131)
    k1 = random_sl_padic(rng, Q5, 2, ops=10, integral=True)
    k2 = random_sl_padic(rng, Q5, 2, ops=10, integral=True)
    g = k1 @ diagonal(Q5, [Fraction(1, 5), Fraction(5)]) @ k2
    triple = cartan_decompose(g)
    H = triple.repulsive_hyperplane()
    samples = []
    while len(samples) < 40:
        P = ProjPoint(Q5, [rng.randrange(5 ** 12), rng.randrange(5 ** 12)])
        if dist_to_hyperplane(P, H) == 1.0:
            samples.append(P)
    emp = 0.0
    for i in range(0, 40, 2):
        P, Q = samples[i], samples[i + 1]
        before = proj_dist(P, Q)
        if before == 0.0:
            continue
        after = proj_dist(apply_point(g, P), apply_point(g, Q))
        emp = max(emp, after / before)
    assert 0.0 < emp < 1.0
    assert triple.ratio <= ratio_from_lipschitz(emp, Q5) * (1 + 1e-9)


def test_proximal_cert_diagonal():
    cert = proximal_cert(diagonal(REAL, [100.0, 0.01]))
    assert cert is not None
    assert cert.very
    assert cert.r == pytest.approx(1.0)
    assert cert.epsilon == pytest.approx(0.01, rel=1e-12)


def test_proximal_cert_absent_cases():
    assert proximal_cert(SLMatrix(REAL, [[1.0, 1.0], [0.0, 1.0]])) is None
    assert proximal_cert(rotation(0.4)) is None
    # contracting enough, but the attracting point hugs the repelling
    # hyperplane: d(v, H) = 0.196 < 2*epsilon = 0.198
    assert proximal_cert(SLMatrix(REAL, [[1.0, 10.0], [0.0, 1.0]])) is None


def test_proximal_cert_one_sided_or_very():
    g = diagonal(Q5, [Fraction(1, 125), Fraction(125)])
    cert = proximal_cert(g)
    assert cert is not None
    assert cert.very
    assert cert.r == 1.0
    assert cert.epsilon == pytest.approx(0.008, rel=1e-12)


def test_proximal_cert_gate_enforced_on_construction():
    g = diagonal(REAL, [100.0, 0.01])
    side = contraction_data(g)
    with pytest.raises(ConstructionError):
        ProximalCert(r=0.015, epsilon=0.01, forward=side, backward=None)
    with pytest.raises(ConstructionError):
        # r above the actual flag distance of the certificate
        ProximalCert(r=1.5, epsilon=0.01, forward=side, backward=None)


def test_contraction_cert_epsilon_range_enforced():
    g = diagonal(REAL, [100.0, 0.01])
    side = contraction_data(g)
    with pytest.raises(ConstructionError):
        ContractionCert(0.0, side.attracting, side.repelling, side.ratio)
    with pytest.raises(ConstructionError):
        ContractionCert(1.5, side.attracting, side.repelling, side.ratio)


def test_contraction_data_threshold_is_one_quarter():
    # a coefficient of 1/3 lies between 1/4 and 1/2: no certificate
    g = diagonal(REAL, [3.0, 1 / 3])
    assert contraction_coefficient(g) == pytest.approx(1 / 3)
    with pytest.raises(NotContractingError):
        contraction_data(g)


def test_proximal_cert_flag_slack_boundary():
    # a side whose flag distance d is r (1 - 1e-6) is refused; at r = d it is not
    side = ContractionCert(0.01, ProjPoint(REAL, [1, 1]), ProjHyperplane(REAL, [1, 0]), 1e-4)
    d = side.flag_distance()
    assert d == pytest.approx(math.sqrt(0.5))
    ProximalCert(d, 0.01, side, None)
    with pytest.raises(ConstructionError, match="flag distance"):
        ProximalCert(d / (1 - 1e-6), 0.01, side, None)


def test_proximal_cert_without_a_backward_side():
    # g^-1 = diag(0.01, 10, 10) has two equal top singular values, so only
    # the forward side is certified: r is its flag distance 1, epsilon
    # sqrt(0.1 / 100)
    cert = proximal_cert(diagonal(REAL, [100.0, 0.1, 0.1]))
    assert cert.backward is None
    assert not cert.very
    assert cert.r == pytest.approx(1.0)
    assert cert.epsilon == pytest.approx(math.sqrt(1e-3))
