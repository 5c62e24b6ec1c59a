"""End-to-end acceptance run: ten criteria, one test and one printed
pass line each.  Every tolerance here is the contract's, not a retuned
one; numbers are recomputed from scratch rather than pasted from other
tests wherever a criterion calls for independence."""

import math
import random
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (batch_proj_dist, fraction_det, power_iteration_norm,
                     random_sl_arch, random_sl_padic)
from pingpong.cartan import (SLMatrix, apply_point, bilip_constant,
                             cartan_decompose, diagonal, exterior_power, identity,
                             operator_norm)
from pingpong.contraction import (ContractionCert, contraction_data,
                                  ratio_from_lipschitz,
                                  ratio_upper_bound_from_contraction,
                                  verify_contracting)
from pingpong.fields import REAL, padic
from pingpong.liegen import LieElement, dense_pair_test, matrix_exp
from pingpong.pingpong import (build_pingpong_tuple, certify_free_generators,
                               freeness_falsifier, make_proximal,
                               make_very_contracting, make_very_proximal,
                               tighten_very_contracting, verify_pingpong)
from pingpong.projective import ProjPoint, dist_to_hyperplane, proj_dist
from pingpong.sampling import padic_point_chunks
from pingpong.separation import SeparatingSet
from pingpong import io

Q5 = padic(5)
FIXTURE = Path(__file__).parent / "data" / "sep_f_q5.json"


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return SLMatrix(REAL, [[c, -s], [s, c]])


def rotation_family(r=0.05):
    return SeparatingSet([rotation(k * math.pi / 8) for k in range(8)], 2, r)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(101)
    prng = random.Random(103)
    arch = [random_sl_arch(rng, REAL, n) for n in range(2, 7) for _ in range(100)]
    pad = [random_sl_padic(prng, Q5, n)
           for n, count in ((2, 150), (3, 150), (4, 100), (5, 50), (6, 50))
           for _ in range(count)]
    return arch, pad


def test_criterion_01_kak_reconstruction(corpus):
    arch, pad = corpus
    assert len(arch) + len(pad) == 1000
    start = time.monotonic()
    for g in arch:
        t = g.cartan()
        err = np.linalg.norm(np.asarray(t.reconstruct().entries)
                             - np.asarray(g.entries))
        assert err <= 1e-9 * np.linalg.norm(np.asarray(g.entries))
        assert all(t.a[i] >= t.a[i + 1] for i in range(g.n - 1))
    for g in pad:
        t = g.cartan()
        rec = t.reconstruct()
        assert all(x.value == y.value
                   for rx, ry in zip(rec.entries, g.entries)
                   for x, y in zip(rx, ry))
        vals = [x.valuation for x in t.a]
        assert vals == sorted(vals)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS — 1000 KAK reconstructions (R and Q_5, n = 2..6) "
          f"in {elapsed:.2f} s")


def test_criterion_02_norm_identities(corpus):
    arch, pad = corpus
    # the oracle iterates on all matrices of one size, and on their wedges, at once
    for n in sorted({g.n for g in arch}):
        gs = [g for g in arch if g.n == n]
        norms = power_iteration_norm([g.entries for g in gs], 2000)
        wedges = (power_iteration_norm([exterior_power(g, 2).entries for g in gs], 2000)
                  if n >= 3 else [None] * len(gs))
        for g, norm, wedge in zip(gs, norms, wedges):
            t = g.cartan()
            assert operator_norm(g) == pytest.approx(norm, rel=1e-6)
            assert operator_norm(g) == pytest.approx(t.a[0], rel=1e-6)
            if wedge is not None:
                assert wedge == pytest.approx(t.a[0] * t.a[1], rel=1e-6)
    for g in pad:
        t = g.cartan()
        # the sup operator norm over Q_p is the largest entry absolute value
        assert t.a[0].valuation == min(c.valuation for row in g.entries for c in row)
        if g.n >= 3:
            w = exterior_power(g, 2)
            assert (t.a[0].valuation + t.a[1].valuation
                    == min(c.valuation for row in w.entries for c in row))
    print("criterion 2: PASS — operator norm = |a1| and wedge norm = |a1 a2| "
          "to 1e-6 relative on the same 1000-matrix corpus")


def test_criterion_03_contraction_forward():
    rng = np.random.default_rng(211)
    checked = 0
    for eps in (0.2, 0.05, 0.01):
        for _ in range(200):
            t = (1.0 / eps) * float(rng.uniform(1.0, 3.0))
            g = (rotation(float(rng.uniform(0, math.pi)))
                 @ diagonal(REAL, [t, 1.0 / t])
                 @ rotation(float(rng.uniform(0, math.pi))))
            triple = g.cartan()
            assert triple.ratio <= eps * eps
            cert = ContractionCert(eps, triple.attracting_point(),
                                   triple.repulsive_hyperplane(), triple.ratio)
            assert verify_contracting(cert, g, samples=10_000, seed=checked)
            checked += 1
    print(f"criterion 3: PASS — {checked} matrices with ratio <= eps^2, 10^4 "
          "sampled points each, zero contraction violations")


def test_criterion_04_contraction_converse():
    rng = np.random.default_rng(223)
    thetas = np.arange(0.0, math.pi, 1e-3)
    grid = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for _ in range(25):
        t = float(rng.uniform(3.0, 30.0))
        g = (rotation(float(rng.uniform(0, math.pi)))
             @ diagonal(REAL, [t, 1.0 / t])
             @ rotation(float(rng.uniform(0, math.pi))))
        triple = g.cartan()
        f = np.asarray(triple.repulsive_hyperplane().form)
        v = np.asarray(triple.attracting_point().rep)
        dist_h = np.abs(grid @ f)
        img = grid @ np.asarray(g.entries).T
        nn = np.einsum("ij,ij->i", img, img)
        dist_v = np.sqrt(np.clip(1.0 - (img @ v) ** 2 / nn, 0.0, 1.0))
        order = np.argsort(dist_h)
        suffix = np.maximum.accumulate(dist_v[order][::-1])[::-1]
        eps = float(np.minimum(np.maximum(dist_h[order], suffix), 1.0).min())
        assert triple.ratio <= ratio_upper_bound_from_contraction(eps, REAL)

    prng = random.Random(229)
    for _ in range(2):
        k1 = random_sl_padic(prng, Q5, 2, ops=10, integral=True)
        k2 = random_sl_padic(prng, Q5, 2, ops=10, integral=True)
        g = k1 @ diagonal(Q5, [Fraction(1, 25), Fraction(25)]) @ k2
        triple = cartan_decompose(g)
        H = triple.repulsive_hyperplane()
        v = triple.attracting_point()
        dh, dv = [], []
        for coords in ([(1, x) for x in range(5 ** 5)]
                       + [(5 * y, 1) for y in range(5 ** 4)]):
            P = ProjPoint(Q5, coords)
            dh.append(dist_to_hyperplane(P, H))
            dv.append(proj_dist(apply_point(g, P), v))
        dh, dv = np.array(dh), np.array(dv)
        order = np.argsort(dh)
        suffix = np.maximum.accumulate(dv[order][::-1])[::-1]
        eps = float(np.minimum(np.maximum(dh[order], suffix), 1.0).min())
        assert triple.ratio <= ratio_upper_bound_from_contraction(eps, Q5)

    # Lipschitz converse on a sampled ball at distance ~1/2 from H_g
    for _ in range(200):
        t = float(rng.uniform(4.0, 20.0))
        g = (rotation(float(rng.uniform(0, math.pi)))
             @ diagonal(REAL, [t, 1.0 / t])
             @ rotation(float(rng.uniform(0, math.pi))))
        triple = g.cartan()
        f = np.asarray(triple.repulsive_hyperplane().form)
        theta0 = next(th for th in rng.uniform(0.0, math.pi, size=4000)
                      if 0.45 <= abs(math.cos(th) * f[0] + math.sin(th) * f[1]) <= 0.55)
        ths = theta0 + rng.uniform(-0.02, 0.02, size=2000)
        pts = np.stack([np.cos(ths), np.sin(ths)], axis=1)
        P, Q = pts[:1000], pts[1000:]
        before = batch_proj_dist(P, Q)
        after = batch_proj_dist(P @ np.asarray(g.entries).T,
                                Q @ np.asarray(g.entries).T)
        keep = before > 1e-6
        emp = float(np.max(after[keep] / before[keep]))
        assert emp < 1.0
        assert triple.ratio <= ratio_from_lipschitz(emp, REAL)
    print("criterion 4: PASS — grid converse |a2/a1| <= d*eps^2 on 25 real + 2 "
          "exhaustive Q_5 instances; Lipschitz converse on 200 instances")


def test_criterion_05_ultrametric_exactness():
    triples = 100_000
    coords = []
    for chunk in padic_point_chunks(Q5, 3, 3 * triples, seed=307):
        coords.extend(chunk)
    points = [ProjPoint(Q5, c) for c in coords]
    for i in range(triples):
        x, y, z = points[3 * i], points[3 * i + 1], points[3 * i + 2]
        assert proj_dist(x, z) <= max(proj_dist(x, y), proj_dist(y, z))
    print(f"criterion 5: PASS — ultrametric inequality exact on {triples} "
          "random triples in P^2(Q_5)")


def test_criterion_06_bilip_bound():
    rng = np.random.default_rng(311)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        g = random_sl_arch(rng, REAL, n)
        c = bilip_constant(g)
        u = rng.normal(size=(10_000, n))
        v = rng.normal(size=(10_000, n))
        base = batch_proj_dist(u, v)
        for mat in (np.asarray(g.entries), np.asarray(g.inverse().entries)):
            moved = batch_proj_dist(u @ mat.T, v @ mat.T)
            assert np.all(moved <= c * base + 1e-12)
    print("criterion 6: PASS — projective distortion of [g] and [g^-1] within "
          "|a1/an|^2 on 100 matrices x 10^4 pairs")


def test_criterion_07_end_to_end_certification():
    start = time.monotonic()
    F = rotation_family()
    gamma0 = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    ident = identity(REAL, 2)
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        cert = certify_free_generators([ident, ident], F, gamma0, seed=0)
    assert verify_pingpong(cert)
    assert freeness_falsifier(cert.generators, 8) is None
    elapsed = time.monotonic() - start
    assert elapsed < 60.0

    F5 = io.load_separating_set(FIXTURE)
    gamma5 = SLMatrix(Q5, [[Fraction(1, 125), 0], [0, 125]])
    ident5 = identity(Q5, 2)
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        cert5 = certify_free_generators([ident5, ident5], F5, gamma5, seed=2)
    assert verify_pingpong(cert5)
    print(f"criterion 7: PASS — SL_2(R) pipeline certified and falsifier-clean "
          f"to length 8 in {elapsed:.2f} s; Q_5 pipeline with the recorded "
          f"fixture also certifies")


def test_criterion_08_soundness_cross_check():
    rng = np.random.default_rng(12)
    F = rotation_family()
    ident = identity(REAL, 2)
    verified = 0
    for run in range(50):
        theta = float(rng.uniform(0, math.pi))
        scale = 10.0 ** float(rng.uniform(3, 6))
        q = rotation(theta)
        gamma0 = q @ SLMatrix(REAL, [[scale, 0.0], [0.0, 1.0 / scale]]) @ q.inverse()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cert = certify_free_generators([ident, ident], F, gamma0, seed=run)
        if verify_pingpong(cert):
            verified += 1
            assert freeness_falsifier(cert.generators, 8) is None
    assert verified == 50
    print("criterion 8: PASS — 50 seeded pipeline runs, every verified "
          "certificate falsifier-clean to length 8, 0 counterexamples")


def test_criterion_09_lie_generation():
    e = LieElement(REAL, [[0.0, 0.1], [0.0, 0.0]])
    f = LieElement(REAL, [[0.0, 0.0], [0.1, 0.0]])
    h1 = LieElement(REAL, [[0.1, 0.0], [0.0, -0.1]])
    h2 = LieElement(REAL, [[0.2, 0.0], [0.0, -0.2]])
    assert dense_pair_test(matrix_exp(e), matrix_exp(f)) is True
    assert dense_pair_test(matrix_exp(h1), matrix_exp(h2)) is False
    rng = np.random.default_rng(409)
    failures = 0
    for _ in range(100):
        pair = []
        for _ in range(2):
            m = 0.1 * rng.normal(size=(2, 2))
            m -= (np.trace(m) / 2) * np.eye(2)
            pair.append(matrix_exp(LieElement(REAL, m)))
        if not dense_pair_test(*pair):
            failures += 1
    assert failures == 0
    print("criterion 9: PASS — dense-generation criterion correct on the "
          "unipotent and diagonal examples, 100 random near-identity pairs, "
          "0 failures")


def test_criterion_10_parameter_arithmetic():
    F = rotation_family()
    d = 4.0

    g1 = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    c1 = contraction_data(g1)
    prox = make_proximal(g1, c1, F)
    assert prox.cert.r == F.r
    assert prox.cert.epsilon == F.C * c1.epsilon

    vc = make_very_contracting(g1, c1, F, seed=3)
    assert vc.epsilon == math.sqrt(2.0 * F.C * d) * c1.epsilon / F.r

    g2 = SLMatrix(REAL, [[50.0, 0.0], [0.0, 0.02]])
    t2 = g2.cartan()
    fwd = ContractionCert(0.02, t2.attracting_point(), t2.repulsive_hyperplane(),
                          t2.ratio)
    t2i = g2.inverse().cartan()
    bwd = ContractionCert(0.02, t2i.attracting_point(), t2i.repulsive_hyperplane(),
                          t2i.ratio)
    vp = make_very_proximal(g2, fwd, bwd, F)
    assert vp.cert.r == F.r / F.C
    assert vp.cert.epsilon == F.C * 0.02

    gamma0 = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    c0 = contraction_data(gamma0)
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        gamma = tighten_very_contracting(
            make_very_contracting(gamma0, c0, F, seed=0))
        ident = identity(REAL, 2)
        cert = build_pingpong_tuple([ident, ident], F, gamma)
    c = max([F.C] + [bilip_constant(ident), bilip_constant(ident)])
    assert cert.r == F.r / c
    assert cert.epsilon == c ** 3 * gamma.epsilon

    F5 = io.load_separating_set(FIXTURE)
    gamma5 = SLMatrix(Q5, [[Fraction(1, 125), 0], [0, 125]])
    c5 = contraction_data(gamma5)
    vc5 = make_very_contracting(gamma5, c5, F5, seed=2)
    assert vc5.epsilon == math.sqrt(2.0 * F5.C * 5.0) * c5.epsilon / F5.r
    print("criterion 10: PASS — certificate parameters equal (r, C*eps), "
          "sqrt(2Cd)*eps/r, (r/C, C*eps) and (r/c, c^3*eps) exactly")
