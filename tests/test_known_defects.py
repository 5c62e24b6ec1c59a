"""The ledger of known wrong answers (ROADMAP item 17).

Each test asserts the right answer to a case the package gets wrong today,
and is marked as a strict expected failure naming its ROADMAP item.  The
change that mends a gap sees the test pass, which strict=True reports as a
failure; it then drops the mark and keeps the test as a plain one.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pingpong import REAL, SLMatrix, SeparatingSet, certify_free_generators, identity
from pingpong.cartan import diagonal
from pingpong.liegen import dense_pair_test
from pingpong.pingpong import freeness_falsifier, verify_pingpong


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return SLMatrix(REAL, [[c, -s], [s, c]])


def rodrigues(vector):
    """The rotation of SO(3) by |vector| about vector, by Rodrigues' formula."""
    angle = float(np.linalg.norm(vector))
    k = np.asarray(vector) / angle
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return SLMatrix(REAL, np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K))


def certificate(gamma0, seed):
    """certify_free_generators on the identity pair over the README's set of
    eight rotations at r = 0.05, its bi-Lipschitz warning silenced."""
    F = SeparatingSet([rotation(k * math.pi / 8) for k in range(8)], m=2, r=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return certify_free_generators([identity(REAL, 2), identity(REAL, 2)], F, gamma0,
                                       seed=seed)


def ratio_bound(x):
    """An exact upper bound on sigma_2 / sigma_1 of a stored 2 x 2 float
    matrix: |det| / (F - 2 det^2 / F), F the squared Frobenius norm, on the
    dyadic rationals it holds."""
    (a, b), (c, d) = [[Fraction(v) for v in row] for row in x.entries.tolist()]
    det = a * d - b * c
    frobenius = a * a + b * b + c * c + d * d
    return abs(det) / (frobenius - 2 * det * det / frobenius)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: verify_pingpong never reads the "
                                       "generators, so a forged certificate verifies")
def test_a_certificate_with_forged_generators_is_refused():
    cert = certificate(SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]]), 0)
    forged = dataclasses.replace(cert, generators=(diagonal(REAL, [2.0, 0.5]),
                                                   diagonal(REAL, [3.0, 1 / 3])))
    # the forged pair commutes: g0 g1 g0^-1 g1^-1 is the identity
    assert str(freeness_falsifier(forged.generators, 4)) == "g0 g1 g0^-1 g1^-1"
    assert not verify_pingpong(forged)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: float rank decisions call a "
                                       "near-identity SO(3) pair dense")
@pytest.mark.parametrize("theta", [1e-6, 1e-7])
def test_a_near_identity_so3_pair_is_not_called_dense(theta):
    # the logs of exact rotations span so(3), 3 of the 8 dimensions of sl_3
    x = rodrigues(theta * np.array([0.3, 0.1, -0.2]))
    y = rodrigues(theta * np.array([-0.1, 0.25, 0.15]))
    assert not dense_pair_test(x, y)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the pipeline declares the epsilon "
                                       "of the exact products, not of the stored generators")
def test_a_built_certificate_declares_an_epsilon_its_generators_carry():
    # run 38 of the 40-run set: theta and s from default_rng(5), two draws a run
    rng = np.random.default_rng(5)
    for _ in range(39):
        theta, scale = float(rng.uniform(0, math.pi)), 10.0 ** float(rng.uniform(3, 6))
    q = rotation(theta)
    cert = certificate(q @ SLMatrix(REAL, [[scale, 0.0], [0.0, 1.0 / scale]]) @ q.inverse(), 38)
    # epsilon-contraction needs sigma_2 / sigma_1 <= epsilon^2
    epsilon = Fraction(cert.epsilon)
    for g in cert.generators:
        for x in (g, g.inverse()):
            assert ratio_bound(x) <= epsilon * epsilon


@pytest.mark.xfail(strict=True, reason="ROADMAP items 4 and 14: the float falsifier gives "
                                       "up on an exact power pair past norm 4e3")
def test_an_exact_power_pair_is_decided_at_its_relation_length():
    a, b = 60, 63
    g = np.array([[1 + a * b, a], [b, 1]], dtype=object)  # in SL_2(Z), norm about 3.8e3
    h = g @ g @ g  # exact ints, and exact as floats
    word = freeness_falsifier([SLMatrix(REAL, g.astype(float)), SLMatrix(REAL, h.astype(float))],
                              4)
    assert str(word) == "g0 g0 g0 g1^-1"
