"""Manufacturing steps, tuple construction, verification, falsifier."""

import copy
import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (condition_distances, exact_form, first_by_scalar_reference, gauss_jordan,
                     random_sl_arch, random_sl_padic, scalar_dist_to_hyperplane)
from pingpong.cartan import SLMatrix, bilip_constant, bilip_constants, diagonal, identity
from pingpong.contraction import (
    ContractionCert,
    ProximalCert,
    contraction_coefficient,
    contraction_data,
    proximal_cert,
    verify_contracting,
)
from pingpong.errors import (
    ConstructionError,
    DomainError,
    NoSeparatorError,
    PreconditionError,
    UndecidedError,
)
from pingpong.fields import COMPLEX, REAL, padic
from pingpong.pingpong import (
    PingPongCert,
    VeryContractingElement,
    Word,
    _first,
    _letters,
    _scalar_words,
    build_pingpong_tuple,
    certify_free_generators,
    freeness_falsifier,
    make_proximal,
    make_very_contracting,
    make_very_proximal,
    separation_table,
    tighten_very_contracting,
    verify_pingpong,
)
from pingpong.projective import ProjHyperplane, ProjPoint
from pingpong.separation import SeparatingSet, _dedupe, reduced_words


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return SLMatrix(REAL, [[c, -s], [s, c]])


def own_cert(matrix, epsilon):
    t = matrix.cartan()
    return ContractionCert(epsilon, t.attracting_point(), t.repulsive_hyperplane(),
                           t.ratio)


def hand_very_contracting(matrix, epsilon):
    return VeryContractingElement(matrix, own_cert(matrix, epsilon),
                                  own_cert(matrix.inverse(), epsilon))


def rotation_set(r, ks=range(1, 8)):
    return SeparatingSet([rotation(k * math.pi / 8) for k in ks], 2, r)


def entries_close(g, h, tol=1e-9):
    return np.allclose(np.asarray(g.entries), np.asarray(h.entries), atol=tol)


def projectively_close(g, h, tol=1e-9):
    a, b = np.asarray(g.entries), np.asarray(h.entries)
    s = np.vdot(a, b) / np.vdot(a, a)
    return np.allclose(s * a, b, atol=tol)


# Word bookkeeping


def test_word_structure():
    w = Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    assert len(w) == 4
    assert str(w) == "g0 g1 g0^-1 g1^-1"
    with pytest.raises(ConstructionError):
        Word(())
    with pytest.raises(ConstructionError):
        Word(((0, 1), (0, -1)))
    with pytest.raises(ConstructionError):
        Word(((0, 2),))


# make_proximal


def test_make_proximal_identity_qualifies():
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    cert = contraction_data(g)
    F = SeparatingSet([identity(REAL, 2), rotation(math.pi / 4)], 2, 0.5)
    out = make_proximal(g, cert, F)
    # v_g = [e1] is a full unit away from H_g = ker x1, so f = I is first
    assert entries_close(out.matrix, g)
    assert out.cert.r == F.r
    assert out.cert.epsilon == F.C * cert.epsilon
    assert out.cert.forward.flag_distance() == pytest.approx(1.0, abs=1e-12)
    assert out.cert.backward is None


def test_make_proximal_rotation_moves_flag():
    # R90 * diag puts the attracting point on the repulsive hyperplane,
    # so the identity fails and the pi/4 rotation lifts it by sin(pi/4)
    g = rotation(math.pi / 2) @ SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    cert = contraction_data(g)
    assert cert.flag_distance() < 1e-12
    F = SeparatingSet([identity(REAL, 2), rotation(math.pi / 4)], 2, 0.5)
    out = make_proximal(g, cert, F)
    assert entries_close(out.matrix, rotation(math.pi / 4) @ g)
    assert out.cert.forward.flag_distance() == pytest.approx(math.sin(math.pi / 4),
                                                             abs=1e-12)


def test_make_proximal_empty_set_exhausted():
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    with pytest.raises(NoSeparatorError):
        make_proximal(g, contraction_data(g), SeparatingSet([], 2, 0.5))


def test_make_proximal_reports_rejecting_condition():
    # the identity leaves the attracting point on the repulsive hyperplane
    g = rotation(math.pi / 2) @ SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    F = SeparatingSet([identity(REAL, 2)], 2, 0.5)
    with pytest.raises(NoSeparatorError, match=r"1 candidates failed: d\(\[f\] v, H\)"):
        make_proximal(g, contraction_data(g), F)


def test_make_proximal_precondition():
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    cert = contraction_data(g)
    with pytest.raises(PreconditionError):
        make_proximal(g, cert, SeparatingSet([identity(REAL, 2)], 2, 0.01))


def test_make_proximal_precondition_boundary():
    # epsilon just inside r/(2C) passes and just outside raises
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    F = SeparatingSet([identity(REAL, 2), rotation(math.pi / 4)], 2, 0.5)
    bound = F.r / (2 * F.C)
    make_proximal(g, own_cert(g, bound * (1 - 1e-6)), F)
    with pytest.raises(PreconditionError):
        make_proximal(g, own_cert(g, bound * (1 + 1e-6)), F)


# make_very_contracting


def test_make_very_contracting_end_to_end():
    g = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    cert = contraction_data(g)
    F = rotation_set(0.05, ks=range(0, 8))
    vc = make_very_contracting(g, cert, F, seed=5)
    formula = math.sqrt(2 * F.C * 4.0) * cert.epsilon / F.r
    assert vc.forward.epsilon == formula
    assert vc.backward.epsilon == formula
    # I is in F but never clears the strict distance conditions
    assert not projectively_close(vc.matrix, identity(REAL, 2), tol=1e-6)
    assert verify_contracting(vc.forward, vc.matrix, samples=2000, seed=3)
    assert verify_contracting(vc.backward, vc.matrix.inverse(), samples=2000, seed=4)


def test_make_very_contracting_precondition():
    g = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    with pytest.raises(PreconditionError):
        make_very_contracting(g, contraction_data(g), rotation_set(0.001))


def test_make_very_contracting_no_probe_clears():
    # the identity leaves every probe where it was, at distance ~0 from H
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    F = SeparatingSet([identity(REAL, 2)], 2, 0.5)
    with pytest.raises(NoSeparatorError) as err:
        make_very_contracting(g, contraction_data(g), F)
    assert str(err.value) == "no f in F cleared both probe conditions after 32 probes"


def test_tighten_very_contracting():
    g = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    F = rotation_set(0.05)
    vc = make_very_contracting(g, contraction_data(g), F, seed=5)
    tight = tighten_very_contracting(vc)
    assert tight.epsilon == contraction_coefficient(vc.matrix)
    assert tight.epsilon < vc.epsilon
    # already tight: returned unchanged
    assert tighten_very_contracting(tight) is tight


# make_very_proximal


def test_make_very_proximal_parameters():
    g = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    F = rotation_set(0.05)
    vc = tighten_very_contracting(make_very_contracting(g, contraction_data(g), F,
                                                        seed=5))
    out = make_very_proximal(vc.matrix, vc.forward, vc.backward, F)
    eps = max(vc.forward.epsilon, vc.backward.epsilon)
    assert out.cert.r == F.r / F.C
    assert out.cert.epsilon == F.C * eps
    assert out.cert.very
    assert out.cert.forward.flag_distance() > F.r / F.C
    assert verify_contracting(out.cert.forward, out.matrix, samples=2000, seed=7)
    assert verify_contracting(out.cert.backward, out.matrix.inverse(), samples=2000,
                              seed=8)


def test_make_very_proximal_precondition():
    g = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    F = rotation_set(0.05)
    fwd = own_cert(g, 0.1)
    bwd = own_cert(g.inverse(), 0.1)
    with pytest.raises(PreconditionError):
        make_very_proximal(g, fwd, bwd, F)


def test_make_very_proximal_precondition_boundary():
    # epsilon just inside r/(2C^2) passes and just outside raises; a last
    # element of F with bi-Lipschitz constant 1.1^4 sets C, so C^2 and C differ
    g = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    F = SeparatingSet(rotation_set(0.05).elements + (diagonal(REAL, [1.1, 1 / 1.1]),), 2, 0.05)
    assert F.C == pytest.approx(1.1 ** 4)
    bound = F.r / (2 * F.C ** 2)
    for eps, ok in ((bound * (1 - 1e-6), True), (bound * (1 + 1e-6), False)):
        fwd, bwd = own_cert(g, eps), own_cert(g.inverse(), eps)
        if ok:
            assert make_very_proximal(g, fwd, bwd, F).cert.very
        else:
            with pytest.raises(PreconditionError):
                make_very_proximal(g, fwd, bwd, F)


def test_make_very_proximal_reports_each_rejecting_condition():
    # the lower shear sends v = [e1] to [1 : 2], at 1/sqrt(5) < r from
    # H = ker x1; the upper shear's inverse sends v' = [e2] to [-2 : 1], as
    # close to H' = ker x2, so each shear fails one condition
    g = SLMatrix(REAL, [[1e4, 0.0], [0.0, 1e-4]])
    F = SeparatingSet([SLMatrix(REAL, [[1.0, 0.0], [2.0, 1.0]]),
                       SLMatrix(REAL, [[1.0, 2.0], [0.0, 1.0]])], 2, 0.5)
    with pytest.raises(NoSeparatorError) as err:
        make_very_proximal(g, contraction_data(g), contraction_data(g.inverse()), F)
    assert str(err.value) == (
        "selection of f failed ("
        "1 candidates failed: d([f] v, H) > r for the forward flags of g; "
        "1 candidates failed: d([f^-1] v', H') > r for the backward flags of g)")


# the selection scan


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", [REAL, COMPLEX, padic(5)], ids=["R", "C", "Q_5"])
def test_first_matches_scalar_reference(field, n):
    rng = np.random.default_rng(61 + n)
    prng = random.Random(67 + n)

    def coords():
        if field.is_padic:
            return [Fraction(prng.randint(1, 60)) * Fraction(5) ** prng.randint(-1, 2)
                    for _ in range(n)]
        z = rng.normal(size=n)
        return z + 1j * rng.normal(size=n) if field is COMPLEX else z

    def flags(kind):
        return [kind(field, coords()) for _ in range(prng.randint(1, 3))]

    compared = 0
    for _ in range(30):
        if field.is_padic:
            elements = [random_sl_padic(prng, field, n) for _ in range(6)]
            r = prng.choice([0.04, 0.1, 0.2, 0.5, 1.0])
        else:
            elements = [random_sl_arch(rng, field, n) for _ in range(6)]
            r = float(rng.uniform(0.02, 0.5))
        F = SeparatingSet(elements, 2, r)
        conditions = [("condition", prng.choice([1, -1]), flags(ProjPoint),
                       flags(ProjHyperplane)) for _ in range(prng.randint(1, 3))]
        if not field.is_padic and any(abs(d - r) <= 1e-12 for f in elements
                                      for c in conditions for d in condition_distances(f, c)):
            continue  # an ulp may break a tie either way
        f, failures = _first(F, conditions)
        want, want_failures = first_by_scalar_reference(F, conditions)
        assert f is want
        assert failures == want_failures
        compared += 1
    assert compared >= 25


# build_pingpong_tuple


def test_build_single_generator_base_case():
    F = rotation_set(0.05)
    gamma = hand_very_contracting(SLMatrix(REAL, [[1e6, 0.0], [0.0, 1e-6]]), 1e-6)
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        cert = build_pingpong_tuple([identity(REAL, 2)], F, gamma)
    c = max([F.C, bilip_constant(identity(REAL, 2))])
    assert cert.m == 1
    assert cert.r == F.r / c
    assert cert.epsilon == c ** 3 * gamma.epsilon
    assert cert.separations == ()
    assert verify_pingpong(cert)
    # x_1 lies in gamma a_1 F
    assert any(entries_close(cert.generators[0], gamma.matrix @ f)
               for f in F.elements)


def test_build_two_generators_conjugated_gamma():
    q = rotation(0.3)
    gamma_mat = q @ SLMatrix(REAL, [[1e6, 0.0], [0.0, 1e-6]]) @ q.inverse()
    gamma = hand_very_contracting(gamma_mat, 1e-6)
    F = rotation_set(0.05, ks=range(0, 8))
    a = [identity(REAL, 2), identity(REAL, 2)]
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        cert = build_pingpong_tuple(a, F, gamma)
    c = max([F.C] + [bilip_constant(x) for x in a])
    assert cert.r == F.r / c
    assert cert.epsilon == c ** 3 * 1e-6
    assert verify_pingpong(cert)
    assert freeness_falsifier(cert.generators, 6) is None
    assert min(entry[2] for entry in cert.separations) > cert.r
    # coset shape: x_1 in gamma a_1 F, x_2 in F gamma a_2 F
    assert any(entries_close(cert.generators[0], gamma_mat @ f) for f in F.elements)
    assert any(entries_close(cert.generators[1], g @ gamma_mat @ f)
               for f in F.elements for g in F.elements)


def test_build_precondition():
    F = rotation_set(0.05)
    gamma = hand_very_contracting(SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]]), 0.04)
    with pytest.raises(PreconditionError):
        build_pingpong_tuple([identity(REAL, 2)], F, gamma)


def test_build_precondition_boundary():
    # epsilon just inside r/(2c^4) passes and just outside raises; a base
    # element of bi-Lipschitz constant 16 sets c, so c^4 and c^3 differ
    F = rotation_set(0.05)
    a = [SLMatrix(REAL, [[2.0, 0.0], [0.0, 0.5]])]
    c = max([F.C] + [bilip_constant(x) for x in a])
    assert c == pytest.approx(16)
    bound = F.r / (2 * c ** 4)
    gamma_mat = SLMatrix(REAL, [[1e6, 0.0], [0.0, 1e-6]])
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        cert = build_pingpong_tuple(a, F, hand_very_contracting(gamma_mat, bound * (1 - 1e-6)))
    assert verify_pingpong(cert)
    with pytest.raises(PreconditionError):
        build_pingpong_tuple(a, F, hand_very_contracting(gamma_mat, bound * (1 + 1e-6)))


def test_build_empty_base_list():
    F = rotation_set(0.05)
    gamma = hand_very_contracting(SLMatrix(REAL, [[1e6, 0.0], [0.0, 1e-6]]), 1e-6)
    with pytest.raises(DomainError):
        build_pingpong_tuple([], F, gamma)


def test_build_takes_each_constant_once(monkeypatch):
    # one bilip_constants call for the base elements, one bilip_constant for
    # gamma, whose constant the warning reuses
    import pingpong.pingpong as pp
    calls = []
    monkeypatch.setattr(pp, "bilip_constants",
                        lambda ms: calls.append(len(ms)) or bilip_constants(ms))
    monkeypatch.setattr(pp, "bilip_constant",
                        lambda g: calls.append("gamma") or bilip_constant(g))
    F = rotation_set(0.05)
    a = [identity(REAL, 2), SLMatrix(REAL, [[2.0, 0.0], [0.0, 0.5]])]
    gamma = hand_very_contracting(SLMatrix(REAL, [[1e6, 0.0], [0.0, 1e-6]]), 1e-9)
    with pytest.warns(UserWarning, match=re.escape(f"constant {bilip_constant(gamma.matrix)} ")):
        build_pingpong_tuple(a, F, gamma)
    assert calls == [2, "gamma"]


def test_build_refuses_a_base_element_of_another_space():
    F = rotation_set(0.05)
    gamma = hand_very_contracting(SLMatrix(REAL, [[1e6, 0.0], [0.0, 1e-6]]), 1e-6)
    for a in (identity(padic(5), 2), identity(REAL, 3)):
        with pytest.raises(DomainError, match="different spaces"):
            build_pingpong_tuple([a], F, gamma)


def test_an_empty_separation_table():
    assert separation_table(()) == ()


# verify_pingpong


def test_verify_accepts_pipeline_output():
    g = SLMatrix(REAL, [[1e3, 0.0], [0.0, 1e-3]])
    F = rotation_set(0.05, ks=range(0, 8))
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        cert = certify_free_generators([identity(REAL, 2), identity(REAL, 2)], F, g,
                                       seed=5)
    assert verify_pingpong(cert)


def test_verify_rejects_repeated_generator():
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    pc = ProximalCert(0.9, 0.01, own_cert(g, 0.01), own_cert(g.inverse(), 0.01))
    cert = PingPongCert((g, g), (pc, pc), 0.9, 0.01, separation_table((pc, pc)))
    # the attracting point of g lies on the repulsive hyperplane of g^-1
    assert not verify_pingpong(cert)


def test_verify_rejects_one_sided_certificates():
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    one_sided = ProximalCert(0.9, 0.01, own_cert(g, 0.01), None)
    h = rotation(math.pi / 4) @ g
    pc2 = ProximalCert(0.2, 0.01, own_cert(h, 0.01), own_cert(h.inverse(), 0.01))
    cert = PingPongCert((g, h), (one_sided, pc2), 0.2, 0.01, ())
    assert not verify_pingpong(cert)


def test_verify_threshold_boundary_over_r():
    # the least cross-separation d of two conjugate diagonal elements: r with
    # d at r - 2e-9 verifies, r with d strictly between r - 1e-9 and r + 1e-9
    # does not, since archimedean distances must clear r + 1e-9
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    h = rotation(math.pi / 8) @ g @ rotation(-math.pi / 8)
    certs = tuple(ProximalCert(0.9, 0.01, own_cert(x, 0.01), own_cert(x.inverse(), 0.01))
                  for x in (g, h))
    table = separation_table(certs)
    d = min(entry[2] for entry in table)
    assert d == pytest.approx(math.sin(math.pi / 8), rel=1e-12)
    assert verify_pingpong(PingPongCert((g, h), certs, d - 2e-9, 0.01, table))
    assert not verify_pingpong(PingPongCert((g, h), certs, d - 5e-10, 0.01, table))


def test_pingpong_cert_structural_validation():
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    pc = ProximalCert(0.9, 0.01, own_cert(g, 0.01), own_cert(g.inverse(), 0.01))
    with pytest.raises(ConstructionError):
        PingPongCert((), (), 0.9, 0.01, ())
    with pytest.raises(ConstructionError):
        PingPongCert((g,), (pc, pc), 0.9, 0.01, ())
    with pytest.raises(ConstructionError):
        PingPongCert((g,), (pc,), 0.02, 0.01, ())


def test_verify_sanov_hand_built_pair():
    # the translation-by-10 pair: Cartan data alone never clears the
    # r > 2 epsilon gate (flag distance / 2 epsilon* = 1 - 1/(t^2+2) < 1),
    # so the certificate is assembled by hand at declared parameters the
    # distance checks do support
    a = SLMatrix(REAL, [[1.0, 10.0], [0.0, 1.0]])
    b = SLMatrix(REAL, [[1.0, 0.0], [10.0, 1.0]])
    for t in (5.0, 10.0, 100.0):
        shear = SLMatrix(REAL, [[1.0, t], [0.0, 1.0]])
        data = contraction_data(shear)
        assert data.flag_distance() < 2 * data.epsilon
    assert proximal_cert(a) is None

    data = contraction_data(a)
    assert data.epsilon == pytest.approx(0.09901951359278484, rel=1e-12)
    assert data.flag_distance() == pytest.approx(0.19611613513818404, rel=1e-12)

    r_bar, eps_bar = 0.196, 0.097
    certs = tuple(ProximalCert(r_bar, eps_bar, own_cert(g, eps_bar),
                               own_cert(g.inverse(), eps_bar)) for g in (a, b))
    cert = PingPongCert((a, b), certs, r_bar, eps_bar, separation_table(certs))
    assert verify_pingpong(cert)
    assert min(entry[2] for entry in cert.separations) == pytest.approx(
        0.9805806756909202, rel=1e-9)
    assert freeness_falsifier((a, b), 8) is None
    # the declared epsilon is not empirically achieved; verify_pingpong
    # certifies the separation geometry, not the contraction constant
    assert not verify_contracting(certs[0].forward, a, samples=10_000, seed=0)


# the flag table


def pipeline_cert(field, m=3):
    """certify_free_generators on m identities: R and C over the eighth
    rotations (over C with diagonal phases), Q_5 over words in S and T."""
    if field.is_padic:
        S, T = SLMatrix(field, [[1, 1], [0, 1]]), SLMatrix(field, [[1, 0], [1, 1]])
        F = SeparatingSet(_dedupe(g for _, g in reduced_words([S, T], 2)), 2, 0.04)
        gamma0, seed = SLMatrix(field, [[Fraction(1, 125), 0], [0, 125]]), 2
    else:
        phases = [np.exp(0.3j * k) if field is COMPLEX else 1.0 for k in range(8)]
        F = SeparatingSet([SLMatrix(field, rotation(k * math.pi / 8).entries
                                    @ np.diag([phases[k], 1 / phases[k]]))
                           for k in range(8)], 2, 0.05)
        gamma0, seed = SLMatrix(field, [[1e3, 0.0], [0.0, 1e-3]]), 5
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        return certify_free_generators([identity(field, 2)] * m, F, gamma0, seed=seed)


def sides(certificates):
    return [side for pc in certificates for side in (pc.forward, pc.backward)]


def oracle_verify(cert):
    """verify_pingpong on the scalar oracle: each certificate's two flags,
    then every cross distance between different generators."""
    if cert.generators[0].field.is_padic:
        threshold = cert.r * (1 - 1e-12)
    else:
        threshold = cert.r + 1e-9
    flags = [scalar_dist_to_hyperplane(side.attracting, side.repelling)
             for side in sides(cert.certificates)]
    cross = [scalar_dist_to_hyperplane(a.attracting, b.repelling)
             for i, ci in enumerate(cert.certificates)
             for j, cj in enumerate(cert.certificates) if i != j
             for a in (ci.forward, ci.backward) for b in (cj.forward, cj.backward)]
    return all(d >= threshold for d in flags + cross)


def moved(cert, a, b):
    """Copy of cert with side a's attracting point moved onto side b's
    repelling hyperplane, built past the certificates' own checks."""
    moved_sides = sides(cert.certificates)
    side, form = moved_sides[a], moved_sides[b].repelling.form
    v = side.attracting.rep.copy()
    k = int(np.argmax(np.abs(form)))
    v[k] -= (form @ v) / form[k]
    moved_sides[a] = ContractionCert(side.epsilon, ProjPoint(side.attracting.field, v),
                                     side.repelling, side.ratio)
    certificates = []
    for i, pc in enumerate(cert.certificates):
        pc = copy.copy(pc)
        object.__setattr__(pc, "forward", moved_sides[2 * i])
        object.__setattr__(pc, "backward", moved_sides[2 * i + 1])
        certificates.append(pc)
    return PingPongCert(cert.generators, certificates, cert.r, cert.epsilon,
                        separation_table(certificates))


@pytest.mark.parametrize("field", [REAL, COMPLEX, padic(5)], ids=["R", "C", "Q_5"])
def test_flag_table_matches_scalar_oracle(field):
    cert = pipeline_cert(field)
    tol = 0.0 if field.is_padic else 1e-15
    # separation_table: the per-entry oracle, in the order of the pair loop
    want = [((i, si), (j, sj), scalar_dist_to_hyperplane(
                 sides(cert.certificates)[2 * i + (1 - si) // 2].attracting,
                 sides(cert.certificates)[2 * j + (1 - sj) // 2].repelling))
            for i in range(cert.m) for j in range(cert.m) if i != j
            for si in (1, -1) for sj in (1, -1)]
    got = separation_table(cert.certificates)
    assert [entry[:2] for entry in got] == [entry[:2] for entry in want]
    assert all(abs(g[2] - w[2]) <= tol for g, w in zip(got, want))
    assert verify_pingpong(cert) and oracle_verify(cert)
    # moving any point onto any hyperplane: verify_pingpong says what the
    # oracle says, and only the unchecked entries, from x_i's point to
    # x_i^-1's hyperplane and back, can drop to 0 on these certificates
    for a in range(2 * cert.m):
        for b in range(2 * cert.m):
            copy_ = moved(cert, a, b)
            unchecked = a // 2 == b // 2 and a != b
            assert verify_pingpong(copy_) == oracle_verify(copy_) == unchecked, (a, b)


def test_pipeline_generators_pass_the_determinant_gate():
    # the built generators are float products at entry scale up to ~1e11,
    # and certify-free --verify-only reads them back through the det gate
    rng = np.random.default_rng(4)
    F = rotation_set(0.05, ks=range(0, 8))
    for run in range(40):
        q = rotation(float(rng.uniform(0, math.pi)))
        scale = 10.0 ** float(rng.uniform(3, 6))
        gamma0 = q @ SLMatrix(REAL, [[scale, 0.0], [0.0, 1.0 / scale]]) @ q.inverse()
        with pytest.warns(UserWarning, match="bi-Lipschitz"):
            cert = certify_free_generators([identity(REAL, 2)] * 2, F, gamma0, seed=run)
        for g in cert.generators:
            SLMatrix(REAL, g.entries)


# p-adic pipeline


def test_padic_pipeline_certifies():
    Q5 = padic(5)
    S = SLMatrix(Q5, [[1, 1], [0, 1]])
    T = SLMatrix(Q5, [[1, 0], [1, 1]])
    F = SeparatingSet(_dedupe(g for _, g in reduced_words([S, T], 2)), 2, 0.04)
    assert F.C == 1.0
    gamma0 = SLMatrix(Q5, [[Fraction(1, 125), 0], [0, 125]])
    with pytest.warns(UserWarning, match="bi-Lipschitz"):
        cert = certify_free_generators([identity(Q5, 2), identity(Q5, 2)], F, gamma0,
                                       seed=2)
    assert cert.r == 0.04
    assert cert.epsilon == 5.0 ** -6
    assert verify_pingpong(cert)
    assert min(entry[2] for entry in cert.separations) == 1.0
    assert freeness_falsifier(cert.generators, 6) is None


# freeness_falsifier


def test_falsifier_commuting_pair():
    a = SLMatrix(REAL, [[2.0, 0.0], [0.0, 0.5]])
    b = SLMatrix(REAL, [[3.0, 0.0], [0.0, 1.0 / 3.0]])
    word = freeness_falsifier([a, b], 4)
    assert word == Word(((0, 1), (1, 1), (0, -1), (1, -1)))


def test_falsifier_projective_order_eight_rotation():
    # R_{pi/4}^4 is -I, but the float rotation is a dyadic matrix whose
    # fourth power is not scalar: words to length 3 are decided, g0^4 is not
    with pytest.raises(UndecidedError) as caught:
        freeness_falsifier([rotation(math.pi / 4)], 5)
    assert caught.value.decided_len == 3
    assert caught.value.word == Word(((0, 1),) * 4)
    # the exact quarter turn squares to -I, a projective identity
    quarter = SLMatrix(REAL, [[0.0, -1.0], [1.0, 0.0]])
    assert freeness_falsifier([quarter], 5) == Word(((0, 1),) * 2)


def test_falsifier_decides_sanov_pair_free_to_length_10():
    S = SLMatrix(REAL, [[1.0, 2.0], [0.0, 1.0]])
    T = SLMatrix(REAL, [[1.0, 0.0], [2.0, 1.0]])
    assert freeness_falsifier([S, T], 10) is None


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=str)
def test_falsifier_decides_random_3x3_pairs(field):
    # n = 3: the float inverse letters are rounded, and the bound covers that
    rng = np.random.default_rng(5)
    for _ in range(3):
        gens = [random_sl_arch(rng, field, 3) for _ in range(2)]
        assert freeness_falsifier(gens, 5) is None


def conjugated_diagonal(theta, s):
    """q diag(s, 1/s) q^-1 with q the rotation by theta, as floats."""
    q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return q @ np.diag([s, 1.0 / s]) @ q.T


@pytest.mark.parametrize("pair", ["power", "commuting"])
def test_falsifier_never_calls_planted_pairs_free(pair):
    # the benchmark's planted families: (g, g^3), and two commuting
    # conjugated diagonals, at scales s = 10 .. 1e6
    rng = np.random.default_rng(8)
    for s in 10.0 ** np.linspace(1, 6, 16):
        theta = rng.uniform(0, math.pi)
        g = conjugated_diagonal(theta, s)
        h = g @ g @ g if pair == "power" else conjugated_diagonal(theta, 10.0 ** rng.uniform(1, 6))
        try:
            word = freeness_falsifier([SLMatrix(REAL, g), SLMatrix(REAL, h)], 4)
        except UndecidedError as exc:
            assert exc.decided_len < 4
            continue
        sums = [sum(e for i, e in word.letters if i == k) for k in (0, 1)]
        assert (sums[0] + 3 * sums[1] == 0) if pair == "power" else sums == [0, 0]


def fraction_letters(gens):
    """The falsifier's letters by the Fraction reference: each generator's
    stored values, then det times its gauss_jordan inverse."""
    letters = []
    for g in gens:
        x = exact_form(g.entries)
        det, inverse = gauss_jordan(x)
        letters += [x, det * inverse]
    return letters


def test_the_int_recheck_gives_the_fraction_verdict():
    # the benchmark's planted families at scales s = 10 .. 1e6, the pi/4
    # rotation, and an exactly commuting diagonal pair, whose commutator is scalar
    rng = np.random.default_rng(9)
    cases = [[rotation(math.pi / 4)], [diagonal(REAL, [2.0, 0.5]), diagonal(REAL, [3.0, 1 / 3])]]
    for s in 10.0 ** np.linspace(1, 6, 6):
        theta = rng.uniform(0, math.pi)
        g = conjugated_diagonal(theta, s)
        for h in (g @ g @ g, conjugated_diagonal(theta, 10.0 ** rng.uniform(1, 6))):
            cases.append([SLMatrix(REAL, g), SLMatrix(REAL, h)])
    verdicts = []
    for gens in cases:
        tested, reference = _letters(gens)[0], fraction_letters(gens)
        for t, f in zip(tested, reference):
            assert all(type(x) is int for x in t.flat)
            k = np.flatnonzero(f)[0]
            assert Fraction(t.flat[k]) / f.flat[k] > 0
            assert (t * f.flat[k] == f * t.flat[k]).all()  # t is that multiple of f
        for length in range(1, 6 if len(gens) == 1 else 5):
            for word in itertools.product(range(len(tested)), repeat=length):
                if any(a ^ 1 == b for a, b in zip(word, word[1:])):
                    continue  # not reduced
                got, want = (_scalar_words(functools.reduce(
                    operator.matmul, [letters[k] for k in word])[None])[0]
                    for letters in (tested, reference))
                assert got == want
                verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


def test_falsifier_never_calls_overflowing_generators_free():
    huge = SLMatrix(REAL, [[1e200, 0.0], [0.0, 1e-200]])
    up = SLMatrix(REAL, [[1.0, 1e200], [0.0, 1.0]])
    down = SLMatrix(REAL, [[1.0, 0.0], [1e200, 1.0]])
    for gens in ([huge, up], [up, down]):
        with pytest.raises(UndecidedError) as caught:
            freeness_falsifier(gens, 6)
        assert caught.value.decided_len == 1  # length 2 overflows


def test_falsifier_refuses_exactly_singular_letters():
    # check=False skips the determinant gate; the exact inverse letters still need det != 0
    for field, rows in ((REAL, [[1e8, 1e8], [1e8, 1e8]]), (COMPLEX, [[1.0, 1j], [1.0, 1j]])):
        singular = SLMatrix(field, rows, check=False)
        with pytest.raises(DomainError, match="exactly singular"):
            freeness_falsifier([singular], 3)


def test_falsifier_validation():
    with pytest.raises(DomainError):
        freeness_falsifier([rotation(1.0)], 0)
    with pytest.raises(DomainError):
        freeness_falsifier([], 3)


def test_falsifier_padic_exactness():
    Q5 = padic(5)
    a = SLMatrix(Q5, [[2, 0], [0, Fraction(1, 2)]])
    b = SLMatrix(Q5, [[3, 0], [0, Fraction(1, 3)]])
    assert freeness_falsifier([a, b], 4) == Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    S = SLMatrix(Q5, [[1, 1], [0, 1]])
    T = SLMatrix(Q5, [[1, 0], [1, 1]])
    assert freeness_falsifier([S, T], 3) is None


def stored_values(g):
    """The stored rationals of a p-adic g, as an object array of Fractions."""
    return np.array([[x.value for x in row] for row in g.entries], dtype=object)


def test_falsifier_decides_low_precision_padic_pairs_for_their_stored_values():
    # the words are exact ints whatever the digits held: precision 3-6 gives
    # the verdict of precision 40 on the same rationals, where PadicScalar
    # words ran out of digits on 61 of these 80 pairs
    rng = random.Random(0)
    for precision in (3, 4, 5, 6):
        field = padic(5, precision)
        for k in range(20):
            g, h = (random_sl_padic(rng, field, 2, val_range=1) for _ in range(2))
            if k % 4 == 0:  # planted: h = g^2, the relation g0 g0 g1^-1
                h = SLMatrix(field, (stored_values(g) @ stored_values(g)).tolist())
            word = freeness_falsifier([g, h], 6)
            full = [SLMatrix(padic(5), stored_values(x).tolist()) for x in (g, h)]
            assert word == freeness_falsifier(full, 6)
            assert (word == Word(((0, 1), (0, 1), (1, -1)))) == (k % 4 == 0)


def integer_sl2(shears):
    """The product of the integer shears [[1, k], [0, 1]] (upper) and
    [[1, 0], [k, 1]], as an object array of Python ints."""
    m = np.eye(2, dtype=int).astype(object)
    for upper, k in shears:
        m = m @ np.array([[1, k], [0, 1]] if upper else [[1, 0], [k, 1]], dtype=object)
    return m


_SHEARS = st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), min_size=1, max_size=4)
# h for each g: free choice, g^2, g^3, -g (projectively g); or g conjugate to
# an element of projective order 2 or 3, with a free choice of h
_PLANTS = ["none", "square", "cube", "negative", "order-2", "order-3"]
_TORSION = {"order-2": [[0, -1], [1, 0]], "order-3": [[0, -1], [1, 1]]}


@settings(max_examples=60, deadline=None)
@given(_SHEARS, _SHEARS, st.sampled_from(_PLANTS))
def test_falsifier_verdicts_agree_across_r_c_and_q5(g_shears, h_shears, plant):
    # integer SL_2 pairs are exact over every field: Q_5 decides exactly, and
    # R and C give its verdict or say how far they decided, short of its word
    g, h = integer_sl2(g_shears), integer_sl2(h_shears)
    if plant in _TORSION:
        inverse = integer_sl2([(upper, -k) for upper, k in reversed(g_shears)])
        g = g @ np.array(_TORSION[plant], dtype=object) @ inverse
    h = {"square": g @ g, "cube": g @ g @ g, "negative": -g}.get(plant, h)
    want = freeness_falsifier([SLMatrix(padic(5), x.tolist()) for x in (g, h)], 5)
    assert (want is None) <= (plant == "none")
    for field in (REAL, COMPLEX):
        try:
            got = freeness_falsifier([SLMatrix(field, x.tolist()) for x in (g, h)], 5)
        except UndecidedError as exc:
            assert want is None or exc.decided_len < len(want)
            continue
        assert got == want


# soundness chain: verified certificates never produce falsifier hits


def test_soundness_chain_randomized():
    rng = np.random.default_rng(12)
    F = rotation_set(0.05, ks=range(0, 8))
    hits = 0
    for run in range(10):
        theta = float(rng.uniform(0, math.pi))
        scale = 10.0 ** float(rng.uniform(3, 6))
        q = rotation(theta)
        gamma0 = q @ SLMatrix(REAL, [[scale, 0.0], [0.0, 1.0 / scale]]) @ q.inverse()
        with pytest.warns(UserWarning, match="bi-Lipschitz"):
            cert = certify_free_generators([identity(REAL, 2), identity(REAL, 2)],
                                           F, gamma0, seed=run)
        if verify_pingpong(cert):
            hits += 1
            assert freeness_falsifier(cert.generators, 6) is None
    assert hits == 10
