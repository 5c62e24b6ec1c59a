"""Contraction and proximality certificates.

An epsilon-contracting map sends the complement of the epsilon-neighborhood
of its repelling hyperplane into the epsilon-ball around its attracting
point.  The certificates here are quantitative: the sufficient criterion is
|a_2/a_1| <= epsilon^2, and the converse bounds recover |a_2/a_1| from
observed contraction or Lipschitz behavior.  (r, epsilon)-proximal means
epsilon-contracting with the attracting point at distance >= r > 2 epsilon
from the repelling hyperplane.  verify_contracting tests the definition on
chunks of sampled points with the array distance kernels of projective,
one loop for every field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cartan import SLMatrix
from .errors import ConstructionError, DomainError, NotContractingError
from .fields import FieldSpec, magnitude, relative_tolerance
from .projective import (ProjHyperplane, ProjPoint, _kernel_form, dist_to_hyperplane,
                         hyperplane_distances, point_distances)
from .sampling import archimedean_unit_chunks, padic_point_chunks


@dataclass(frozen=True)
class ContractionCert:
    """(epsilon, attracting point, repelling hyperplane) for one map.

    ``ratio`` is |a_2/a_1| of the underlying matrix.  Certificates made by
    contraction_data carry the matrix's own Cartan flag and epsilon =
    sqrt(ratio); certificates transported along a composition keep the
    composition's provable epsilon, which is larger.
    """

    epsilon: float
    attracting: ProjPoint
    repelling: ProjHyperplane
    ratio: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ConstructionError(f"contraction epsilon must be in (0, 1], got {self.epsilon}")

    def flag_distance(self) -> float:
        return dist_to_hyperplane(self.attracting, self.repelling)


@dataclass(frozen=True)
class ProximalCert:
    """Proximality witness: each present side is epsilon-contracting with
    its attracting point at distance >= r from its repelling hyperplane."""

    r: float
    epsilon: float
    forward: ContractionCert
    backward: ContractionCert | None

    def __post_init__(self):
        if not self.r > 2 * self.epsilon:
            raise ConstructionError(
                f"proximality gate failed: r = {self.r} is not above 2*epsilon = "
                f"{2 * self.epsilon}")
        for side in (self.forward, self.backward):
            if side is not None and side.flag_distance() < self.r * (1 - 1e-12):
                raise ConstructionError(
                    f"flag distance {side.flag_distance()} is below the declared r = {self.r}")

    @property
    def very(self) -> bool:
        return self.backward is not None


def contraction_coefficient(g: SLMatrix) -> float:
    """sqrt(|a_2/a_1|), the smallest certified contraction epsilon; 1 if none."""
    t = g.cartan()
    if g.field.is_padic:
        # one power of p, exact for an even valuation gap
        return magnitude(g.field.prime, (t.a[1].valuation - t.a[0].valuation) / 2)
    ratio = t.ratio
    # floating-point Cartan values of an isometry land within an ulp of 1
    if ratio >= 1.0 - relative_tolerance():
        return 1.0
    return math.sqrt(ratio)


def cartan_cert(g: SLMatrix, epsilon: float) -> ContractionCert:
    """Certificate at epsilon with g's own Cartan flag v = [k e_1], H = ker(row 1 of k')."""
    t = g.cartan()
    return ContractionCert(epsilon, t.attracting_point(), t.repulsive_hyperplane(), t.ratio)


def contraction_data(g: SLMatrix) -> ContractionCert:
    """cartan_cert at g's own contraction coefficient, which must be below 1/4."""
    eps = contraction_coefficient(g)
    if eps >= 0.25:
        raise NotContractingError(
            f"contraction coefficient {eps} is not below 1/4; no certificate")
    return cartan_cert(g, eps)


def verify_contracting(cert: ContractionCert, g: SLMatrix,
                       samples: int = 10_000, seed: int = 0) -> bool:
    """Empirically test the defining property on seed-deterministic samples.

    True iff every sampled point at distance >= epsilon from the repelling
    hyperplane lands within epsilon of the attracting point.  Vacuously true
    for samples = 0.
    """
    field = g.field
    chunks = padic_point_chunks if field.is_padic else archimedean_unit_chunks
    for points in chunks(field, g.n, samples, seed):
        points = _kernel_form(field, points, 1)
        to_plane = hyperplane_distances(field, points, cert.repelling.form[None])[:, 0]
        to_point = point_distances(field, points, cert.attracting.rep, g.entries)
        if ((to_plane >= cert.epsilon) & (to_point > cert.epsilon)).any():
            return False
    return True


def ratio_upper_bound_from_contraction(epsilon: float, field: FieldSpec) -> float:
    """If [g] is epsilon-contracting then |a_2/a_1| is at most this."""
    if epsilon < 0 or epsilon >= 0.25:
        raise DomainError(f"the converse bound needs epsilon in [0, 1/4), got {epsilon}")
    return field.d * epsilon ** 2


def lipschitz_outside(g: SLMatrix, r: float) -> float:
    """Lipschitz constant |a_2/a_1| / r^2 valid at distance >= r from H_g."""
    if not 0.0 < r <= 1.0:
        raise DomainError(f"the exclusion radius must be in (0, 1], got {r}")
    return g.cartan().ratio / r ** 2


def ratio_from_lipschitz(epsilon: float, field: FieldSpec) -> float:
    """If [g] is epsilon-Lipschitz on some open set, |a_2/a_1| is at most this."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"the Lipschitz converse needs epsilon in (0, 1), got {epsilon}")
    if field.is_padic:
        return epsilon
    return epsilon / math.sqrt(1.0 - epsilon ** 2)


def proximal_cert(g: SLMatrix) -> ProximalCert | None:
    """Proximality certificate from g's own Cartan data, or None.

    epsilon is the larger contraction coefficient of the present sides, r the
    smaller flag distance; the certificate exists only when r > 2*epsilon.
    """
    try:
        forward = contraction_data(g)
    except NotContractingError:
        return None
    try:
        backward = contraction_data(g.inverse())
    except NotContractingError:
        backward = None
    sides = [forward] if backward is None else [forward, backward]
    eps = max(side.epsilon for side in sides)
    r = min(side.flag_distance() for side in sides)
    if r <= 2 * eps:
        return None
    return ProximalCert(r, eps, forward, backward)
