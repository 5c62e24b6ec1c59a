"""Seed-deterministic sample streams over projective spaces.

Samples are produced in fixed-size chunks whose generator is seeded with
seed + chunk index, so the stream's content is independent of how many
workers consume it and of chunk boundaries chosen by the caller.
"""

import random

import numpy as np

from .errors import DomainError
from .fields import FieldSpec, Kind

CHUNK_SIZE = 1024


def archimedean_unit_chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Yield (m, n) arrays of unit vectors, gaussian-uniform on the sphere."""
    if field.is_padic:
        raise DomainError("archimedean sampling asked for a p-adic field")
    for index, start in enumerate(range(0, count, CHUNK_SIZE)):
        take = min(CHUNK_SIZE, count - start)
        rng = np.random.default_rng(seed + index)
        x = rng.normal(size=(take, n))
        if field.kind is Kind.COMPLEX:
            x = x + 1j * rng.normal(size=(take, n))
        norms = np.linalg.norm(x, axis=1)
        # a gaussian row of norm ~0 is astronomically unlikely; resample it anyway
        while np.any(norms < 1e-12):
            bad = norms < 1e-12
            x[bad] = rng.normal(size=(int(bad.sum()), n))
            norms = np.linalg.norm(x, axis=1)
        yield x / norms[:, None]


def padic_point_chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Yield lists of integer coordinate tuples with at least one unit entry.

    Coordinates are uniform over Z/p^precision, the digit-uniform measure on
    Z_p to working precision, conditioned on the tuple being a valid
    projective representative with sup norm 1.
    """
    if not field.is_padic:
        raise DomainError("p-adic sampling asked for an archimedean field")
    for index, start in enumerate(range(0, count, CHUNK_SIZE)):
        rng = random.Random(seed + index)
        yield [padic_unit_coords(rng, field, n) for _ in range(min(CHUNK_SIZE, count - start))]


def padic_unit_coords(rng: random.Random, field: FieldSpec, n: int) -> tuple:
    """n integers uniform mod p^precision, drawn again until one is a unit."""
    p = field.prime
    bound = p ** field.precision
    while True:
        coords = tuple(rng.randrange(bound) for _ in range(n))
        if any(c % p for c in coords):
            return coords
