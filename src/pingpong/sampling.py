"""Seed-deterministic sample streams over projective spaces.

Every generator of the package is built here.  stream_rows is the one
stream definition, one generator per seed; its callers take seed + chunk
index (the sample chunks), seed + trial (separation's configurations) and
seed + attempt (the very-contracting step's probe noise).
"""

import random

import numpy as np

from .errors import DomainError
from .fields import FieldSpec, Kind
from .projective import as_field_array

CHUNK_SIZE = 1024


def stream_rows(field: FieldSpec, n: int, seeds: list, count: int) -> np.ndarray:
    """(S, count, n) rows, block s drawn by the stream of Python int seeds[s]:
    np.random.default_rng(s).normal over R and C, the real parts, then over
    C the imaginary parts; over Q_p count padic_unit_coords draws of
    random.Random(s), as a field array."""
    if field.is_padic:
        coords = [padic_unit_coords(rng, field, n)
                  for rng in map(random.Random, seeds) for _ in range(count)]
        return as_field_array(field, coords, 2).reshape(len(seeds), count, n)
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = np.array([rng.normal(size=(count, n)) for rng in rngs])
    if field.kind is Kind.COMPLEX:
        rows = rows + 1j * np.array([rng.normal(size=(count, n)) for rng in rngs])
    return rows


def _chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Chunk k: CHUNK_SIZE rows (fewer in the last) of stream seed + k."""
    for index, start in enumerate(range(0, count, CHUNK_SIZE)):
        yield stream_rows(field, n, [seed + index], min(CHUNK_SIZE, count - start))[0]


def archimedean_unit_chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Yield (m, n) arrays of unit vectors, gaussian-uniform on the sphere."""
    if field.is_padic:
        raise DomainError("archimedean sampling asked for a p-adic field")
    for x in _chunks(field, n, count, seed):
        yield x / np.linalg.norm(x, axis=1)[:, None]


def padic_point_chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Yield (m, n) field arrays of coordinates with at least one unit entry.

    Coordinates are uniform over Z/p^precision, the digit-uniform measure on
    Z_p to working precision, conditioned on the tuple being a valid
    projective representative with sup norm 1.
    """
    if not field.is_padic:
        raise DomainError("p-adic sampling asked for an archimedean field")
    yield from _chunks(field, n, count, seed)


def padic_unit_coords(rng: random.Random, field: FieldSpec, n: int) -> tuple:
    """n integers uniform mod p^precision, drawn again until one is a unit."""
    p = field.prime
    bound = p ** field.precision
    while True:
        coords = tuple(rng.randrange(bound) for _ in range(n))
        if any(c % p for c in coords):
            return coords


def probe_offset(field: FieldSpec, n: int, seed: int) -> np.ndarray:
    """n field scalars of probe noise: p^2 times integers uniform mod
    p^max(precision - 2, 1) from random.Random(seed) over Q_p, 1e-2 times
    the row of stream seed over R and C."""
    if field.is_padic:
        rng = random.Random(seed)
        span = field.prime ** max(field.precision - 2, 1)
        return as_field_array(field, [field.prime ** 2 * rng.randrange(span) for _ in range(n)], 1)
    return stream_rows(field, n, [seed], 1)[0, 0] * 1e-2
