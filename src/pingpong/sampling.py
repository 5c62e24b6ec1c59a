"""Seed-deterministic sample streams over projective spaces.

Every generator of the package is built here.  _blocks is the one stream
definition, one stream per seed, over every field; stream_rows stacks its
blocks, and its callers take seed + chunk index (the sample chunks), seed +
trial (separation's configurations) and seed + attempt (the very-contracting
step's probe noise over R and C).

Over R and C the stream of seed s is numpy's PCG64 seeded through
SeedSequence(s), bit for bit.  One reused Generator draws every stream: the
PCG64 states of all seeds of a call come from one stacked SeedSequence hash
(_pcg64_states; a lone seed from numpy's own SeedSequence, through the same
srandom step), and each state is set on the generator before its draws.
So two threads must not draw streams at the same time.  Over Q_p the stream
of seed s is random.Random(s), and its rows are the drawn Python ints
themselves: exact, with full digits, what the p-adic distance kernels and
separation's configurations work on.
"""

import functools
import operator
import random

import numpy as np

from .errors import DomainError
from .fields import FieldSpec, Kind
from .projective import as_field_array

CHUNK_SIZE = 1024

# numpy's SeedSequence: O'Neill's seed_seq_fe with a pool of four uint32
# words.  hashmix xors its value with the running hash constant, moves the
# constant on by one multiplication and multiplies the value by it; mix is
# MIX_L x - MIX_R y.  Both end with an xorshift by 16, all mod 2^32.  The
# constants of the k-th hashmix call do not depend on the data.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# PCG64 (O'Neill, HMC-CS-2014-0905): the 128-bit LCG multiplier
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK128 = (1 << 128) - 1


@functools.lru_cache
def _hash_constants(init: int, mult: int, calls: int) -> tuple:
    """(xor, mult) of hash calls 0..calls-1 from constant init, as (calls, 1)
    uint32 columns: call k xors with h_k and multiplies by h_(k+1) = h_k mult."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK32)
    column = np.array(h, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(values, xor, mult):
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x, y):
    values = _MIX_L * x - _MIX_R * y
    return values ^ (values >> _XSHIFT)


def _mix_steps() -> list:
    """Per source word, the (4, 1) hashmix constants of its three mixes into
    the other pool words, in call order 4, 5, ..., 15; the source's own row
    holds zeros, and its mixed value is thrown away."""
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
    steps, call = [], _POOL
    for src in range(_POOL):
        rows = [d for d in range(_POOL) if d != src]
        x, m = np.zeros((2, _POOL, 1), dtype=np.uint32)
        x[rows], m[rows] = xor[call:call + 3], mult[call:call + 3]
        steps.append((src, x, m))
        call += 3
    return steps


_MIX_STEPS = _mix_steps()


@functools.cache
def _generator():
    # built at the first draw: numpy.random takes longer to import than pingpong.cli
    return np.random.Generator(np.random.PCG64(0))


def _nonnegative(seeds) -> list:
    """The seeds as Python ints; ValueError for a negative one, as numpy's
    SeedSequence raises, and since random.Random would replay its absolute value."""
    seeds = [operator.index(s) for s in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError(f"a seed must be nonnegative, got {min(seeds)}")
    return seeds


def _pcg64_states(seeds) -> list:
    """(state, inc) of np.random.PCG64(np.random.SeedSequence(s)) for each
    nonnegative int s, all from one stacked hash over the seeds' uint32 words.
    A single seed takes numpy's own SeedSequence words instead: the stacked
    hash's fixed numpy calls cost more than one seed's whole hash."""
    seeds = _nonnegative(seeds)
    if len(seeds) < 2:
        return [_srandom(*np.random.SeedSequence(s).generate_state(4, np.uint64).tolist())
                for s in seeds]
    width = max(_POOL, -(-max(seeds).bit_length() // 32))
    words = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds),
                          dtype="<u4").reshape(len(seeds), width).T
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL * width)
    # a missing word hashes as a zero one, so a seed of fewer than 4 words is padded
    pool = _hashmix(words[:_POOL], xor[:_POOL], mult[:_POOL])
    for src, x, m in _MIX_STEPS:
        source = pool[src].copy()
        pool = _mix(pool, _hashmix(source, x, m))
        pool[src] = source
    # each word past the pool mixes into every pool word, calls 16, 17, ...;
    # a seed without that word skips it
    if width > _POOL:
        word_counts = np.array([-(-s.bit_length() // 32) for s in seeds])
        for index in range(_POOL, width):
            calls = slice(_POOL * index, _POOL * index + _POOL)
            mixed = _mix(pool, _hashmix(words[index], xor[calls], mult[calls]))
            pool = np.where(index < word_counts, mixed, pool)
    # generate_state(4, uint64): 8 words cycling over the pool, paired little-endian
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    out = _hashmix(np.tile(pool, (2, 1)), xor, mult)
    return [_srandom(*words)
            for words in np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist()]


def _srandom(w0: int, w1: int, w2: int, w3: int) -> tuple:
    """(state, inc) of PCG64 seeded with the words of generate_state(4,
    uint64): initstate w0 w1 and sequence w2 w3, high word first.  srandom
    steps state 0 once, which gives inc, adds initstate and steps again."""
    inc = (w2 << 64 | w3) << 1 | 1
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc & _MASK128


def _blocks(field: FieldSpec, n: int, seeds: list, counts):
    """Per Python int seed s and count c, the (c, n) rows of stream s: over R
    and C its normal draws, real parts, then over C the imaginary parts; over
    Q_p c padic_unit_coords draws of random.Random(s), as an object array of
    those Python ints, exact and with full digits.  Every seed is checked,
    and over R and C hashed, at the first block; a negative one raises
    ValueError."""
    if field.is_padic:
        for rng, count in zip(map(random.Random, _nonnegative(seeds)), counts):
            coords = [padic_unit_coords(rng, field, n) for _ in range(count)]
            yield np.array(coords, dtype=object).reshape(count, n)
        return
    generator = _generator()
    for (state, inc), count in zip(_pcg64_states(seeds), counts):
        generator.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                         "uinteger": 0, "state": {"state": state, "inc": inc}}
        rows = generator.normal(size=(count, n))
        if field.kind is Kind.COMPLEX:
            rows = rows + 1j * generator.normal(size=(count, n))
        yield rows


def stream_rows(field: FieldSpec, n: int, seeds: list, count: int) -> np.ndarray:
    """(S, count, n) rows, block s the rows of stream seeds[s] (_blocks)."""
    return np.array(list(_blocks(field, n, seeds, [count] * len(seeds))))


def _chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Chunk k: CHUNK_SIZE rows (fewer in the last) of stream seed + k."""
    sizes = [min(CHUNK_SIZE, count - start) for start in range(0, count, CHUNK_SIZE)]
    return _blocks(field, n, [seed + index for index in range(len(sizes))], sizes)


def archimedean_unit_chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Yield (m, n) arrays of unit vectors, gaussian-uniform on the sphere."""
    if field.is_padic:
        raise DomainError("archimedean sampling asked for a p-adic field")
    for x in _chunks(field, n, count, seed):
        yield x / np.linalg.norm(x, axis=1)[:, None]


def padic_point_chunks(field: FieldSpec, n: int, count: int, seed: int):
    """Yield (m, n) object arrays of Python int coordinates with at least
    one unit entry, which the distance kernels read as exact full-digit
    p-adic scalars (as_field_array makes PadicScalars of them).

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
        rng = random.Random(_nonnegative([seed])[0])
        span = field.prime ** max(field.precision - 2, 1)
        return as_field_array(field, [field.prime ** 2 * rng.randrange(span) for _ in range(n)], 1)
    return next(_blocks(field, n, [seed], [1]))[0] * 1e-2
