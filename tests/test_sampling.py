"""The seeded sample streams, and the one module that seeds them."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pingpong import sampling
from pingpong.cartan import SLMatrix
from pingpong.contraction import contraction_data, verify_contracting
from pingpong.errors import DomainError
from pingpong.fields import COMPLEX, REAL, _padic_read, padic
from pingpong.sampling import (CHUNK_SIZE, archimedean_unit_chunks, padic_point_chunks,
                               padic_unit_coords, probe_offset, stream_rows)

Q5 = padic(5)
SEEDS = [0, 1, 7, 2**32, 2**63 + 5]
SOURCE = Path(__file__).resolve().parents[1] / "src" / "pingpong"


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q5], ids=["R", "C", "Q5"])
@pytest.mark.parametrize("n, count", [(2, 3), (3, 1)])
def test_stream_rows_are_the_direct_draws(field, n, count):
    rows = stream_rows(field, n, SEEDS, count)
    assert rows.shape == (len(SEEDS), count, n)
    for s, block in zip(SEEDS, rows):
        if field is Q5:
            # the int draws of random.Random(s) themselves, which the kernels
            # read as exact scalars with full digits
            rng = random.Random(s)
            want = [padic_unit_coords(rng, field, n) for _ in range(count)]
            assert block.dtype == object
            assert block.tolist() == [list(c) for c in want]
            assert all(type(x) is int for x in block.ravel())
            assert (_padic_read(field, block, 1).term[2] == field.precision).all()
            continue
        rng = np.random.default_rng(s)
        want = rng.normal(size=(count, n))
        if field is COMPLEX:
            # the imaginary block is drawn after the whole real block
            want = want + 1j * rng.normal(size=(count, n))
        assert block.dtype == want.dtype
        assert block.tobytes() == want.tobytes()


def _numpy_rows(field, n, seed, count):
    # the stream of seed as numpy seeds it: the real block, then the imaginary one
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, n))
    return rows + 1j * rng.normal(size=(count, n)) if field is COMPLEX else rows


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
@pytest.mark.parametrize("boundary", [2**32, 2**64, 2**128], ids=["2^32", "2^64", "2^128"])
def test_a_batch_across_a_word_boundary_draws_numpys_streams(field, boundary):
    # one call holds seeds of one, two or four words and the next count up
    seeds = [boundary - 2, 5, boundary - 1, boundary, boundary + 3, 0]
    rows = stream_rows(field, 3, seeds, 4)
    assert rows.shape == (len(seeds), 4, 3)
    for s, block in zip(seeds, rows):
        want = _numpy_rows(field, 3, s, 4)
        assert block.dtype == want.dtype
        assert block.tobytes() == want.tobytes()


def _numpy_state(seed) -> tuple:
    state = np.random.default_rng(seed).bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    return state["state"]["state"], state["state"]["inc"]


def test_stacked_hash_gives_numpys_pcg64_states():
    # numpy 2.4's SeedSequence -> PCG64 seeding; a release that changes it fails here
    seeds = list(range(3000)) + [2**32 - 1, 2**32, 2**40 + 7, 2**63 + 5, 2**64 + 3]
    assert sampling._pcg64_states(seeds) == [_numpy_state(s) for s in seeds]


def test_stacked_hash_mixes_words_past_the_pool_per_seed():
    # seeds of more than four words mix their extra words in; shorter seeds
    # of the same batch must not
    seeds = [7, 2**127 + 1, 2**128, 2**160 - 1, 2**200 + 11, 2**64, 2**300 + 5, 0]
    assert sampling._pcg64_states(seeds) == [_numpy_state(s) for s in seeds]
    assert sampling._pcg64_states([]) == []


def test_a_lone_seed_gives_numpys_pcg64_state(monkeypatch):
    # one seed takes numpy's own SeedSequence words, not the stacked hash
    seeds = [0, 1, 77, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 1, 2**300 + 5]
    monkeypatch.setattr(sampling, "_hash_constants", None)
    assert [sampling._pcg64_states([s]) for s in seeds] == [[_numpy_state(s)] for s in seeds]


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
def test_unit_chunks_are_the_per_chunk_streams(field):
    count, seed = 2 * CHUNK_SIZE + 37, 40
    chunks = list(archimedean_unit_chunks(field, 2, count, seed))
    assert [len(x) for x in chunks] == [CHUNK_SIZE, CHUNK_SIZE, 37]
    for k, chunk in enumerate(chunks):
        x = _numpy_rows(field, 2, seed + k, len(chunk))
        assert chunk.tobytes() == (x / np.linalg.norm(x, axis=1)[:, None]).tobytes()


def test_padic_chunks_are_the_per_chunk_streams():
    count, seed, n = 2 * CHUNK_SIZE + 37, 40, 2
    chunks = list(padic_point_chunks(Q5, n, count, seed))
    assert [len(x) for x in chunks] == [CHUNK_SIZE, CHUNK_SIZE, 37]
    for k, chunk in enumerate(chunks):
        want = stream_rows(Q5, n, [seed + k], len(chunk))[0]
        assert chunk.shape == want.shape == (len(chunk), n)
        assert chunk.dtype == want.dtype == object
        assert chunk.tolist() == want.tolist()
        assert all(type(x) is int for x in chunk.ravel())
        rng = random.Random(seed + k)
        assert chunk.tolist() == [
            list(padic_unit_coords(rng, Q5, n)) for _ in range(len(chunk))]


def test_chunks_hash_every_chunk_seed_in_one_pass(monkeypatch):
    calls = []
    original = sampling._pcg64_states

    def counting(seeds):
        calls.append(list(seeds))
        return original(seeds)

    monkeypatch.setattr(sampling, "_pcg64_states", counting)
    chunks = archimedean_unit_chunks(REAL, 3, 3 * CHUNK_SIZE + 1, 9)
    next(chunks)
    assert calls == [[9, 10, 11, 12]]
    assert len(list(chunks)) == 3
    assert calls == [[9, 10, 11, 12]]


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        stream_rows(REAL, 2, [3, -1], 1)
    with pytest.raises(ValueError, match="nonnegative, got -2"):
        next(archimedean_unit_chunks(COMPLEX, 2, 10, -2))
    with pytest.raises(TypeError):
        stream_rows(REAL, 2, [1.5], 1)


def test_a_negative_seed_is_refused_over_q5():
    # random.Random hashes abs(seed), so seed -1 would replay seed 1's stream
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        stream_rows(Q5, 2, [-1], 2)
    with pytest.raises(ValueError, match="nonnegative, got -7"):
        probe_offset(Q5, 2, -7)
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        next(padic_point_chunks(Q5, 2, 10, -1))
    g = SLMatrix(Q5, [[5, 0], [0, Fraction(1, 5)]])
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        verify_contracting(contraction_data(g), g, samples=10, seed=-1)


def test_no_module_seeds_through_numpys_default_rng():
    assert not [path.name for path in SOURCE.glob("*.py") if "default_rng" in path.read_text()]


def _generator_uses(path: Path) -> list:
    """The generator names one source file calls or passes on."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("default_rng", "Generator", "PCG64", "SeedSequence", "Random"):
            names.append(name)
    return names


def test_sampling_is_the_only_module_that_builds_a_generator():
    owners = {path.name for path in SOURCE.glob("*.py") if _generator_uses(path)}
    assert owners == {"sampling.py"}
    for name in ("separation.py", "pingpong.py"):
        text = (SOURCE / name).read_text()
        assert "np.random" not in text
        assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                       and "random" in [a.name for a in node.names]
                       for node in ast.walk(ast.parse(text)))


def test_each_chunk_stream_refuses_the_other_kind_of_field():
    with pytest.raises(DomainError, match="archimedean sampling asked for a p-adic field"):
        next(archimedean_unit_chunks(padic(5), 2, 4, 0))
    with pytest.raises(DomainError, match="p-adic sampling asked for an archimedean field"):
        next(padic_point_chunks(REAL, 2, 4, 0))
