"""The seeded sample streams, and the one module that seeds them."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

from pingpong.fields import COMPLEX, REAL, padic
from pingpong.sampling import padic_unit_coords, stream_rows

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
            rng = random.Random(s)
            want = [padic_unit_coords(rng, field, n) for _ in range(count)]
            assert [[x.value for x in row] for row in block] == [list(c) for c in want]
            assert all(x.field == field for x in block.ravel())
            continue
        rng = np.random.default_rng(s)
        want = rng.normal(size=(count, n))
        if field is COMPLEX:
            # the imaginary block is drawn after the whole real block
            want = want + 1j * rng.normal(size=(count, n))
        assert block.dtype == want.dtype
        assert block.tobytes() == want.tobytes()


def _generator_uses(path: Path) -> list:
    """The default_rng and Random names one source file calls or passes on."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("default_rng", "Random"):
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
